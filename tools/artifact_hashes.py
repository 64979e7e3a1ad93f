"""Hash every artifact and message of a fixed set of CLI runs and demos.

Runs every CLI command of the audited package (its
``noisyflow.cli.COMMANDS``) on each configuration ``configs/*.ini`` of
this checkout (top level only: ``configs/ci/`` holds the configurations
that only CI runs), in this process through ``noisyflow.cli.main``, so
the package is imported once.  ``configs/README.md`` says why each
configuration is there; nine are invalid (eight do not parse and one
drives its drift through a wall), so their error messages are audited
too.  Each file is copied into the work directory as ``<name>.ini``.
Then runs every script under ``demos/`` in its own process, as
``python -W error::RuntimeWarning demos/X.py``, so a demo whose numerics
warn exits 1 and the record shows it.  Prints a
header line ``# python X numpy Y scipy Z`` and then one
``sha256  path`` line per file: every configuration and every artifact a
command wrote, plus the stdout, stderr and exit code of every command
and demo.  Paths are relative to the work directory, so two runs print
the same text exactly when they produced the same bytes.

Uses: check that reruns are byte-identical (run it twice and ``diff``),
check that a change keeps every artifact of its parent (run the script
from the change against both checkouts' ``src``), and regenerate the
committed record, which ``tests/test_audit.py`` checks::

    python tools/artifact_hashes.py > configs/AUDIT.sha256

    python tools/artifact_hashes.py [--src DIR] [WORKDIR]

``--src`` picks the package source to audit (default: the ``src`` beside
this script's directory); its parent directory must hold the ``demos``.
``WORKDIR`` keeps the files (it must not exist yet); without it they go
to a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import platform
import subprocess
import sys
import tempfile

import numpy
import scipy


def _write(path: str, data: str | bytes) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data.encode() if isinstance(data, str) else data)


def _run_cli(main, argv) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def produce(src: str, configs: str) -> None:
    """Write every artifact and message into the current directory."""
    sys.path.insert(0, src)
    from noisyflow.cli import COMMANDS, main

    for name in sorted(f[:-4] for f in os.listdir(configs) if f.endswith(".ini")):
        with open(os.path.join(configs, f"{name}.ini"), "rb") as fh:
            _write(f"{name}.ini", fh.read())
        for command in COMMANDS:
            run_dir = os.path.join(name, command)
            out, err, code = _run_cli(main, [command, "--config", f"{name}.ini", "--out",
                                             os.path.join(run_dir, "out")])
            _write(os.path.join(run_dir, "stdout"), out)
            _write(os.path.join(run_dir, "stderr"), err)
            _write(os.path.join(run_dir, "exit"), f"{code}\n")

    demos = os.path.join(os.path.dirname(os.path.abspath(src)), "demos")
    env = dict(os.environ, PYTHONPATH=src)
    for demo in sorted(f for f in os.listdir(demos) if f.endswith(".py")):
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", os.path.join(demos, demo)],
                              env=env, capture_output=True)
        run_dir = os.path.join("demos", demo[:-3])
        _write(os.path.join(run_dir, "stdout"), proc.stdout)
        _write(os.path.join(run_dir, "stderr"), proc.stderr)
        _write(os.path.join(run_dir, "exit"), f"{proc.returncode}\n")


def digests(root: str) -> list[str]:
    """``sha256  path`` for every file under ``root``, sorted by path."""
    lines = []
    for base, dirs, files in os.walk(root):
        dirs.sort()
        for f in files:
            path = os.path.join(base, f)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, root), digest))
    return [f"{digest}  {path}" for path, digest in sorted(lines)]


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(here, "src"), help="package source to audit")
    parser.add_argument("workdir", nargs="?", help="keep the files here (must not exist)")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    with contextlib.ExitStack() as stack:
        if args.workdir:
            os.makedirs(args.workdir)
            root = os.path.abspath(args.workdir)
        else:
            root = stack.enter_context(tempfile.TemporaryDirectory())
        cwd = os.getcwd()
        os.chdir(root)
        try:
            produce(src, os.path.join(here, "configs"))
        finally:
            os.chdir(cwd)
        print(f"# python {platform.python_version()} numpy {numpy.__version__} scipy {scipy.__version__}")
        print("\n".join(digests(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
