"""Hash every artifact and message of a fixed set of CLI runs and demos.

Writes nineteen small configuration files, nine of them invalid (eight
that do not parse and one whose drift crosses a wall), so their error
messages are audited too, and one circle that the oracle does not
resolve at its eps.  Runs every CLI command of the audited package (its
``noisyflow.cli.COMMANDS``) on each of them (in this process, through
``noisyflow.cli.main``, so the package is imported once), runs every
script under ``demos/`` in its own process, and prints one ``sha256  path`` line per file: every artifact a
command wrote, plus the stdout, stderr and exit code of every command
and demo.  Paths are relative to the work directory, so two runs print
the same text exactly when they produced the same bytes.

Uses: check that reruns are byte-identical (run it twice and ``diff``),
and check that a change keeps every artifact of its parent (run the
script from the change against both checkouts' ``src``).

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
import subprocess
import sys
import tempfile

#: name -> configuration text; small grids, so all runs take seconds
CONFIGS = {
    "circle": """\
[domain]
kind = circle
length = 1.0
n = 128

[drift]
catalog = circle-positive

[noise]
kind = coordinate
eps = 0.4, 0.2

[experiment]
kind = stability
""",
    "selection-circle": """\
[domain]
kind = circle
length = 1.0
n = 64

[drift]
catalog = zero-drift

[noise]
kind = selection
eps = 0.5, 0.25

[experiment]
kind = selection
target = cos:axis=0,freq=1,amp=0.5,offset=1.0
""",
    # the same without [noise] kind: the selection experiment builds its own noise
    "selection-circle-default-noise": """\
[domain]
kind = circle
length = 1.0
n = 64

[drift]
catalog = zero-drift

[noise]
eps = 0.5, 0.25

[experiment]
kind = selection
target = cos:axis=0,freq=1,amp=0.5,offset=1.0
""",
    # a stability sweep on a 2D grid whose cells are not square
    "cellular-torus-stability": """\
[domain]
kind = torus2
lengths = 1.0, 0.75
n = 16, 12

[drift]
catalog = hamiltonian-cellular

[noise]
kind = coordinate
eps = 0.5, 0.25

[experiment]
kind = stability
assert_l1_limit = false
""",
    "selection-torus": """\
[domain]
kind = torus2
lengths = 1.0, 1.0
n = 16

[drift]
catalog = torus-shear

[noise]
kind = selection
eps = 0.5, 0.1

[experiment]
kind = selection
target = cos:axis=1,freq=1,amp=0.5,offset=1.0
""",
    "explicit-torus-decay": """\
[domain]
kind = torus2
lengths = 1.0, 1.0
n = 16

[drift]
catalog = torus-shear

[noise]
kind = explicit
a0 = sin:axis=0,freq=1,amp=0.3,offset=0; const:0
a1 = cos:axis=1,freq=1,amp=0.5,offset=1; const:0
a2 = const:0; cos:axis=0,freq=1,amp=0.5,offset=1
eps = 0.4, 0.2

[experiment]
kind = decay
scheme = crank-nicolson
""",
    # cross diffusion (a_01 = 0.5): the one assembly branch with off-diagonal
    # stencil entries, where the pinned matrix is not provably nonsingular
    "cross-diffusion-torus": """\
[domain]
kind = torus2
lengths = 1.0, 1.0
n = 16

[drift]
catalog = torus-shear

[noise]
kind = explicit
a1 = const:1; const:0.5
a2 = const:0; const:1
eps = 0.5, 0.25

[experiment]
kind = stability
""",
    # psi_max * delta = 4.7 at eps = 0.025: the circle oracle refuses, the solves run
    "circle-unresolved-oracle": """\
[domain]
kind = circle
length = 1.0
n = 256

[drift]
catalog = circle-positive

[noise]
kind = coordinate
eps = 0.025

[experiment]
kind = stability
""",
    # a drift through the walls x = 0 and x = 1: every command refuses it
    "wall-crossing-rectangle": """\
[domain]
kind = rectangle
bounds = 0.0, 1.0, 0.0, 1.0
n = 16

[drift]
bx = const:1
by = const:0
u0 = const:1

[noise]
kind = coordinate
eps = 0.5, 0.25

[experiment]
kind = stability
""",
    "explicit-interval": """\
[domain]
kind = interval
bounds = 0.0, 1.0
n = 64

[drift]
catalog = zero-drift

[noise]
kind = explicit
a0 = const:1
a1 = const:1
eps = 0.5, 0.2

[experiment]
kind = bounded
""",
    "rectangle": """\
[domain]
kind = rectangle
bounds = 0.0, 1.0, 0.0, 1.0
n = 16

[drift]
catalog = zero-drift

[noise]
kind = coordinate
eps = 0.5, 0.1

[experiment]
kind = bounded
""",
    # a bounded study on a periodic domain: every command refuses it at [experiment] kind
    "bounded-circle": """\
[domain]
kind = circle
length = 1.0
n = 32

[drift]
catalog = zero-drift

[noise]
kind = coordinate
eps = 0.5

[experiment]
kind = bounded
""",
    # selection noise under a kind that does not read it
    "selection-noise-stability": """\
[domain]
kind = circle
length = 1.0
n = 32

[drift]
catalog = zero-drift

[noise]
kind = selection
eps = 0.5

[experiment]
kind = stability
""",
    # a removed threshold key: the tolerances are fixed, so every kind refuses it
    "removed-threshold-key": """\
[domain]
kind = circle
length = 1.0
n = 32

[drift]
catalog = zero-drift

[noise]
kind = coordinate
eps = 0.5

[experiment]
kind = stability
selection_sup = 1e-3
""",
    # a selection experiment without its target
    "selection-without-target": """\
[domain]
kind = circle
length = 1.0
n = 32

[drift]
catalog = zero-drift

[noise]
eps = 0.5

[experiment]
kind = selection
""",
    # a cell count below the minimum of 4 per axis
    "cells-below-minimum": """\
[domain]
kind = circle
length = 1.0
n = 2

[drift]
catalog = zero-drift

[noise]
eps = 0.5

[experiment]
kind = stability
""",
    # a catalog system on a domain it is not built on
    "catalog-on-another-domain": """\
[domain]
kind = torus2
lengths = 1.0, 1.0
n = 16

[drift]
catalog = circle-positive

[noise]
eps = 0.5

[experiment]
kind = stability
""",
    # a misspelt catalog system
    "unknown-catalog": """\
[domain]
kind = torus2
lengths = 1.0, 1.0
n = 16

[drift]
catalog = torus-rotaton

[noise]
eps = 0.5

[experiment]
kind = stability
""",
    # two epsilons whose decay traces would share the file trace_eps0.5_mode1.csv
    "epsilons-sharing-a-label": """\
[domain]
kind = circle
length = 1.0
n = 32

[drift]
catalog = zero-drift

[noise]
kind = coordinate
eps = 0.5000001, 0.5

[experiment]
kind = decay
""",
}


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


def produce(src: str) -> None:
    """Write every artifact and message into the current directory."""
    sys.path.insert(0, src)
    from noisyflow.cli import COMMANDS, main

    for name, text in CONFIGS.items():
        _write(f"{name}.ini", text)
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
        proc = subprocess.run([sys.executable, os.path.join(demos, demo)], env=env,
                              capture_output=True)
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
            produce(src)
        finally:
            os.chdir(cwd)
        print("\n".join(digests(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
