"""Command-line front end.

Commands: stationary, evolve, oracle1d, check, sweep.  Every command
reads an experiment configuration file, the one place that sets every
value; ``--out`` only redirects the artifacts.  ``sweep`` runs the study
that the file's ``[experiment] kind`` names.  Exit status: 0 when all
verdicts pass (and for ``--help``), 2 on a verdict failure (the failing
assertion is named), 1 on an operational or usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import parse_config
from .errors import NoisyflowError
from .experiments import SweepConfig, decay_traces, run, stability_rows, trace_columns, write_rows
from .fields import check_admissible
from .geometry import Circle, Interval
from .reporting import atomic_write_text, fmt, write_csv
from .stationary import oracle_1d_circle, oracle_1d_interval

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisyflow",
        description="stationary densities and decay rates of randomly perturbed conservative flows",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="experiment configuration file")
    parser.add_argument("--out", default=None, help="output directory (overrides the config)")
    parser.add_argument("--quiet", action="store_true", help="suppress non-error output")
    return parser


def _say(quiet, *parts):
    if not quiet:
        print(*parts)


def _run_stationary(cfg: SweepConfig, args) -> int:
    rows, _ = stability_rows(cfg)
    for r in rows:
        _say(args.quiet, f"eps={r['eps']:g}: min={r['min_u']:.6g} max={r['max_u']:.6g} "
                         f"residual={r['residual']:.3g} l1_to_u0={r['l1_dist_to_u0']:.6g}")
    if cfg.out_dir:
        write_rows(os.path.join(cfg.out_dir, "stationary.csv"), rows)
    return 0


def _run_evolve(cfg: SweepConfig, args) -> int:
    _, system, noise = cfg.build()
    eps = cfg.epsilons[0]
    trace, fit = decay_traces(cfg, system, noise, eps, modes=(1,))[1]
    _say(args.quiet, f"eps={eps:g}: fitted rate {fit.rate:.6g} "
                     f"(rate/eps^2 = {fit.rate / eps ** 2:.6g}, r^2 = {fit.r_squared:.4f})")
    if cfg.out_dir:
        write_csv(os.path.join(cfg.out_dir, "trace.csv"), trace_columns(trace))
    return 0


def _run_oracle1d(cfg: SweepConfig, args) -> int:
    grid, system, noise = cfg.build()
    eps = cfg.epsilons[0]
    if isinstance(grid.kind, Circle):
        u, c_eps = oracle_1d_circle(system.drift, noise.a0_field, noise.ai_fields, eps, grid)
        summary = f"oracle1d circle: eps={eps:g} C_eps={fmt(float(c_eps))}\n"
    elif isinstance(grid.kind, Interval):
        u = oracle_1d_interval(system.drift, noise.a0_field, noise.ai_fields, eps, grid)
        summary = f"oracle1d interval: eps={eps:g} (zero stationary flux)\n"
    else:
        raise NoisyflowError("oracle1d needs a circle or interval domain")
    if cfg.out_dir:
        write_csv(os.path.join(cfg.out_dir, "oracle.csv"),
                  dict(x=grid.cell_centers()[:, 0], u=u, u0=system.u0))
        atomic_write_text(os.path.join(cfg.out_dir, "oracle_summary.txt"), summary)
    _say(args.quiet, summary.strip())
    return 0


def _run_check(cfg: SweepConfig, args) -> int:
    grid, _, noise = cfg.build()
    report = check_admissible(noise, grid)
    _say(args.quiet, f"sup norm bound: {report.sup_norm_bound:.6g}")
    _say(args.quiet, f"ellipticity constant: {report.lam:.6g} "
                     f"(threshold {report.lambda_threshold:g})")
    _say(args.quiet, f"(A1) integrability: {'PASS' if report.passes_A1 else 'FAIL'}")
    _say(args.quiet, f"(A2) ellipticity:  {'PASS' if report.passes_A2 else 'FAIL'}")
    return _status({"(A1) integrability": report.passes_A1, "(A2) ellipticity": report.passes_A2})


def _run_sweep(cfg: SweepConfig, args) -> int:
    report = run(cfg)
    for name, passed in report.verdicts.items():
        _say(args.quiet, f"[{'PASS' if passed else 'FAIL'}] {name}")
    return _status(report.verdicts)


def _status(verdicts: dict) -> int:
    """0 when every verdict passes; otherwise 2, with the failing ones named on stderr."""
    failing = ", ".join(name for name, ok in verdicts.items() if not ok)
    if failing:
        print(f"verdict failure: {failing}", file=sys.stderr)
    return 2 if failing else 0


#: command -> its runner; ``sweep`` runs the study that ``[experiment] kind`` names
COMMANDS = {
    "stationary": _run_stationary,
    "evolve": _run_evolve,
    "oracle1d": _run_oracle1d,
    "check": _run_check,
    "sweep": _run_sweep,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or the usage and the error
        return 1 if exc.code else 0
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        return COMMANDS[args.command](cfg, args)
    except (NoisyflowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
