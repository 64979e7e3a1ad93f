"""Seeded workload inputs, entry points and correctness checks.

Each workload is closed-loop: one entry-point call at a time in one
single-threaded process.  The seed and the repetition index pick only the
drift's phase and one factor within +-10% that scales every nominal
epsilon.  One common factor keeps the ratios between the epsilons, which
the decay study's rate/eps^2 spread verdict depends on: jittering them
independently to (0.44, 0.18) fails that verdict.  Grid sizes, call and
step counts and the operator's sparsity pattern do not depend on the
seed.  The stationary LU fill does, by up to ~10%: the program replaces
the row of the largest diagonal entry and SuperLU pivots by value, and
both move with the phase.  So the repetitions of one run walk a
low-discrepancy sequence (the R2 sequence for the two phases, the golden
ratio one for the factor) from a start the seed picks: any run's first
k repetitions spread evenly over the phases and factors, and its median
hardly depends on the seed.  The program receives only the generated
INI text.

Why each workload exists, and the layer expected to dominate it:

stationary-torus  CLI ``sweep`` on a 160^2 cellular flow.  SuperLU
                  factorization of the row-replaced generator dominates
                  (expected: stationary.factorize_s), so ordering and
                  pivoting changes show here.
decay-torus       ``run_decay_study`` on a 40^2 shear flow with
                  Crank-Nicolson: 8000 small triangular solves against six
                  factorizations (expected: evolution.trisolve_s).
oracle-circle     FV solve against the closed-form circle oracle at
                  n = 2^15: the pure-Python backward recurrence and the
                  stationary self time dominate, 1D factorization is cheap
                  (expected: stationary.oracle_s).

The functions below ``make_ini`` run in the child process.  Checks
re-read the artifacts with the fixed headers of the README schema table
rather than trusting the program's own verdicts alone.
"""

from __future__ import annotations

import hashlib
import math
import os
import random

# Fixed CSV headers from the README schema table.
STABILITY_HEADER = "eps,n,min_u,max_u,w12,residual,l1_dist_to_u0"
DECAY_HEADER = "eps,rate,rate_over_eps2,r2,t_lo,t_hi"
TRACE_HEADER = "t,chi2,mass_drift,min_v"

# Accuracy gates; an operation that misses one counts as failed.
RESIDUAL_GATE = 1e-8
MASS_DRIFT_GATE = 1e-12
CHI2_INCREASE_GATE = 1e-12

# name -> (grid cells per axis, nominal epsilons)
# Sizes keep one entry-point call near 1-3 s, so a 40 s run holds 10-16
# repetitions and its median resists the bursts of contention on a shared
# machine.  The dominant layer is the same as at 256^2, 64^2 and 2^17.
WORKLOADS = {
    "stationary-torus": (160, (0.4, 0.2, 0.1)),
    "decay-torus": (40, (0.4, 0.2)),
    "oracle-circle": (2 ** 15, (0.4, 0.2, 0.1, 0.05)),
}


def _trig(fn: str, axis: int, amp: float, offset: float, phase: float) -> str:
    return f"{fn}:axis={axis},freq=1,amp={amp!r},offset={offset!r},phase={phase!r}"


# Per-repetition steps of the low-discrepancy sequence: R2 (1/g, 1/g^2 with
# g^3 = g + 1) for the two phases, the golden ratio conjugate for the factor.
_STEPS = (0.7548776662466927, 0.5698402909980532, 0.6180339887498949)


def make_ini(workload: str, seed: int, rep: int, n: int | None = None) -> str:
    """The INI text of one repetition; ``n`` overrides the grid size."""
    size, nominal = WORKLOADS[workload]
    n = size if n is None else n
    rng = random.Random(f"{workload}:{seed}")
    start = [rng.random() for _ in _STEPS]
    u = [(a + rep * b) % 1.0 for a, b in zip(start, _STEPS)]
    phase = [2.0 * math.pi * u[0], 2.0 * math.pi * u[1]]
    factor = 0.9 + 0.2 * u[2]
    eps = [e * factor for e in nominal]
    if workload == "stationary-torus":
        # curl of sin(2 pi x + px) sin(2 pi y + py) / 2 pi: exactly divergence-free
        # on faces, so the uniform density is the invariant one
        sx, cy = _trig("sin", 0, 1.0, 0.0, phase[0]), _trig("cos", 1, 1.0, 0.0, phase[1])
        cx, sy = _trig("cos", 0, -1.0, 0.0, phase[0]), _trig("sin", 1, 1.0, 0.0, phase[1])
        domain = "kind = torus2\nlengths = 1.0, 1.0"
        drift = f"bx = product({sx}; {cy})\nby = product({cx}; {sy})\nu0 = const:1"
        experiment = "kind = stability\nassert_l1_limit = false"
    elif workload == "decay-torus":
        domain = "kind = torus2\nlengths = 1.0, 1.0"
        drift = f"bx = {_trig('cos', 1, 1.0, 2.0, phase[0])}\nby = const:0\nu0 = const:1"
        experiment = "kind = decay\nscheme = crank-nicolson"
    else:
        b = _trig("sin", 0, 1.0, 2.0, phase[0])
        domain = "kind = circle\nlength = 1.0"
        drift = f"bx = {b}\nu0 = product(rsqrt({b}); rsqrt({b}))"
        experiment = "kind = stability"
    return f"""[domain]
{domain}
n = {n}

[drift]
{drift}

[noise]
kind = coordinate
eps = {", ".join(repr(e) for e in eps)}

[experiment]
{experiment}
workers = 1
"""


# ---------------------------------------------------------------------------
# child side: entry points and checks
# ---------------------------------------------------------------------------


def run_entry(workload: str, cfg, ini_path: str, out_dir: str, inject: float = 0.0):
    """The timed entry-point call; returns what the check needs."""
    if workload == "stationary-torus":
        from noisyflow import cli

        return cli.main(["sweep", "--config", ini_path, "--out", out_dir, "--quiet"])
    if workload == "decay-torus":
        from dataclasses import replace

        from noisyflow import experiments

        return experiments.run_decay_study(replace(cfg, out_dir=out_dir))
    if workload == "oracle-circle":
        return _oracle_circle(cfg, inject)
    raise ValueError(f"unknown workload {workload!r}")


def _oracle_circle(cfg, inject: float):
    """FV stationary solve and closed-form oracle for each epsilon.

    Returns per-epsilon (sup-relative gap, result bytes) or the exception.
    ``inject`` scales the oracle by 1 + inject, which only the smoke test
    sets, to prove the accuracy gate fires.
    """
    import numpy as np

    from noisyflow import operator, stationary

    grid = cfg.grid()
    system = cfg.system.build(grid)
    family = cfg.noise.build(grid, cfg.epsilons)
    results = []
    for eps in cfg.epsilons:
        try:
            rep = stationary.solve_stationary(operator.assemble_for(system, family, eps))
            oracle, _ = stationary.oracle_1d_circle(system.drift, family.a0(eps), family.ai(eps),
                                                    eps, grid)
            oracle = oracle * (1.0 + inject)
            gap = float(np.max(np.abs(rep.density.values - oracle)) / np.max(np.abs(oracle)))
            results.append((gap, rep.density.values.tobytes() + oracle.tobytes()))
        except Exception as exc:  # an exception fails this epsilon only
            results.append(exc)
    return results


def _read_csv(path: str, header: str):
    """Rows of a CSV split into fields, or None when missing or misheaded."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        return None
    return [line.split(",") for line in lines[1:]]


def _summary_passed(out_dir: str) -> bool:
    path = os.path.join(out_dir, "summary.txt")
    if not os.path.exists(path):
        return False
    with open(path) as fh:
        text = fh.read()
    return "[FAIL]" not in text and "overall: PASS" in text


def _digest_files(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check(workload: str, cfg, outcome, out_dir: str):
    """Per-epsilon pass/fail list and a digest of the results.

    One operation is one epsilon: a solve, a decay trace pair, or an
    oracle comparison.
    """
    eps = list(cfg.epsilons)
    if isinstance(outcome, Exception):
        return [False] * len(eps), ""
    if workload == "stationary-torus":
        if outcome != 0 or not _summary_passed(out_dir):
            return [False] * len(eps), _digest_files(out_dir)
        rows = _read_csv(os.path.join(out_dir, "stability.csv"), STABILITY_HEADER) or []
        label = "x".join(str(k) for k in cfg.n)
        ok = [False] * len(eps)
        if len(rows) == len(eps):
            for i, row in enumerate(rows):
                ok[i] = (float(row[0]) == eps[i] and row[1] == label and float(row[2]) > 0.0
                         and float(row[5]) <= RESIDUAL_GATE)
        return ok, _digest_files(out_dir)
    if workload == "decay-torus":
        rows = _read_csv(os.path.join(out_dir, "decay.csv"), DECAY_HEADER) or []
        passed = outcome.passed() and _summary_passed(out_dir) and len(rows) == len(eps)
        ok = []
        for i, e in enumerate(eps):
            good = passed and float(rows[i][0]) == e
            for mode in (1, 2):
                trace = _read_csv(os.path.join(out_dir, f"trace_eps{e:g}_mode{mode}.csv"),
                                  TRACE_HEADER)
                if not trace or len(trace) < 2:
                    good = False
                    continue
                chi2 = [float(r[1]) for r in trace]
                good = good and max(float(r[2]) for r in trace) <= MASS_DRIFT_GATE
                good = good and all(b - a <= CHI2_INCREASE_GATE for a, b in zip(chi2, chi2[1:]))
            ok.append(good)
        return ok, _digest_files(out_dir)
    if workload == "oracle-circle":
        gate = cfg.thresholds.oracle_sup
        h = hashlib.sha256()
        ok = []
        for res in outcome:
            if isinstance(res, Exception):
                ok.append(False)
                continue
            gap, data = res
            h.update(data)
            ok.append(gap <= gate)
        return ok, h.hexdigest()
    raise ValueError(f"unknown workload {workload!r}")
