"""Study runners: stability sweeps, selection, transform, decay, bounded runs.

:func:`run` dispatches a :class:`SweepConfig` on its ``kind`` to one
runner.  Each runner performs the study on the configured grid(s) and
returns a :class:`Report` whose ``verdicts`` dictionary is recomputable
from the stored rows and thresholds.  When ``out_dir`` is set the runner
also writes a fixed-column CSV file plus a human-readable summary with
one line per verdict.  Runs are deterministic: assembly order, the
solver's fixed ordering and diagonal pivots, and CSV formatting are all
fixed, so a rerun with the same configuration yields byte-identical
artifacts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryError, FitError
from .fields import (
    ConservativeSystem,
    NoiseFamily,
    ScalarForm,
    VectorField,
    builtin_catalog,
    construct_selecting_noise,
    coordinate_noise,
    divergence,
    mul,
    transform_div_free,
    Const,
)
from .geometry import DomainKind, Grid, build_grid, refine_grid
from .evolution import DecayFit, evolve, fit_decay_rate, perturbed_initial
from .operator import assemble_for
from .reporting import atomic_write_text, verdict_block, write_csv
from .stationary import StationaryReport, oracle_1d_interval, solve_stationary

FOUR_PI_SQ = 4.0 * math.pi ** 2


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemSpec:
    """Recipe for a conservative system, rebuildable at any resolution."""

    catalog: str | None = None
    drift_forms: tuple[ScalarForm, ...] | None = None
    u0_form: ScalarForm | None = None

    def build(self, grid: Grid) -> ConservativeSystem:
        if self.catalog:
            return builtin_catalog(self.catalog, grid)
        if self.drift_forms is None or self.u0_form is None:
            raise ValueError("inline system needs both drift components and u0")
        return ConservativeSystem(VectorField(self.drift_forms), self.u0_form, grid)


@dataclass(frozen=True)
class NoiseSpec:
    """Recipe for a noise family.

    kind "coordinate" takes the coordinate fields with zero drift
    correction; "explicit" uses the supplied closed forms; "selection"
    defers to the experiment target density.
    """

    kind: str = "coordinate"
    a0_forms: tuple[ScalarForm, ...] | None = None
    ai_forms: tuple[tuple[ScalarForm, ...], ...] | None = None

    def build(self, grid: Grid, epsilons) -> NoiseFamily:
        if self.kind == "coordinate":
            return coordinate_noise(grid, epsilons)
        if self.kind == "explicit":
            a0 = VectorField(self.a0_forms) if self.a0_forms else VectorField.zero(grid.dim)
            ai = [VectorField(c) for c in (self.ai_forms or ())]
            return NoiseFamily(len(ai), a0, ai, epsilons)
        raise ValueError(f"noise spec kind {self.kind!r} cannot be built directly")


@dataclass(frozen=True)
class Thresholds:
    """Pass/fail knobs; recorded in every report for auditability.

    The decay floor (rates >= c_floor * eps^2) and the bound factors are
    artifact calibration choices, not constants from the theory, which
    only guarantees existence of such constants.
    """

    l1_final: float = 0.02
    l1_floor: float = 1e-9
    bound_factor: float = 2.0
    selection_sup: float = 5e-3
    selection_ratio_lo: float = 3.0
    selection_ratio_hi: float = 5.0
    selection_eps_spread: float = 0.10
    transform_sup: float = 5e-3
    c_floor: float = 1.0
    rate_spread: float = 0.5
    oracle_sup: float = 1e-3
    div_target_tol: float = 1e-10


@dataclass(frozen=True)
class SweepConfig:
    kind: str
    domain: DomainKind
    n: tuple[int, ...]
    epsilons: tuple[float, ...]
    system: SystemSpec = SystemSpec(catalog="zero-drift")
    noise: NoiseSpec = NoiseSpec()
    target: ScalarForm | None = None
    out_dir: str | None = None
    thresholds: Thresholds = Thresholds()
    dt_factor: float = 5e-3
    horizon_factor: float = 5.0
    rate_guess: float = FOUR_PI_SQ
    refine_factor: int = 2
    assert_l1_limit: bool = True
    scheme: str = "implicit-euler"
    workers: int = 1
    admissibility_p: float | None = None

    def __post_init__(self):
        if not self.epsilons:
            raise ValueError("epsilons must be nonempty")
        if any(a <= b for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ValueError("epsilons must be strictly decreasing")
        if any(k < 4 for k in self.n):
            raise ValueError("grid resolution must be at least 4 cells per axis")

    def grid(self) -> Grid:
        return build_grid(self.domain, self.n)

    def build(self) -> tuple[Grid, ConservativeSystem, NoiseFamily]:
        """The configured grid with its conservative system and noise family."""
        grid = self.grid()
        return grid, self.system.build(grid), self.noise.build(grid, self.epsilons)


def _n_label(n) -> str:
    return "x".join(str(k) for k in n)


def _map_over_eps(fn, epsilons, workers: int):
    """Per-epsilon work pool with a deterministic ordered reduce.

    Tasks are independent (each builds its own operator and
    factorization); results are collected in epsilon order so reports
    and CSV artifacts are identical for any pool size.
    """
    if workers <= 1 or len(epsilons) <= 1:
        return [fn(eps) for eps in epsilons]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, epsilons))


@dataclass
class Report:
    """Per-epsilon rows of one study, its thresholds and its named verdicts."""

    rows: list
    thresholds: Thresholds
    verdicts: dict

    def passed(self) -> bool:
        return all(self.verdicts.values())


def _report(cfg: SweepConfig, title: str, csv_name: str, header: list[str],
            rows: list, verdicts: dict) -> Report:
    """The study's report; with ``out_dir`` set, also its CSV and summary."""
    if cfg.out_dir:
        write_csv(os.path.join(cfg.out_dir, csv_name), header, [r.cells() for r in rows])
        atomic_write_text(os.path.join(cfg.out_dir, "summary.txt"),
                          verdict_block(f"{title} ({_n_label(cfg.n)} cells)", verdicts))
    return Report(rows=rows, thresholds=cfg.thresholds, verdicts=verdicts)


# ---------------------------------------------------------------------------
# stability sweep (uniform bounds and the zero-noise limit)
# ---------------------------------------------------------------------------


@dataclass
class StationaryRow:
    eps: float
    n: tuple[int, ...]
    report: StationaryReport
    l1_to_u0: float

    def cells(self) -> tuple:
        r = self.report
        return (self.eps, _n_label(self.n), r.min_u, r.max_u, r.w12_seminorm, r.residual,
                self.l1_to_u0)


STABILITY_HEADER = ["eps", "n", "min_u", "max_u", "w12", "residual", "l1_dist_to_u0"]


def stability_rows(cfg: SweepConfig) -> tuple[list[StationaryRow], ConservativeSystem]:
    """One stationary solve per epsilon with its L1 distance to u0, and the system."""
    grid, system, family = cfg.build()

    def solve_one(eps):
        rep = solve_stationary(assemble_for(system, family, eps))
        l1 = float(np.sum(np.abs(rep.density.values - system.u0)) * grid.cell_volume)
        return StationaryRow(eps=eps, n=grid.n, report=rep, l1_to_u0=l1)

    return _map_over_eps(solve_one, cfg.epsilons, cfg.workers), system


def run_stability_sweep(cfg: SweepConfig) -> Report:
    """Per-epsilon stationary solves with L1 distance to the invariant density.

    Verdicts: the L1 distance trend is non-increasing up to the floor,
    the final distance is below the configured value (skipped when the
    limit is not asserted, e.g. non-ergodic drifts), and the min/max
    bounds stay within a configured factor of the invariant density's own
    bounds across the whole sweep.
    """
    rows, system = stability_rows(cfg)
    thr = cfg.thresholds
    l1s = [r.l1_to_u0 for r in rows]
    verdicts = {
        "l1 trend non-increasing (up to floor)": all(
            b <= max(a, thr.l1_floor) for a, b in zip(l1s, l1s[1:])
        ),
        "uniform upper bound":
            max(r.report.max_u for r in rows) <= thr.bound_factor * float(system.u0.max()),
        "uniform lower bound":
            max(1.0 / r.report.min_u for r in rows) <= thr.bound_factor / float(system.u0.min()),
    }
    if cfg.assert_l1_limit:
        verdicts["final l1 distance"] = l1s[-1] <= thr.l1_final
    return _report(cfg, "stability sweep", "stability.csv", STABILITY_HEADER, rows, verdicts)


# ---------------------------------------------------------------------------
# selection by noise
# ---------------------------------------------------------------------------


@dataclass
class SelectionRow:
    eps: float
    n: tuple[int, ...]
    err_sup: float
    err_sup_refined: float
    ratio: float

    def cells(self) -> tuple:
        return (self.eps, _n_label(self.n), self.err_sup, self.err_sup_refined, self.ratio)


SELECTION_HEADER = ["eps", "n", "err_sup", "err_sup_refined", "ratio"]


def run_selection(cfg: SweepConfig) -> Report:
    """Build the selecting noise for the target density and verify exact selection.

    The target must make u* B discretely divergence-free on faces.  The
    residual against the target is pure discretization, so it must be
    epsilon-uniform and shrink about fourfold under one refinement.
    """
    if cfg.target is None:
        raise ValueError("selection experiment needs a target density form")
    grid = cfg.grid()
    system = cfg.system.build(grid)
    flux = VectorField([mul(cfg.target, c) for c in system.drift.components])
    div_sup = float(np.max(np.abs(divergence(flux, grid))))
    if div_sup > cfg.thresholds.div_target_tol:
        raise BoundaryError(
            f"target is invalid: div(u* B) reaches {div_sup}, above {cfg.thresholds.div_target_tol}"
        )

    fine = refine_grid(grid, cfg.refine_factor)
    fine_system = cfg.system.build(fine)
    families = {
        g: construct_selecting_noise(cfg.target, g, cfg.epsilons) for g in (grid, fine)
    }

    def solve_one(eps):
        errs = {}
        for g, s in ((grid, system), (fine, fine_system)):
            rep = solve_stationary(assemble_for(s, families[g], eps))
            target = cfg.target(g.cell_centers())
            target /= np.sum(target) * g.cell_volume
            errs[g] = float(np.max(np.abs(rep.density.values - target)))
        ratio = errs[grid] / errs[fine] if errs[fine] > 0 else math.inf
        return SelectionRow(eps=eps, n=grid.n, err_sup=errs[grid],
                            err_sup_refined=errs[fine], ratio=ratio)

    rows = _map_over_eps(solve_one, cfg.epsilons, cfg.workers)
    thr = cfg.thresholds
    sups = [r.err_sup for r in rows]
    spread = (max(sups) - min(sups)) / max(min(sups), 1e-300)
    expected_ratio = float(cfg.refine_factor ** 2)
    lo = thr.selection_ratio_lo * expected_ratio / 4.0
    hi = thr.selection_ratio_hi * expected_ratio / 4.0
    verdicts = {
        "sup error within tolerance": max(sups) <= thr.selection_sup,
        "h^2 refinement ratio": all(lo <= r.ratio <= hi for r in rows),
        "eps-uniform residual": spread <= thr.selection_eps_spread,
    }
    return _report(cfg, "selection by noise", "selection.csv", SELECTION_HEADER, rows, verdicts)


# ---------------------------------------------------------------------------
# transform consistency
# ---------------------------------------------------------------------------


@dataclass
class TransformRow:
    eps: float
    n: tuple[int, ...]
    sup_diff: float

    def cells(self) -> tuple:
        return (self.eps, _n_label(self.n), self.sup_diff)


TRANSFORM_HEADER = ["eps", "n", "sup_diff"]


def run_transform_consistency(cfg: SweepConfig) -> Report:
    """Solve the original and the divergence-free transformed system.

    The transformed stationary density must match u_eps / u0 (normalized
    to unit mass; the raw ratio integrates to 1 + O(eps^2)) up to a
    discretization-level tolerance.
    """
    grid, system, family = cfg.build()
    new_drift, new_family = transform_div_free(system, family)
    transformed = ConservativeSystem(new_drift, Const(1.0), grid,
                                     name=f"{system.name or 'system'}-transformed")

    def solve_one(eps):
        u = solve_stationary(assemble_for(system, family, eps)).density
        u_t = solve_stationary(assemble_for(transformed, new_family, eps)).density
        ratio = u.values / system.u0
        ratio /= np.sum(ratio) * grid.cell_volume
        return TransformRow(eps=eps, n=grid.n, sup_diff=float(np.max(np.abs(u_t.values - ratio))))

    rows = _map_over_eps(solve_one, cfg.epsilons, cfg.workers)
    verdicts = {"transformed density matches u_eps/u0":
                max(r.sup_diff for r in rows) <= cfg.thresholds.transform_sup}
    return _report(cfg, "transform consistency", "transform.csv", TRANSFORM_HEADER, rows, verdicts)


# ---------------------------------------------------------------------------
# decay-rate study
# ---------------------------------------------------------------------------


@dataclass
class DecayStudyRow:
    eps: float
    fit: DecayFit
    fits_by_mode: dict
    chi2_monotone: bool
    max_mass_drift: float

    def cells(self) -> tuple:
        f = self.fit
        return (self.eps, f.rate, f.rate_over_eps2, f.r_squared, f.fit_window[0], f.fit_window[1])


DECAY_HEADER = ["eps", "rate", "rate_over_eps2", "r2", "t_lo", "t_hi"]
TRACE_HEADER = ["t", "chi2", "mass_drift", "min_v"]


def trace_cells(trace) -> list[tuple]:
    """The rows of a ``TRACE_HEADER`` CSV for one evolution trace."""
    return list(zip(trace.times, trace.chi2, trace.mass_drift, trace.min_v))


def run_decay_study(cfg: SweepConfig) -> Report:
    """Fit chi^2 decay rates across the sweep and check the eps^2 scaling.

    Horizons scale like 1/(eps^2 rate_guess) so every run decays through
    the same number of e-folds.  Initial-data independence is probed with
    two perturbation modes; the reported rate is the slower one.  Both
    modes are advanced as one block by :func:`evolve`: each eps factorizes
    its step matrix once and pays one two-column solve per solve, and
    each mode's trace is bitwise the one a run of its own would give.  If
    chi^2 underflows the fit floor the fit is retried once on the first
    half of the trace, which equals a run to half the horizon.  Each
    trace is written as ``trace_eps<eps>_mode<mode>.csv``.

    For advective systems prefer scheme = "crank-nicolson": implicit
    Euler damps the rotational part of the spectrum by about omega^2 dt,
    which pollutes the fitted rate well before it violates stability.
    """
    grid, system, family = cfg.build()

    def study_one(eps):
        op = assemble_for(system, family, eps)
        stationary = solve_stationary(op).density
        scale = 1.0 / (eps * eps * cfg.rate_guess)
        horizon = cfg.horizon_factor * scale
        dt = cfg.dt_factor * scale
        fits = {}
        monotone = True
        drift_max = 0.0
        modes = (1, 2)
        block, _ = evolve(op, [perturbed_initial(stationary, mode=mode) for mode in modes],
                          horizon, dt, scheme=cfg.scheme, stationary=stationary)
        for j, mode in enumerate(modes):
            trace = block[j]
            try:
                fits[mode] = fit_decay_rate(trace)
            except FitError:
                # the half-horizon trace is this one's prefix: same LU, same steps
                trace = trace.prefix(max(1, int(round(0.5 * horizon / dt))))
                fits[mode] = fit_decay_rate(trace)
            monotone = monotone and bool(np.all(np.diff(trace.chi2) <= 1e-12))
            drift_max = max(drift_max, float(trace.mass_drift.max()))
            if cfg.out_dir:
                write_csv(os.path.join(cfg.out_dir, f"trace_eps{eps:g}_mode{mode}.csv"),
                          TRACE_HEADER, trace_cells(trace))
        slower = min(fits.values(), key=lambda f: f.rate)
        return DecayStudyRow(eps=eps, fit=slower, fits_by_mode=fits,
                             chi2_monotone=monotone, max_mass_drift=drift_max)

    rows = _map_over_eps(study_one, cfg.epsilons, cfg.workers)
    thr = cfg.thresholds
    over = [r.fit.rate_over_eps2 for r in rows]
    spread = (max(over) - min(over)) / min(over) if min(over) > 0 else math.inf
    verdicts = {
        "rates above the eps^2 floor": all(r.fit.rate >= thr.c_floor * r.eps ** 2 for r in rows),
        "rate/eps^2 spread": spread <= thr.rate_spread,
        "chi^2 monotone": all(r.chi2_monotone for r in rows),
        "mass conserved": all(r.max_mass_drift <= 1e-12 for r in rows),
    }
    return _report(cfg, "decay study", "decay.csv", DECAY_HEADER, rows, verdicts)


# ---------------------------------------------------------------------------
# bounded domains
# ---------------------------------------------------------------------------


@dataclass
class BoundedRow:
    eps: float
    n: tuple[int, ...]
    report: StationaryReport
    oracle_sup: float | None

    def cells(self) -> tuple:
        r = self.report
        return (self.eps, _n_label(self.n), r.min_u, r.max_u, r.w12_seminorm, r.residual,
                self.oracle_sup if self.oracle_sup is not None else "")


BOUNDED_HEADER = ["eps", "n", "min_u", "max_u", "w12", "residual", "oracle_sup"]


def run_bounded_domain(cfg: SweepConfig) -> Report:
    """Zero-flux stationary solves on an interval or rectangle.

    The drift's normal component must vanish on the boundary.  In one
    dimension each solve is cross-checked against the closed-form
    interval oracle.
    """
    grid, system, family = cfg.build()
    if all(grid.periodic):
        raise ValueError("bounded-domain experiment needs an interval or rectangle")
    for axis in range(grid.dim):
        lo, hi = system.drift.normal_at_boundary(grid, axis)
        worst = max(
            float(np.max(np.abs(lo))) if len(lo) else 0.0,
            float(np.max(np.abs(hi))) if len(hi) else 0.0,
        )
        if worst > 1e-12:
            raise BoundaryError(f"drift normal component reaches {worst} on the axis-{axis} boundary")

    def solve_one(eps):
        rep = solve_stationary(assemble_for(system, family, eps))
        oracle_sup = None
        if grid.dim == 1:
            oracle = oracle_1d_interval(system.drift, family.a0(eps), family.ai(eps), eps, grid)
            oracle_sup = float(np.max(np.abs(rep.density.values - oracle)) / np.max(np.abs(oracle)))
        return BoundedRow(eps=eps, n=grid.n, report=rep, oracle_sup=oracle_sup)

    rows = _map_over_eps(solve_one, cfg.epsilons, cfg.workers)
    verdicts = {"positive density": all(r.report.min_u > 0 for r in rows)}
    if grid.dim == 1:
        verdicts["matches interval oracle"] = all(
            r.oracle_sup <= cfg.thresholds.oracle_sup for r in rows)
    return _report(cfg, "bounded domain", "bounded.csv", BOUNDED_HEADER, rows, verdicts)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def run(cfg: SweepConfig) -> Report:
    """Run the study that ``cfg.kind`` names."""
    runners = {
        "stability": run_stability_sweep,
        "selection": run_selection,
        "transform": run_transform_consistency,
        "decay": run_decay_study,
        "bounded": run_bounded_domain,
    }
    if cfg.kind not in runners:
        raise ValueError(f"unknown experiment kind {cfg.kind!r}; choose from {', '.join(runners)}")
    return runners[cfg.kind](cfg)
