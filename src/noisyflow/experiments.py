"""Study runners: stability sweeps, selection and decay.

:func:`run` dispatches a :class:`SweepConfig` on its ``kind`` to one of
the three runners.  Every runner and every CLI command gets its grid,
system and noise from :meth:`SweepConfig.build`, which also refuses a
drift that crosses a reflecting wall.  Each runner performs the study on
the configured grid(s) and returns a :class:`Report` of rows, the fixed
thresholds (one calibration for every run) and named ``verdicts``.  Most
verdicts are recomputable from the stored rows and thresholds alone; the
stability sweep's uniform bounds also read the extremes of the invariant
density u0, which no row holds.  A
row is one dict per epsilon: its leading keys are the study's CSV
columns in file order, and the objects that are not columns
(``ROW_OBJECTS``) follow them.  When
``out_dir`` is set the runner also writes those columns as a CSV file
plus a human-readable summary with one line per verdict.  Runs are
deterministic: assembly order, the solver's fixed ordering and diagonal
pivots, and CSV formatting are all fixed, so a rerun with the same
configuration yields byte-identical artifacts.
"""

from __future__ import annotations

import difflib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .errors import BoundaryError, FitError
from .fields import (
    CATALOG_NAMES,
    ConservativeSystem,
    Noise,
    ScalarForm,
    VectorField,
    builtin_catalog,
    check_catalog_domain,
    construct_selecting_noise,
    coordinate_noise,
    divergence,
)
from .geometry import DomainKind, Grid, build_grid, check_counts, refine_grid
from .evolution import SCHEMES, evolve, fit_decay_rate, perturbed_initial
from .operator import assemble_for
from .reporting import atomic_write_text, verdict_block, write_csv
from .stationary import discrete_w12_seminorm, solve_stationary

FOUR_PI_SQ = 4.0 * math.pi ** 2

#: the selection experiment's second grid has this many times the cells per axis
REFINE_FACTOR = 2


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
        return ConservativeSystem(VectorField(self.drift_forms), self.u0_form, grid)


@dataclass(frozen=True)
class NoiseSpec:
    """Recipe for the noise fields, rebuildable at any resolution.

    kind "coordinate" takes the coordinate fields with zero drift
    correction; "explicit" uses the supplied closed forms.  The selection
    experiment reads neither: :meth:`SweepConfig.build` gives it the noise
    that selects its target.
    """

    kind: str = "coordinate"
    a0_forms: tuple[ScalarForm, ...] | None = None
    ai_forms: tuple[tuple[ScalarForm, ...], ...] | None = None

    # for the benchmark only: bench/workloads.py still passes ``epsilons``, which is ignored
    def build(self, grid: Grid, epsilons=None) -> Noise:
        if self.kind == "coordinate":
            return coordinate_noise(grid)
        if self.kind == "explicit":
            a0 = VectorField(self.a0_forms) if self.a0_forms else VectorField.zero(grid.dim)
            return Noise(a0, tuple(VectorField(c) for c in (self.ai_forms or ())))
        raise ValueError(f"unknown noise kind {self.kind!r}")


NOISE_KINDS = ("coordinate", "explicit")


@dataclass(frozen=True)
class Thresholds:
    """The verdict tolerances: one calibration, the same for every run.

    ``SweepConfig.thresholds`` is this record and every :class:`Report`
    carries it; no file or caller sets a tolerance.  The decay floor
    (rates >= c_floor * eps^2) and the bound factors are artifact
    calibration choices, not constants from the theory, which only
    guarantees existence of such constants.  ``oracle_sup`` is the one
    tolerance no runner reads: it bounds the sup-relative gap between a
    1D finite-volume solve and its closed-form oracle, a solver check
    that the tests and the benchmark's oracle-circle workload make.
    """

    l1_final: float = 0.02
    l1_floor: float = 1e-9
    bound_factor: float = 2.0
    selection_sup: float = 5e-3
    selection_ratio_lo: float = 3.0
    selection_ratio_hi: float = 5.0
    selection_eps_spread: float = 0.10
    selection_floor: float = 1e-9
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
    target: ScalarForm | None = field(default=None, metadata={"kind": "selection"})
    out_dir: str | None = None
    dt_factor: float = 5e-3
    horizon_factor: float = 5.0
    assert_l1_limit: bool = field(default=True, metadata={"kind": "stability"})
    scheme: str = "implicit-euler"
    workers: int = 1
    #: the verdict tolerances: a constant, not a field
    thresholds: ClassVar[Thresholds] = Thresholds()

    def __post_init__(self):
        # the required fields and those that differ from their defaults
        stated = {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) != f.default}
        problems = config_problems(stated)
        if problems:
            raise ValueError("; ".join(f"{name}: {message}" for name, message in problems))

    def grid(self) -> Grid:
        return build_grid(self.domain, self.n)

    def time_steps(self, eps: float) -> tuple[float, float]:
        """(dt, horizon) at ``eps``: the step factors times the time scale 1/(4 pi^2 eps^2)."""
        scale = 1.0 / (eps * eps * FOUR_PI_SQ)
        return self.dt_factor * scale, self.horizon_factor * scale

    def build(self, grid: Grid | None = None) -> tuple[Grid, ConservativeSystem, Noise]:
        """The configured grid, or ``grid``, with its conservative system and noise.

        Under kind = selection the noise is the one that selects ``target``.
        Raises :class:`BoundaryError` unless the drift's normal component
        vanishes on every wall (:meth:`VectorField.check_walls`); every
        study and command builds here.
        """
        grid = self.grid() if grid is None else grid
        if self.kind == "selection":
            noise = construct_selecting_noise(self.target, grid)
        else:
            noise = self.noise.build(grid)
        system = self.system.build(grid)
        system.drift.check_walls(grid)
        return grid, system, noise


#: SweepConfig fields that only one experiment kind reads -> that kind, as each
#: field's ``metadata["kind"]`` declares it; every other field applies under any
#: kind (``evolve`` reads scheme and the step factors from a configuration of any
#: kind).  The config file's [experiment] keys share the names; ``config_problems``
#: holds both to this table.
KIND_KEYS = {f.name: f.metadata["kind"] for f in fields(SweepConfig) if "kind" in f.metadata}


def check_epsilons(eps) -> None:
    """Noise intensities: at least one, all in (0, 1), strictly descending, distinct labels.

    The label ``f"{eps:g}"`` names the decay study's trace files, so two
    values that share it would write one file.  A descending list can
    only repeat a label between neighbours.
    """
    if not eps:
        raise ValueError("expected at least one epsilon")
    if any(not (0.0 < e < 1.0) for e in eps):
        raise ValueError("all epsilons must lie in (0, 1)")
    if any(a <= b for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be descending")
    for a, b in zip(eps, eps[1:]):
        if f"{a:g}" == f"{b:g}":
            raise ValueError(f"epsilons {a!r} and {b!r} share the label {a:g} of their trace files")


def check_name(what: str, value: str, options) -> str:
    """``value`` if it is one of ``options``; otherwise a ValueError naming the nearest one."""
    if value not in options:
        near = difflib.get_close_matches(value, options, n=1)
        hint = f" (nearest: {near[0]})" if near else ""
        raise ValueError(f"unknown {what} {value!r}{hint}")
    return value


def _axes(form: ScalarForm) -> set[int]:
    """The axes that ``form`` and its parts read."""
    parts = [getattr(form, f.name) for f in fields(form)]
    own = {form.axis} if hasattr(form, "axis") else set()
    return own.union(*(_axes(part) for part in parts if isinstance(part, ScalarForm)))


def config_problems(values: dict) -> list[tuple[str, str]]:
    """Every field rule of a :class:`SweepConfig` that ``values`` breaks, as (field, message).

    ``values`` maps the SweepConfig fields a caller states to their
    values; None is a stated value that could not be read, which only
    the rules on presence see.  SweepConfig and
    ``config.parse_config`` both check here, so a configuration that
    constructs is one that parses back.  Spec parts are named
    ``noise.kind``, ``noise.a0_forms``, ``noise.ai_forms``, ``system.catalog``,
    ``system.drift_forms`` and ``system.u0_form``.  Every vector of forms
    holds one form per axis of the domain, every form reads only axes of
    the domain, and a catalog system carries no forms.
    """
    problems = []
    kind, noise, system = values.get("kind"), values.get("noise"), values.get("system")
    domain = values.get("domain")
    noise_kind = noise.kind if noise else None
    checks = [("kind", check_name, "experiment kind", kind, RUNNERS),
              ("scheme", check_name, "scheme", values.get("scheme"), SCHEMES),
              ("noise.kind", check_name, "noise kind", noise_kind, NOISE_KINDS),
              ("system.catalog", check_name, "catalog system", system and system.catalog, CATALOG_NAMES),
              ("system.catalog", check_catalog_domain, system and system.catalog, domain),
              ("epsilons", check_epsilons, values.get("epsilons")),
              ("n", check_counts, domain, values.get("n"))]
    for name, check, *args in checks:
        try:
            if all(arg is not None for arg in args):
                check(*args)
        except ValueError as exc:
            problems.append((name, str(exc)))
    for name in ("dt_factor", "horizon_factor"):
        value = values.get(name)
        if value is not None and not (math.isfinite(value) and value > 0.0):
            problems.append((name, f"must be positive and finite, got {value:g}"))
    if values.get("workers") is not None and values["workers"] < 1:
        problems.append(("workers", f"must be at least 1, got {values['workers']}"))
    if values.get("out_dir") == "":
        problems.append(("out_dir", "must not be empty"))
    if noise_kind == "explicit" and not noise.ai_forms:
        problems.append(("noise.ai_forms", "explicit noise needs at least one diffusion field"))
    inline = system is not None and not system.catalog
    if inline and system.drift_forms is None:
        problems.append(("system.drift_forms", "inline u0 needs the drift components"))
    if inline and system.u0_form is None:
        problems.append(("system.u0_form", "inline drift needs an explicit invariant density u0"))
    if system is not None and system.catalog:
        problems += [(f"system.{name}", "not read beside catalog")
                     for name in ("drift_forms", "u0_form") if getattr(system, name) is not None]
    if domain is not None:
        vectors = [("system.drift_forms", system and system.drift_forms),
                   ("noise.a0_forms", noise and noise.a0_forms),
                   *(("noise.ai_forms", forms) for forms in (noise and noise.ai_forms or ()))]
        problems += [(name, f"need {domain.dim} forms, one per axis, got {len(forms)}")
                     for name, forms in vectors if forms is not None and len(forms) != domain.dim]
        scalars = [("target", values.get("target")), ("system.u0_form", system and system.u0_form),
                   *((name, form) for name, forms in vectors for form in forms or ())]
        problems += dict.fromkeys((name, f"axis {axis} is not an axis of a {domain.dim}-dimensional domain")
                                  for name, form in scalars if form is not None
                                  for axis in _axes(form) if not 0 <= axis < domain.dim)
    if noise_kind == "coordinate":
        problems += [(f"noise.{name}", "not read by [noise] kind = coordinate")
                     for name in ("a0_forms", "ai_forms") if getattr(noise, name)]
    if kind not in RUNNERS:
        return problems
    problems += [(key, f"not read by [experiment] kind = {kind} (only {reader} reads it)")
                 for key, reader in KIND_KEYS.items() if key in values and kind != reader]
    if noise_kind == "explicit" and kind == "selection":
        problems.append(("noise.kind", "[noise] kind = explicit is not read by [experiment] kind = selection "
                                       "(it builds the noise that selects target)"))
    if kind == "selection" and "target" not in values:
        problems.append(("target", "missing [experiment] target"))
    return problems


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
    """Per-epsilon rows of one study, its thresholds and its named verdicts.

    Each row is a dict: the study's CSV columns by name in file order
    (``row["l1_dist_to_u0"]``), then its objects (``ROW_OBJECTS``).
    """

    rows: list[dict]
    thresholds: Thresholds
    verdicts: dict

    def passed(self) -> bool:
        return all(self.verdicts.values())


#: the row keys that hold objects rather than CSV columns; they follow the columns
ROW_OBJECTS = ("report", "fits", "chi2_monotone", "max_mass_drift")


def write_rows(path: str, rows: list[dict]) -> None:
    """The CSV of ``rows``: one column per key that is not in ``ROW_OBJECTS``, in key order."""
    write_csv(path, {key: [row[key] for row in rows] for key in rows[0] if key not in ROW_OBJECTS})


def _report(cfg: SweepConfig, title: str, csv_name: str, rows: list[dict], verdicts: dict) -> Report:
    """The study's report; with ``out_dir`` set, also its CSV and summary."""
    if cfg.out_dir:
        write_rows(os.path.join(cfg.out_dir, csv_name), rows)
        atomic_write_text(os.path.join(cfg.out_dir, "summary.txt"),
                          verdict_block(f"{title} ({_n_label(cfg.n)} cells)", verdicts))
    return Report(rows=rows, thresholds=cfg.thresholds, verdicts=verdicts)


# ---------------------------------------------------------------------------
# stability sweep (uniform bounds and the zero-noise limit)
# ---------------------------------------------------------------------------


def stability_rows(cfg: SweepConfig) -> tuple[list[dict], ConservativeSystem]:
    """One stationary solve per epsilon with its L1 distance to u0, and the system."""
    grid, system, noise = cfg.build()

    def solve_one(eps):
        rep = solve_stationary(assemble_for(system, noise, eps))
        u = rep.density.values
        l1 = float(np.sum(np.abs(u - system.u0)) * grid.cell_volume)
        return dict(eps=eps, n=_n_label(grid.n), min_u=float(u.min()), max_u=float(u.max()),
                    w12=discrete_w12_seminorm(rep.density), residual=rep.residual, l1_dist_to_u0=l1, report=rep)

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
    l1s = [r["l1_dist_to_u0"] for r in rows]
    verdicts = {
        "l1 trend non-increasing (up to floor)": all(
            b <= max(a, thr.l1_floor) for a, b in zip(l1s, l1s[1:])
        ),
        "uniform upper bound":
            max(r["max_u"] for r in rows) <= thr.bound_factor * float(system.u0.max()),
        "uniform lower bound":
            thr.bound_factor * min(r["min_u"] for r in rows) >= float(system.u0.min()),
    }
    if cfg.assert_l1_limit:
        verdicts["final l1 distance"] = l1s[-1] <= thr.l1_final
    return _report(cfg, "stability sweep", "stability.csv", rows, verdicts)


# ---------------------------------------------------------------------------
# selection by noise
# ---------------------------------------------------------------------------


def run_selection(cfg: SweepConfig) -> Report:
    """Build the selecting noise for the target density and verify exact selection.

    The target must make u* B discretely divergence-free on faces.  The
    residual against the target is pure discretization, so it must be
    epsilon-uniform and shrink about fourfold when ``cfg.build`` refines
    the grid by ``REFINE_FACTOR``, unless it is roundoff: at most
    ``selection_floor`` on both grids, or at every epsilon for the spread.
    """
    coarse = cfg.build()
    grid, system, _ = coarse
    flux = system.drift.scaled(cfg.target)
    div_sup = float(np.max(np.abs(divergence(flux, grid))))
    if div_sup > cfg.thresholds.div_target_tol:
        raise BoundaryError(
            f"target is invalid: div(u* B) reaches {div_sup}, above {cfg.thresholds.div_target_tol}"
        )

    fine = cfg.build(refine_grid(grid, REFINE_FACTOR))
    targets = [cfg.target(g.cell_centers()) for g, _, _ in (coarse, fine)]  # eps-free: once per grid
    for target, (g, _, _) in zip(targets, (coarse, fine)):
        target /= np.sum(target) * g.cell_volume

    def solve_one(eps):
        errs = []
        for (_, s, noise), target in zip((coarse, fine), targets):
            rep = solve_stationary(assemble_for(s, noise, eps))
            errs.append(float(np.max(np.abs(rep.density.values - target))))
        err, err_fine = errs
        ratio = err / err_fine if err_fine > 0 else math.inf
        return dict(eps=eps, n=_n_label(grid.n), err_sup=err, err_sup_refined=err_fine, ratio=ratio)

    rows = _map_over_eps(solve_one, cfg.epsilons, cfg.workers)
    thr = cfg.thresholds
    sups, floor = [r["err_sup"] for r in rows], thr.selection_floor
    spread = (max(sups) - min(sups)) / max(min(sups), floor)
    verdicts = {
        "sup error within tolerance": max(sups) <= thr.selection_sup,
        # one refinement by REFINE_FACTOR = 2 shrinks an h^2 error about fourfold; roundoff need not
        "h^2 refinement ratio": all(max(r["err_sup"], r["err_sup_refined"]) <= floor
                                    or thr.selection_ratio_lo <= r["ratio"] <= thr.selection_ratio_hi
                                    for r in rows),
        "eps-uniform residual": max(sups) <= floor or spread <= thr.selection_eps_spread,
    }
    return _report(cfg, "selection by noise", "selection.csv", rows, verdicts)


# ---------------------------------------------------------------------------
# decay-rate study
# ---------------------------------------------------------------------------


def trace_columns(trace) -> dict:
    """The CSV columns of one evolution trace, by name in file order."""
    return dict(t=trace.times, chi2=trace.chi2, mass_drift=trace.mass_drift, min_v=trace.min_v)


def decay_traces(cfg: SweepConfig, system: ConservativeSystem, noise: Noise, eps: float,
                 modes=(1, 2)) -> dict:
    """mode -> (trace, fit): the chi^2 decay from each :func:`perturbed_initial` mode at ``eps``.

    The modes advance as one block by :func:`evolve`, each bitwise as it
    would alone.  Where chi^2 underflows the fit floor, the fit and the
    trace are those of the first half of the horizon.
    """
    op = assemble_for(system, noise, eps)
    stationary = solve_stationary(op).density
    dt, horizon = cfg.time_steps(eps)
    block, _ = evolve(op, [perturbed_initial(stationary, mode=mode) for mode in modes],
                      horizon, dt, scheme=cfg.scheme, stationary=stationary)

    def fitted(trace):
        try:
            return trace, fit_decay_rate(trace)
        except FitError:
            # the half-horizon trace is this one's prefix: same LU, same steps
            half = trace.prefix(max(1, int(round(0.5 * horizon / dt))))
            return half, fit_decay_rate(half)

    return {mode: fitted(block[j]) for j, mode in enumerate(modes)}


def run_decay_study(cfg: SweepConfig) -> Report:
    """Fit chi^2 decay rates across the sweep and check the eps^2 scaling.

    Horizons scale like 1/(4 pi^2 eps^2) so every run decays through
    the same number of e-folds.  Initial-data independence is probed with
    two perturbation modes, both from :func:`decay_traces`; the reported
    rate is the slower one.  Each trace is written as
    ``trace_eps<eps>_mode<mode>.csv`` once both modes have their fits.

    For advective systems prefer scheme = "crank-nicolson": implicit
    Euler damps the rotational part of the spectrum by about omega^2 dt,
    which pollutes the fitted rate well before it violates stability.
    """
    grid, system, noise = cfg.build()

    def study_one(eps):
        traces = decay_traces(cfg, system, noise, eps)
        if cfg.out_dir:
            for mode, (trace, _) in traces.items():
                write_csv(os.path.join(cfg.out_dir, f"trace_eps{eps:g}_mode{mode}.csv"),
                          trace_columns(trace))
        fits = {mode: fit for mode, (_, fit) in traces.items()}
        runs = [trace for trace, _ in traces.values()]
        slower = min(fits.values(), key=lambda f: f.rate)
        t_lo, t_hi = slower.fit_window
        return dict(eps=eps, rate=slower.rate, rate_over_eps2=slower.rate / eps ** 2,
                    r2=slower.r_squared, t_lo=t_lo, t_hi=t_hi, fits=fits,
                    chi2_monotone=all(np.all(np.diff(trace.chi2) <= 1e-12) for trace in runs),
                    max_mass_drift=max(float(trace.mass_drift.max()) for trace in runs))

    rows = _map_over_eps(study_one, cfg.epsilons, cfg.workers)
    thr = cfg.thresholds
    over = [r["rate_over_eps2"] for r in rows]
    spread = (max(over) - min(over)) / min(over) if min(over) > 0 else math.inf
    verdicts = {
        "rates above the eps^2 floor": all(r["rate"] >= thr.c_floor * r["eps"] ** 2 for r in rows),
        "rate/eps^2 spread": spread <= thr.rate_spread,
        "chi^2 monotone": all(r["chi2_monotone"] for r in rows),
        "mass conserved": all(r["max_mass_drift"] <= 1e-12 for r in rows),
    }
    return _report(cfg, "decay study", "decay.csv", rows, verdicts)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


#: [experiment] kind -> its runner; the one list of experiment kinds
RUNNERS = {
    "stability": run_stability_sweep,
    "selection": run_selection,
    "decay": run_decay_study,
}


def run(cfg: SweepConfig) -> Report:
    """Run the study that ``cfg.kind`` names."""
    return RUNNERS[cfg.kind](cfg)
