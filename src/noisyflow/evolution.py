"""Cauchy-problem integration and chi^2 decay measurement.

Implicit Euler is the default stepper: combined with the nonnegative
off-diagonal structure of the assembled operator, (I - dt M) is an
M-matrix, so steps preserve nonnegativity unconditionally.  Mass is
conserved by the zero-column-sum structure; one iterative-refinement
pass per step keeps the algebraic mass error at the roundoff of the
column sums rather than of the LU solve.  Crank-Nicolson is available
behind a flag for rate-accuracy studies (halved temporal bias, no
positivity guarantee).

:func:`evolve` advances one density or a block of them with one
factorization of the step matrix, one multi-RHS triangular solve per
solve and one sparse product per product; the decay study sends both
of its perturbation modes through one call per eps.  The refinement
pass doubles the cost of a step and stays for a measured reason:
without it the 40^2 Crank-Nicolson decay benchmark takes about half
the CPU time, but the 32-cell zero-drift circle decay (eps 0.5 and
0.25, implicit Euler, horizon factor 40) drifts in mass by 1.35e-12,
over the decay study's 1e-12 gate; with the pass it drifts by 6.7e-13.

The chi^2 distance is measured against the operator's own discrete
stationary density.  With that pairing the distance is provably
non-increasing along both continuous time and implicit Euler steps for
any conservative matrix with nonnegative off-diagonal rates, which the
test suite asserts step by step.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import FitError, PositivityError, SolveError
from .fields import NoiseFamily, Trig, diffusion_matrix
from .geometry import Grid
from .operator import FokkerPlanckOperator
from .stationary import Density, factorize, solve_stationary

#: chi^2 values below this are treated as roundoff and excluded from fits.
CHI2_FLOOR = 1e-13


@dataclass
class EvolutionTrace:
    """Per-step record of a Cauchy evolution, or of a block of them.

    ``times`` is 1D and shared.  The other arrays have shape
    (nsteps + 1,) for one evolution and (k, nsteps + 1) for a block of k,
    whose member j is ``trace[j]``.
    """

    times: np.ndarray
    chi2: np.ndarray
    mass_drift: np.ndarray
    min_v: np.ndarray
    eps: float | None = None

    def __getitem__(self, j: int) -> "EvolutionTrace":
        """The trace of block member ``j``."""
        return EvolutionTrace(times=self.times, chi2=self.chi2[j], mass_drift=self.mass_drift[j],
                              min_v=self.min_v[j], eps=self.eps)

    def prefix(self, nsteps: int) -> "EvolutionTrace":
        """The record of the first ``nsteps`` steps."""
        keep = slice(0, nsteps + 1)
        return EvolutionTrace(times=self.times[keep], chi2=self.chi2[..., keep],
                              mass_drift=self.mass_drift[..., keep],
                              min_v=self.min_v[..., keep], eps=self.eps)


@dataclass
class DecayFit:
    rate: float
    rate_over_eps2: float | None
    fit_window: tuple[float, float]
    r_squared: float
    samples: int


def _require_positive(u: Density) -> None:
    if np.any(u.values <= 0.0):
        raise PositivityError("chi^2 reference density must be strictly positive")


def chi_squared(v: Density, u: Density) -> float:
    """chi^2 divergence sum (v_i/u_i - 1)^2 u_i vol_i; zero iff v == u."""
    _require_positive(u)
    ratio = v.values / u.values - 1.0
    return float(np.sum(ratio * ratio * u.values) * u.grid.cell_volume)


def evolve(op: FokkerPlanckOperator, v0: Density | Sequence[Density], horizon: float,
           dt: float, scheme: str = "implicit-euler", stationary: Density | None = None):
    """Integrate dv/dt = M v to the horizon; returns (trace, final).

    ``v0`` is one density or a block of k of them.  A block is advanced
    together: the step matrix (I - dt M), or (I - dt/2 M) under
    Crank-Nicolson, is factorized once by :func:`stationary.factorize`
    (fill-reducing ordering, diagonal pivots: it is strictly column
    diagonally dominant), and every step costs one multi-RHS solve per
    solve and one sparse product per product, for all k columns at once.  The trace then holds (k, nsteps + 1) arrays
    of chi^2, mass drift and min v, ``trace[j]`` is member j's own trace,
    and ``final`` is the list of the k final densities.  A single density
    is the k = 1 block, returned as a 1D trace and one density.  Each
    column is bitwise what its own single run gives: the solves and the
    products treat the columns independently, and the per-step statistics
    are reduced along contiguous rows.

    chi^2 against the stationary density, the mass drift |sum v vol - 1|
    and min v are recorded at every step including t = 0.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    single = isinstance(v0, Density)
    members = [v0] if single else list(v0)
    if not members:
        raise ValueError("empty block of initial densities")
    if any(member.grid is not op.grid for member in members):
        raise ValueError("initial density lives on a different grid")
    if scheme not in ("implicit-euler", "crank-nicolson"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if stationary is None:
        stationary = solve_stationary(op).density
    _require_positive(stationary)

    grid = op.grid
    m = op.matrix
    eye = sp.identity(grid.ncells, format="csr")
    if scheme == "implicit-euler":
        lhs = (eye - dt * m).tocsc()
        rhs_mat = None
    else:
        lhs = (eye - 0.5 * dt * m).tocsc()
        rhs_mat = (eye + 0.5 * dt * m).tocsr()
    try:
        lu = factorize(lhs, grid.dim)
    except RuntimeError as exc:
        raise SolveError(f"time-step factorization failed: {exc}") from exc

    nsteps = max(1, int(round(horizon / dt)))
    k = len(members)
    times = dt * np.arange(nsteps + 1)
    chi2 = np.empty((k, nsteps + 1))
    mass_drift = np.empty((k, nsteps + 1))
    min_v = np.empty((k, nsteps + 1))
    u = stationary.values
    vol = grid.cell_volume

    def record(step, v):
        # statistics on the C-contiguous (k, n) rows: a reduction along a
        # contiguous row sums exactly as the 1D reduction of that member
        rows = np.ascontiguousarray(v.T)
        lowest = rows.min(axis=1)
        if lowest.min() < -1e-10:
            raise SolveError(
                f"negative component {float(lowest.min())} at step {step} "
                "(cross-diffusion or an unstable scheme choice)"
            )
        ratio = rows / u - 1.0
        chi2[:, step] = np.sum(ratio * ratio * u, axis=1) * vol
        mass_drift[:, step] = np.abs(np.sum(rows, axis=1) * vol - 1.0)
        min_v[:, step] = lowest
        return rows

    v = np.array([member.values for member in members]).T  # (n, k), one column per member
    rows = record(0, v)
    for step in range(1, nsteps + 1):
        rhs = v if rhs_mat is None else rhs_mat @ v
        v = lu.solve(rhs)
        # one refinement pass: residual is re-solved so the algebraic error
        # (and with it the mass drift) sits at column-sum roundoff
        v += lu.solve(rhs - (lhs @ v))
        rows = record(step, v)

    trace = EvolutionTrace(times=times, chi2=chi2, mass_drift=mass_drift,
                           min_v=min_v, eps=op.eps)
    finals = [Density.normalized(np.clip(row, 0.0, None), grid) for row in rows]
    return (trace[0], finals[0]) if single else (trace, finals)


def fit_decay_rate(trace: EvolutionTrace, window: tuple[float, float] = (0.2, 0.8)) -> DecayFit:
    """Least-squares exponential rate of chi^2 over a central time window.

    Only samples with chi^2 above the roundoff floor enter the fit; at
    least 10 are required.  The rate is minus the slope of log chi^2
    against t.
    """
    lo, hi = window
    horizon = trace.times[-1]
    t_lo, t_hi = lo * horizon, hi * horizon
    inside = (trace.times >= t_lo) & (trace.times <= t_hi)
    usable = inside & (trace.chi2 > CHI2_FLOOR)
    if not np.any(inside):
        raise FitError("empty fit window")
    if np.count_nonzero(usable) < 10:
        if np.count_nonzero(inside & (trace.chi2 <= CHI2_FLOOR)) > 0:
            raise FitError("chi^2 underflowed the floor across the window; shorten the horizon")
        raise FitError(f"need at least 10 usable samples, got {np.count_nonzero(usable)}")
    t = trace.times[usable]
    y = np.log(trace.chi2[usable])
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    rate = float(-slope)
    over = rate / trace.eps ** 2 if trace.eps else None
    return DecayFit(rate=rate, rate_over_eps2=over, fit_window=(float(t_lo), float(t_hi)),
                    r_squared=float(min(r2, 1.0)), samples=int(np.count_nonzero(usable)))


def perturbed_initial(stationary: Density, mode: int = 1, amplitude: float = 0.5) -> Density:
    """Stationary density perturbed by a low Fourier mode, renormalized.

    Excites the slowest spatial scale so the fitted decay rate tracks the
    spectral gap.  On periodic axes the mode is cos(2 pi k x / L); on
    bounded ones cos(pi k (x - a) / L), whose normal derivative vanishes
    at the ends.
    """
    grid = stationary.grid
    kind = grid.kind
    if grid.periodic[0]:
        wave = Trig("cos", 0, mode, 1.0, 0.0, kind.lengths[0])
        values = wave(grid.cell_centers())
    else:
        x = grid.cell_centers()[:, 0]
        values = np.cos(np.pi * mode * (x - kind.origin[0]) / kind.lengths[0])
    v = stationary.values * (1.0 + amplitude * values)
    return Density.normalized(np.clip(v, 0.0, None), grid)


def poincare_quotient(nf: NoiseFamily, eps: float, stationary: Density,
                      grid: Grid, max_modes: int = 3) -> float:
    """Weighted Poincare quotient over a basis of low Fourier modes.

    For each probe f the quotient is
    sum (grad f)^T a (grad f) u vol / sum (f - fbar)^2 u vol with
    fbar the u-weighted mean; the reported value is the minimum over the
    probes.  A uniform-in-eps positive lower bound is the discrete
    shadow of the uniform Poincare inequality behind the eps^2 decay
    rate.
    """
    a = diffusion_matrix(nf.ai(eps), grid)
    u = stationary.values
    vol = grid.cell_volume
    centers = grid.cell_centers()
    best = np.inf
    for axis in range(grid.dim):
        L = grid.kind.lengths[axis]
        o = grid.kind.origin[axis]
        x = centers[:, axis]
        for k in range(1, max_modes + 1):
            if grid.periodic[axis]:
                probes = [(np.cos(2 * np.pi * k * x / L), -2 * np.pi * k / L * np.sin(2 * np.pi * k * x / L)),
                          (np.sin(2 * np.pi * k * x / L), 2 * np.pi * k / L * np.cos(2 * np.pi * k * x / L))]
            else:
                arg = np.pi * k * (x - o) / L
                probes = [(np.cos(arg), -np.pi * k / L * np.sin(arg))]
            for f, df in probes:
                grad = np.zeros((grid.ncells, grid.dim))
                grad[:, axis] = df
                dirichlet = float(np.sum(np.einsum("nj,njk,nk->n", grad, a, grad) * u) * vol)
                fbar = float(np.sum(f * u) * vol)
                variance = float(np.sum((f - fbar) ** 2 * u) * vol)
                if variance > 0:
                    best = min(best, dirichlet / variance)
    return float(best)
