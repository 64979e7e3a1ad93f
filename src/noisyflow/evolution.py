"""Cauchy-problem integration and chi^2 decay measurement.

Implicit Euler is the default stepper: combined with the nonnegative
off-diagonal structure of the assembled operator, (I - dt M) is an
M-matrix, so steps preserve nonnegativity unconditionally.  Mass is
conserved by the zero-column-sum structure; one iterative-refinement
pass per step keeps the algebraic mass error at the roundoff of the
column sums rather than of the LU solve.  Crank-Nicolson is available
behind a flag for rate-accuracy studies (halved temporal bias, no
positivity guarantee).

The chi^2 distance is measured against the operator's own discrete
stationary density.  With that pairing the distance is provably
non-increasing along both continuous time and implicit Euler steps for
any conservative matrix with nonnegative off-diagonal rates, which the
test suite asserts step by step.
"""

from __future__ import annotations

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
    """Per-step record of a Cauchy evolution."""

    times: np.ndarray
    chi2: np.ndarray
    mass_drift: np.ndarray
    min_v: np.ndarray
    eps: float | None = None

    def prefix(self, nsteps: int) -> "EvolutionTrace":
        """The record of the first ``nsteps`` steps."""
        keep = slice(0, nsteps + 1)
        return EvolutionTrace(times=self.times[keep], chi2=self.chi2[keep],
                              mass_drift=self.mass_drift[keep], min_v=self.min_v[keep],
                              eps=self.eps)


@dataclass
class DecayFit:
    rate: float
    rate_over_eps2: float | None
    fit_window: tuple[float, float]
    r_squared: float
    samples: int


def chi_squared(v: Density, u: Density) -> float:
    """chi^2 divergence sum (v_i/u_i - 1)^2 u_i vol_i; zero iff v == u."""
    if np.any(u.values <= 0.0):
        raise PositivityError("chi^2 reference density must be strictly positive")
    ratio = v.values / u.values - 1.0
    return float(np.sum(ratio * ratio * u.values) * u.grid.cell_volume)


def evolve(op: FokkerPlanckOperator, v0: Density, horizon: float, dt: float,
           scheme: str = "implicit-euler", stationary: Density | None = None):
    """Integrate dv/dt = M v to the horizon; returns (trace, final density).

    The step matrix is factorized once, by :func:`stationary.factorize`
    (fill-reducing ordering, diagonal pivots: (I - dt M) is strictly
    column diagonally dominant), and reused across all steps.  chi^2
    against the stationary density, the mass drift |sum v vol - 1| and
    min v are recorded at every step including t = 0.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if v0.grid is not op.grid:
        raise ValueError("initial density lives on a different grid")
    if scheme not in ("implicit-euler", "crank-nicolson"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if stationary is None:
        stationary = solve_stationary(op).density

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
    times = dt * np.arange(nsteps + 1)
    chi2 = np.empty(nsteps + 1)
    mass_drift = np.empty(nsteps + 1)
    min_v = np.empty(nsteps + 1)

    v = v0.values.copy()
    vol = grid.cell_volume
    chi2[0] = chi_squared(v0, stationary)
    mass_drift[0] = abs(np.sum(v) * vol - 1.0)
    min_v[0] = v.min()

    for step in range(1, nsteps + 1):
        rhs = v if rhs_mat is None else rhs_mat @ v
        v = lu.solve(rhs)
        # one refinement pass: residual is re-solved so the algebraic error
        # (and with it the mass drift) sits at column-sum roundoff
        v += lu.solve(rhs - (lhs @ v))
        lowest = float(v.min())
        if lowest < -1e-10:
            raise SolveError(
                f"negative component {lowest} at step {step} "
                "(cross-diffusion or an unstable scheme choice)"
            )
        ratio = v / stationary.values - 1.0
        chi2[step] = float(np.sum(ratio * ratio * stationary.values) * vol)
        mass_drift[step] = abs(float(np.sum(v)) * vol - 1.0)
        min_v[step] = lowest

    trace = EvolutionTrace(times=times, chi2=chi2, mass_drift=mass_drift,
                           min_v=min_v, eps=op.eps)
    final = Density.normalized(np.clip(v, 0.0, None), grid)
    return trace, final


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
