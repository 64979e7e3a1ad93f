"""Cauchy-problem integration and chi^2 decay measurement.

Implicit Euler is the default stepper: combined with the nonnegative
off-diagonal structure of the assembled operator, (I - dt M) is an
M-matrix, so steps preserve nonnegativity unconditionally.  Crank-Nicolson,
chosen by the configuration's ``scheme`` key, serves rate-accuracy
studies (halved temporal bias, no positivity guarantee).

Mass is conserved by the zero-column-sum structure, and each step keeps
it at the column-sum roundoff of M with one triangular solve and one
sparse product.  The step matrix is (I - theta M) with theta = dt
(implicit Euler) or dt/2 (Crank-Nicolson).  A step solves
(I - theta M) x = r and takes v = r + theta M x, which is x plus the
solve's residual r - (x - theta M x) taken against M itself.  Since
1^T (I - theta M) = 1^T, that residual returns the mass the solve lost.
A residual taken against the assembled step matrix, even one re-solved
as a refinement pass, keeps the rounding of its diagonal 1 - theta M_jj,
and where the diagonal is uniform (zero drift) every column rounds
alike: the mass drift then grows linearly with the number of steps.  On
the 32-cell zero-drift circle decay (eps 0.5 and 0.25, implicit Euler)
the drift is 4.9e-15 after 8000 steps and 1.3e-14 after 12000, where the
refinement pass gave 6.7e-13 and 1.0e-12, the latter over the decay
study's 1e-12 gate.

The product also carries the Crank-Nicolson right-hand side: the next
r = (I + theta M) v is v + theta M x, because v = x in exact arithmetic,
so it costs no second product; under implicit Euler the next r is v.

:func:`evolve` advances a block of densities with one factorization of
the step matrix, and per step one multi-RHS triangular solve and one
sparse product; the decay study sends its perturbation modes through one
call per eps.  The statistics are not taken step by step: the blocks of
s consecutive steps go into one (s, k, n) buffer,
s = max(1, STATS_CHUNK_BYTES // (8 k n)), which is reduced in one pass
once full and once after the last step.

The chi^2 distance is measured against the operator's own discrete
stationary density.  With that pairing the distance is provably
non-increasing along both continuous time and implicit Euler steps for
any conservative matrix with nonnegative off-diagonal rates, which the
test suite asserts step by step.  :func:`fit_decay_rate` fits the decay
rate of log chi^2 over the central ``FIT_WINDOW`` = (0.2, 0.8) of the
horizon, which keeps out the fast transient at the start and the
roundoff floor at the end.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import FitError, PositivityError, SolveError
from .fields import Noise, Trig, diffusion_matrix
from .geometry import Grid
from .operator import FokkerPlanckOperator
from .stationary import POSITIVITY_SLACK, Density, factorize

#: chi^2 values below this are treated as roundoff and excluded from fits.
CHI2_FLOOR = 1e-13

#: the time steppers of :func:`evolve`
SCHEMES = ("implicit-euler", "crank-nicolson")

#: Fourier modes per axis that :func:`poincare_quotient` probes
POINCARE_MODES = 3

#: bytes of the step blocks that :func:`evolve` holds before it reduces
#: their statistics in one pass
STATS_CHUNK_BYTES = 1 << 17

#: the central window of the horizon, as fractions of it, over which
#: :func:`fit_decay_rate` fits the chi^2 decay
FIT_WINDOW = (0.2, 0.8)


@dataclass
class EvolutionTrace:
    """Per-step record of a Cauchy evolution, or of a block of them.

    ``times`` is 1D and shared.  The other arrays have shape
    (nsteps + 1,) for one evolution and (k, nsteps + 1) for a block of k,
    whose member j is ``trace[j]``, a view of the block's rows.
    """

    times: np.ndarray
    chi2: np.ndarray
    mass_drift: np.ndarray
    min_v: np.ndarray

    def __getitem__(self, j: int) -> "EvolutionTrace":
        """The trace of block member ``j``."""
        return EvolutionTrace(times=self.times, chi2=self.chi2[j], mass_drift=self.mass_drift[j],
                              min_v=self.min_v[j])

    def prefix(self, nsteps: int) -> "EvolutionTrace":
        """The record of the first ``nsteps`` steps."""
        keep = slice(0, nsteps + 1)
        return EvolutionTrace(times=self.times[keep], chi2=self.chi2[..., keep],
                              mass_drift=self.mass_drift[..., keep],
                              min_v=self.min_v[..., keep])


@dataclass
class DecayFit:
    rate: float
    fit_window: tuple[float, float]
    r_squared: float


def _require_positive(u: Density) -> None:
    if np.any(u.values <= 0.0):
        raise PositivityError("chi^2 reference density must be strictly positive")


def chi_squared(v: Density, u: Density) -> float:
    """chi^2 divergence sum (v_i/u_i - 1)^2 u_i vol_i; zero iff v == u."""
    _require_positive(u)
    ratio = v.values / u.values - 1.0
    return float(np.sum(ratio * ratio * u.values) * u.grid.cell_volume)


def evolve(op: FokkerPlanckOperator, v0: Sequence[Density], horizon: float,
           dt: float, scheme: str = "implicit-euler", *, stationary: Density):
    """Integrate dv/dt = M v to the horizon; returns (trace, finals).

    ``v0`` is a block of k densities, advanced together: the step matrix
    (I - theta M), theta = dt or dt/2 under Crank-Nicolson, is factorized
    once by :func:`stationary.factorize` (fill-reducing ordering,
    diagonal pivots: it is strictly column diagonally dominant), and
    every step costs one multi-RHS solve and one sparse product, for all
    k columns at once.  The trace holds (k, nsteps + 1) arrays of chi^2,
    mass drift and min v, ``trace[j]`` is member j's own trace, and
    ``finals`` is the list of the k final densities.  Each column is
    bitwise what a block of that one member gives: the solves treat the
    columns independently, the product is one row of the block-diagonal
    diag(M, ..., M) per cell and member, and the statistics are reduced
    along contiguous rows.

    A step solves (I - theta M) x = r, takes w = theta M x and moves to
    v = r + w: x plus the residual r - (x - theta M x), one Richardson
    step with the identity as approximate inverse.  It puts the mass back
    to the column-sum roundoff of M but multiplies the solve's own error
    by up to theta ||M||.  The next r is v under implicit Euler and
    v + w under Crank-Nicolson, which is (I + theta M) v up to that same
    error; only the first r needs a product of its own.  Against dense
    ``numpy.linalg.solve`` propagation the final density agrees to
    ~1e-14 relative up to dt ||M||_1 = 10, also after 2000 steps, and to
    ~1e-12 at dt ||M||_1 = 1000.

    chi^2 against ``stationary``, the operator's own stationary density
    that the caller has solved for, the mass drift |sum v vol - 1|
    and min v are recorded at every step including t = 0, and reduced
    over chunks of s steps: the step blocks go into an (s, k, n) buffer,
    s = max(1, STATS_CHUNK_BYTES // (8 k n)), so at most 128 KiB unless
    one step's block is larger, and each full buffer, and the partial one
    after the last step, is reduced in one pass along its contiguous
    rows.  A component below -``stationary.POSITIVITY_SLACK`` raises
    :class:`SolveError` naming the first such step and its block's lowest
    value, up to s - 1 steps after that step was taken; so does a failed
    factorization.
    """
    for name, value in (("dt", dt), ("horizon", horizon)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    members = list(v0)
    if not members:
        raise ValueError("empty block of initial densities")
    if any(member.grid is not op.grid for member in members):
        raise ValueError("initial density lives on a different grid")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    _require_positive(stationary)

    grid = op.grid
    m = op.matrix
    theta = dt if scheme == "implicit-euler" else 0.5 * dt
    lhs = (sp.identity(grid.ncells, format="csr") - theta * m).tocsc()
    lu = factorize(lhs, grid.dim)

    nsteps = max(1, int(round(horizon / dt)))
    k, n = len(members), grid.ncells
    times = dt * np.arange(nsteps + 1)
    chi2 = np.empty((k, nsteps + 1))
    mass_drift = np.empty((k, nsteps + 1))
    min_v = np.empty((k, nsteps + 1))
    u = stationary.values
    vol = grid.cell_volume

    # the block is held as C-contiguous (k, n) rows, so the product reads
    # it as one vector against diag(M, ..., M) and the solve gets its
    # Fortran-order (n, k) view
    diag_m = sp.block_diag([m] * k, format="csr")

    def product(rows):
        w = (diag_m @ rows.reshape(-1)).reshape(k, -1)
        w *= theta
        return w

    # the blocks of the last s steps, whose statistics are reduced together
    s = max(1, STATS_CHUNK_BYTES // (8 * k * n))
    held = np.empty((s, k, n))
    scratch = np.empty_like(held)

    def reduce_held(first, count):
        # steps first .. first + count - 1 sit in held[:count]; a reduction
        # along a contiguous row sums exactly as the 1D reduction of that
        # member
        block = held[:count]
        lowest = block.min(axis=2)
        # per step, not over the chunk: np.min propagates NaN, so a later
        # NaN step would hide an earlier negative one
        bad = np.flatnonzero(lowest.min(axis=1) < -POSITIVITY_SLACK)
        if bad.size:
            raise SolveError(
                f"negative component {float(lowest[bad[0]].min())} at step {first + bad[0]} "
                "(cross-diffusion or an unstable scheme choice)"
            )
        ratio = np.divide(block, u, out=scratch[:count])
        ratio -= 1.0
        ratio *= ratio
        ratio *= u
        steps = slice(first, first + count)
        chi2[:, steps] = (np.sum(ratio, axis=2) * vol).T
        mass_drift[:, steps] = np.abs(np.sum(block, axis=2) * vol - 1.0).T
        min_v[:, steps] = lowest.T

    held[0] = [member.values for member in members]  # (k, n), one row per member
    rhs = held[0] + product(held[0]) if scheme == "crank-nicolson" else held[0]
    filled = 1
    for step in range(1, nsteps + 1):
        # under implicit Euler rhs is the last filled held[i]; reduce_held
        # only reads held, and with s = 1 the add below runs in place
        if filled == s:
            reduce_held(step - s, s)
            filled = 0
        w = product(lu.solve(rhs.T).T)
        # r + theta M x is x plus its residual against the generator itself:
        # 1^T (I - theta M) = 1^T, so this restores the mass to column-sum
        # roundoff of M
        rows = np.add(rhs, w, out=held[filled])
        filled += 1
        rhs = rows + w if scheme == "crank-nicolson" else rows
    reduce_held(nsteps + 1 - filled, filled)

    trace = EvolutionTrace(times=times, chi2=chi2, mass_drift=mass_drift, min_v=min_v)
    return trace, [Density.normalized(np.clip(row, 0.0, None), grid) for row in rows]


def fit_decay_rate(trace: EvolutionTrace) -> DecayFit:
    """Least-squares exponential rate of chi^2 over the ``FIT_WINDOW`` of the horizon.

    Only samples with chi^2 above the roundoff floor enter the fit; at
    least 10 are required.  The rate is minus the slope of log chi^2
    against t.
    """
    lo, hi = FIT_WINDOW
    horizon = trace.times[-1]
    t_lo, t_hi = lo * horizon, hi * horizon
    inside = (trace.times >= t_lo) & (trace.times <= t_hi)
    usable = inside & (trace.chi2 > CHI2_FLOOR)
    if not np.any(inside):
        raise FitError("empty fit window")
    if np.count_nonzero(usable) < 10:
        if np.count_nonzero(inside & (trace.chi2 <= CHI2_FLOOR)) > 0:
            raise FitError("chi^2 underflowed the floor across the window; shorten the horizon, or set "
                           "scheme = crank-nicolson if implicit Euler's damping is the cause")
        raise FitError(f"need at least 10 usable samples, got {np.count_nonzero(usable)}")
    t = trace.times[usable]
    y = np.log(trace.chi2[usable])
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    rate = float(-slope)
    return DecayFit(rate=rate, fit_window=(float(t_lo), float(t_hi)), r_squared=float(min(r2, 1.0)))


def fourier_modes(grid: Grid, axis: int, k: int) -> list[Trig]:
    """The modes of wavenumber ``k`` along ``axis``: cos and sin of period L on a periodic axis,
    cos(pi k (x - o) / L), with zero normal derivative at both walls, on a walled axis [o, o + L]."""
    L, o = grid.kind.lengths[axis], grid.kind.origin[axis]
    if grid.periodic[axis]:
        return [Trig("cos", axis, k, 1.0, 0.0, L), Trig("sin", axis, k, 1.0, 0.0, L)]
    return [Trig("cos", axis, k, 1.0, 0.0, 2.0 * L, -math.pi * k * o / L)]


def perturbed_initial(stationary: Density, mode: int = 1, amplitude: float = 0.5) -> Density:
    """Stationary density perturbed by a low Fourier mode, renormalized.

    Excites the slowest spatial scale so the fitted decay rate tracks the
    spectral gap.  The mode is the first of :func:`fourier_modes` along
    axis 0.
    """
    grid = stationary.grid
    wave = fourier_modes(grid, 0, mode)[0]
    v = stationary.values * (1.0 + amplitude * wave(grid.cell_centers()))
    return Density.normalized(np.clip(v, 0.0, None), grid)


def poincare_quotient(noise: Noise, stationary: Density, grid: Grid) -> float:
    """Weighted Poincare quotient over the lowest ``POINCARE_MODES`` Fourier modes per axis.

    For each probe f the quotient is
    sum (grad f)^T a (grad f) u vol / sum (f - fbar)^2 u vol with
    fbar the u-weighted mean; the reported value is the minimum over the
    probes.  The probes are the :func:`fourier_modes` of each axis: cos
    and sin of period L on a periodic axis, cos(pi k (x - o) / L) on a
    bounded one.  Their exact ``grad`` along that axis gives the
    Dirichlet term a_jj (d_j f)^2.  The weighted Poincare constant is
    the infimum of this quotient over all f, so the minimum over a few
    probes bounds it from above, never from below: on torus-shear at
    128^2, eps = 0.2, under the noise of ``configs/explicit-torus-decay.ini``,
    the exact discrete constant is 22.6 and this function gives 44.4.
    It therefore cannot certify the uniform Poincare inequality behind
    the eps^2 decay rate.  The noise level enters only through
    ``stationary``: the diffusion matrix a of ``noise`` does not depend on
    eps.
    """
    a = diffusion_matrix(noise.ai_fields, grid)
    u = stationary.values
    vol = grid.cell_volume
    centers = grid.cell_centers()
    best = np.inf
    for axis in range(grid.dim):
        for k in range(1, POINCARE_MODES + 1):
            for probe in fourier_modes(grid, axis, k):
                f = probe(centers)
                df = probe.grad(axis)(centers)
                dirichlet = float(np.sum(a[:, axis, axis] * df * df * u) * vol)
                fbar = float(np.sum(f * u) * vol)
                variance = float(np.sum((f - fbar) ** 2 * u) * vol)
                if variance > 0:
                    best = min(best, dirichlet / variance)
    return float(best)
