"""Stationary solves and the 1D closed-form quadrature oracle.

The primary solve pins one cell of the singular conservative matrix:
the row of the cell with the largest diagonal magnitude (lowest index on
ties) becomes d u_r = d with d its diagonal magnitude.  The pinned
matrix stays sparse; it is factorized by :func:`factorize` and the
solution is normalized to unit mass afterwards.  An inverse-power
iteration is kept as an independent cross-check and as a fallback when
the factorization reports singularity.  :func:`factorize` is the one
place the package calls SuperLU, with diagonal pivots and an ordering
chosen by the grid's dimension: minimum degree on A^T + A in 2D, the
natural order in 1D, where the matrix is (cyclically) tridiagonal and
the natural order already fills least.  The time stepper uses it too.

The 1D oracles integrate the stationary balance

    (eps^2 / 2) (a u)' - (B + eps^2 b) u = C,
    a = sum |A_i|^2,  b = A_0 + (1/2) sum A_i A_i',

with C = 0 on an interval (zero flux through reflecting ends) and C
fixed by periodicity on the circle.  On the circle the textbook
variation-of-constants form e^{Phi(x)} [w(0) + (2C/eps^2) int e^{-Phi}]
cancels catastrophically once Phi(L) = int 2(B + eps^2 b)/(eps^2 a)
exceeds ~35, so the solution is evaluated in the equivalent
backward-integrated form

    w(x) = N [ J1(x) + J2(x) ],
    J1(x) = int_x^L e^{Phi(x) - Phi(s)} ds,
    J2(x) = int_0^x e^{Phi(x) - Phi(L) - Phi(s)} ds,

with N > 0 from normalization and C = -eps^2 N (1 - e^{-Phi(L)}) / 2.
Where B + eps^2 b > 0 every exponent is nonpositive.  B > 0 does not
imply that: eps^2 b may be negative on an arc, where Phi falls, and J1's
exponents are then positive by at most the fall.  J1 is therefore summed
over blocks on which Phi ranges by a bounded amount, each scaled by its
own largest Phi, so no exponential overflows even where e^{Phi(L)} would.
Phi itself is a cumulative composite Simpson integral on a panel grid
aligned with the cell centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BoundaryError, DegenerateError, PositivityError, SolveError
from .fields import ScalarForm, VectorField, add, mul, Const
from .geometry import Circle, Grid, Interval
from .operator import FokkerPlanckOperator

#: Components of a solved density may undershoot zero by at most this.
POSITIVITY_SLACK = 1e-10

#: Quadrature panels per finite-volume cell used by the oracles.
ORACLE_QUAD_FACTOR = 8


@dataclass
class Density:
    """Nonnegative per-cell probability density with unit mass."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.shape != (self.grid.ncells,):
            raise ValueError("density shape does not match the grid")
        if np.any(self.values < 0.0):
            raise PositivityError("density has negative components")
        mass = self.mass()
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"density mass is {mass!r}, expected 1 within 1e-12")

    @classmethod
    def uniform(cls, grid: Grid) -> "Density":
        return cls(np.full(grid.ncells, 1.0 / grid.total_measure()), grid)

    @classmethod
    def normalized(cls, values, grid: Grid) -> "Density":
        values = np.asarray(values, float)
        return cls(values / (np.sum(values) * grid.cell_volume), grid)

    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.cell_volume)


@dataclass
class StationaryReport:
    density: Density
    residual: float
    min_u: float
    max_u: float
    w12_seminorm: float
    method: str
    iterations: int


def factorize(matrix: sp.spmatrix, dim: int) -> spla.SuperLU:
    """Sparse LU of ``matrix`` with a fill-reducing ordering and diagonal pivots.

    Every factorization in the package goes through here: the pinned
    stationary matrix, the generator itself in inverse iteration, and the
    time-step matrices (I - dt M) and (I - dt/2 M).  ``dim`` is the
    dimension of the grid the matrix lives on.  In 2D the columns are
    ordered by minimum degree on the pattern of A^T + A, applied
    symmetrically, which halves the fill of the factor.  In 1D the
    matrix is tridiagonal on an interval and tridiagonal plus the two
    wrap corners on a circle, and the natural order is already near
    minimum fill: an interval factors without fill, a circle fills only
    a last row and column.  Minimum degree costs more than it saves there
    and fills more: 196574 against 146797 nnz(L+U) on the pinned 2^15-cell
    circle-positive matrix at eps = 0.2 (COLAMD: 163834).  The pivots are
    taken on the diagonal in both cases.

    Skipping the pivot search is safe for these matrices (without cross
    diffusion).  M has zero column sums and nonnegative off-diagonal
    entries, so every column is weakly diagonally dominant.  Pinning row
    r keeps that: column r stays weakly dominant, and every column j
    with M_rj != 0 loses an off-diagonal entry and becomes strictly
    dominant.  Since M is irreducible, every column reaches such a
    strictly dominant one through the entries of M outside row r: the
    pinned matrix is weakly chained column diagonally dominant, hence
    nonsingular.  (I - dt M) and (I - dt/2 M) are
    strictly column diagonally dominant for any dt > 0.  A symmetric
    permutation (minimum degree or the identity) keeps column dominance,
    and Gaussian elimination with diagonal pivots on a nonsingular column
    diagonally dominant matrix is stable: every Schur complement stays
    column dominant and the growth factor is at most two.

    Raises ``RuntimeError`` when SuperLU meets an exactly singular matrix.
    """
    ordering = "NATURAL" if dim == 1 else "MMD_AT_PLUS_A"
    return spla.splu(matrix.tocsc(), permc_spec=ordering, diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def pinned_system(matrix: sp.csr_matrix):
    """M with one equation replaced by a pin, and its right-hand side.

    Row r (largest diagonal magnitude, lowest index on ties) becomes
    d u_r = d with d = |M_rr|, which keeps the matrix sparse and its
    scale.  Returns the pinned matrix (CSR) and the right-hand side d e_r.
    """
    diag = matrix.diagonal()
    row = int(np.argmax(np.abs(diag)))  # argmax takes the lowest index on ties
    pin = abs(float(diag[row]))
    pinned = matrix.tocsr(copy=True)
    start, end = pinned.indptr[row], pinned.indptr[row + 1]
    pinned.data[start:end] = np.where(pinned.indices[start:end] == row, pin, 0.0)
    pinned.eliminate_zeros()
    rhs = np.zeros(matrix.shape[0])
    rhs[row] = pin
    return pinned, rhs


def _inverse_iteration(matrix: sp.csr_matrix, grid: Grid, tol: float, maxiter: int):
    mat_norm = float(np.max(np.abs(matrix).sum(axis=1)))
    try:
        lu = factorize(matrix, grid.dim)
    except RuntimeError:
        jitter = 1e-14 * mat_norm
        lu = factorize(matrix + jitter * sp.identity(grid.ncells, format="csr"), grid.dim)
    v = np.full(grid.ncells, 1.0 / grid.total_measure())
    for it in range(1, maxiter + 1):
        previous = v
        v = lu.solve(v)
        v /= np.sum(np.abs(v)) * grid.cell_volume
        if np.sum(v) < 0:
            v = -v
        # the residual alone can pass while v is still ~1e-10 off (zero drift
        # on an interval), so the step must have settled as well
        scale = float(np.max(np.abs(v)))
        residual = float(np.max(np.abs(matrix @ v))) / (mat_norm * scale)
        if residual <= tol and float(np.max(np.abs(v - previous))) <= tol * scale:
            return v, it
    raise SolveError(f"inverse iteration did not reach tolerance {tol} in {maxiter} iterations")


def solve_stationary(op: FokkerPlanckOperator, method: str = "direct",
                     tol: float = 1e-12, maxiter: int = 500) -> StationaryReport:
    """Solve M u = 0 for the unique unit-mass stationary density.

    ``method`` is "direct" (pinned row + sparse LU, with inverse
    iteration as automatic fallback) or "inverse-iteration" (the
    independent cross-check path).  The residual is measured against the
    unmodified matrix as ||M u||_inf / (||M||_inf ||u||_inf).  Inverse
    iteration stops once that residual and the relative step change
    ||u - u_prev||_inf / ||u||_inf are both at most ``tol``.
    """
    if not op.is_irreducible():
        raise SolveError("operator is reducible; the stationary density is not unique")
    grid = op.grid
    iterations = 0
    used = method
    if method == "direct":
        pinned, rhs = pinned_system(op.matrix)
        try:
            u = factorize(pinned, grid.dim).solve(rhs)
            u /= np.sum(u) * grid.cell_volume  # unit mass, the scale the positivity slack assumes
        except RuntimeError:
            u, iterations = _inverse_iteration(op.matrix, grid, tol, maxiter)
            used = "direct+fallback"
    elif method == "inverse-iteration":
        u, iterations = _inverse_iteration(op.matrix, grid, tol, maxiter)
    else:
        raise ValueError(f"unknown method {method!r}")

    min_component = float(u.min())
    if min_component < -POSITIVITY_SLACK:
        raise PositivityError(
            f"solved density has component {min_component}, beyond the {-POSITIVITY_SLACK} slack "
            "(scheme misuse, e.g. cross-diffusion on a coarse grid)"
        )
    u = np.clip(u, 0.0, None)
    u /= np.sum(u) * grid.cell_volume
    residual = float(np.max(np.abs(op.matrix @ u))) / (op.inf_norm() * float(np.max(np.abs(u))))
    if residual > 1e-8:
        raise SolveError(f"stationary residual {residual} is implausibly large")
    density = Density(u, grid)
    return StationaryReport(
        density=density,
        residual=residual,
        min_u=float(u.min()),
        max_u=float(u.max()),
        w12_seminorm=discrete_w12_seminorm(density),
        method=used,
        iterations=iterations,
    )


def discrete_w12_seminorm(u: Density) -> float:
    """Discrete ||grad u||_2 from face differences.

    Each interior face contributes (du/h)^2 times the staggered volume
    area*h; the result converges to the integral of |grad u|^2 for smooth
    densities.
    """
    grid = u.grid
    total = 0.0
    for axis in range(grid.dim):
        left, right, _ = grid.interior_faces(axis)
        h = grid.h[axis]
        diff = (u.values[right] - u.values[left]) / h
        total += float(np.sum(diff ** 2) * grid.face_area(axis) * h)
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# 1D closed-form oracles
# ---------------------------------------------------------------------------


#: Most panels one block of the backward sum spans.
J1_BLOCK = 4096

#: Largest range of Phi over one block of the backward sum: e^300 ~ 1e130
#: leaves the block's scaled partial sums far from overflow.
J1_BLOCK_SPAN = 300.0


def _oracle_coefficients(a0: VectorField, ai: list[VectorField]):
    a_form: ScalarForm = Const(0.0)
    b_form: ScalarForm = a0.components[0]
    for f in ai:
        c = f.components[0]
        a_form = add(a_form, mul(c, c))
        b_form = add(b_form, mul(Const(0.5), mul(c, c.grad(0))))
    return a_form, b_form


def _quad_nodes(origin: float, length: float, panels: int):
    """Panel edges and midpoints for composite Simpson."""
    edges = origin + np.arange(panels + 1) * (length / panels)
    mids = origin + (np.arange(panels) + 0.5) * (length / panels)
    return edges, mids


def _cumulative_simpson(f_edges, f_mids, delta):
    """Cumulative integral at panel edges from edge and midpoint samples."""
    panel = (delta / 6.0) * (f_edges[:-1] + 4.0 * f_mids + f_edges[1:])
    out = np.empty(len(f_edges))
    out[0] = 0.0
    np.cumsum(panel, out=out[1:])
    return out


def _half_panel(f_edges, f_mids, delta):
    """Integral over the first half panel from the same three samples."""
    return (delta / 24.0) * (5.0 * f_edges[:-1] + 8.0 * f_mids - f_edges[1:])


def _simpson_on_edges(values, delta):
    """Composite Simpson treating consecutive edge triples as panels."""
    if len(values) % 2 == 0:
        raise ValueError("need an odd number of edge samples")
    return float(
        (delta / 3.0)
        * (values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) + 2.0 * np.sum(values[2:-2:2]))
    )


def _resolve_quad(grid: Grid, quad_n):
    n = grid.n[0]
    if quad_n is None:
        quad_n = ORACLE_QUAD_FACTOR * n
    quad_n = int(quad_n)
    if quad_n % (2 * n) != 0:
        raise ValueError(f"quad_n must be a multiple of 2*n = {2 * n}, got {quad_n}")
    return quad_n


def _exponent(drift: VectorField, a0: VectorField, ai: list[VectorField], eps: float,
              grid: Grid, quad: int):
    """The oracles' exponent on ``quad`` Simpson panels over the 1D domain of ``grid``.

    Returns ``(b_min, a_edges, psi_edges, psi_mids, phi, phi_mid)``: the
    least drift B over all panel nodes, a at the panel edges,
    psi = 2 (B + eps^2 b) / (eps^2 a) at the edges and midpoints, and
    Phi = int_origin^x psi at the edges and midpoints.
    """
    a_form, b_form = _oracle_coefficients(a0, ai)
    e2 = eps * eps

    def sample(x):
        a = a_form(x)
        if np.any(a <= 0.0):
            raise PositivityError("total diffusion a must be positive")
        b = drift.components[0](x)
        return a, float(b.min()), 2.0 * (b + e2 * b_form(x)) / (e2 * a)

    (origin,), (length,) = grid.kind.origin, grid.kind.lengths
    edges, mids = _quad_nodes(origin, length, quad)
    a_edges, b_min_edges, psi_edges = sample(edges)
    _, b_min_mids, psi_mids = sample(mids)
    delta = length / quad
    phi = _cumulative_simpson(psi_edges, psi_mids, delta)
    phi_mid = phi[:-1] + _half_panel(psi_edges, psi_mids, delta)
    return min(b_min_edges, b_min_mids), a_edges, psi_edges, psi_mids, phi, phi_mid


def _at_centers(edge_values: np.ndarray, grid: Grid) -> np.ndarray:
    """Samples of the panel-edge values at the cell centers of ``grid``."""
    n = grid.n[0]
    stride = (len(edge_values) - 1) // n
    return edge_values[stride * np.arange(n) + stride // 2]


def _backward_sum(local: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """J1[j] = sum_{k >= j} local[k] e^{Phi[j] - Phi[k]}, with J1[-1] = 0.

    The closed form of the recurrence J1[j] = local[j] + e^{Phi[j] -
    Phi[j+1]} J1[j+1], evaluated block by block from the right.  A block
    spans at most ``J1_BLOCK`` panels and is halved until Phi ranges over
    at most ``J1_BLOCK_SPAN`` on its edges.  Inside it, with Phi_ref the
    block's largest Phi, the reversed cumulative sum of
    local e^{Phi_ref - Phi} plus the carried right edge value
    J1[end] e^{Phi_ref - Phi[end]} is scaled back by e^{Phi - Phi_ref}.
    Every exponent lies in [-J1_BLOCK_SPAN, J1_BLOCK_SPAN] whatever the
    sign of Phi's slope (unless Phi moves by more than that within one
    panel), so nothing overflows even when e^{Phi(L)} would.
    """
    j1 = np.zeros(len(phi))
    end = len(local)
    while end > 0:
        start = max(0, end - J1_BLOCK)
        while end - start > 1 and np.ptp(phi[start:end + 1]) > J1_BLOCK_SPAN:
            start = end - (end - start) // 2
        ref = float(np.max(phi[start:end + 1]))
        scaled = np.exp(ref - phi[start:end])
        scaled *= local[start:end]
        sums = np.cumsum(scaled[::-1])[::-1]
        sums += math.exp(ref - phi[end]) * j1[end]
        np.exp(phi[start:end] - ref, out=scaled)
        np.multiply(scaled, sums, out=j1[start:end])
        end = start
    return j1


def oracle_1d_circle(drift: VectorField, a0: VectorField, ai: list[VectorField],
                     eps: float, grid: Grid, quad_n: int | None = None):
    """Closed-form stationary density on the circle; returns (u, C_eps).

    ``u`` holds cell-center samples on ``grid``.  Requires B > 0 on the
    whole circle and positive total diffusion a; B + eps^2 b may change
    sign, so Phi need not be monotone.  J1 is the backward sum of
    :func:`_backward_sum`, which keeps every exponent within a bounded
    range, and J2 = e^{Phi - Phi(L)} int_0^x e^{-Phi} is added into it in
    place.  The returned constant satisfies C_eps = -int (B + eps^2 b) u,
    which is re-verified against the quadrature before returning.
    """
    if not isinstance(grid.kind, Circle):
        raise ValueError("circle oracle needs a Circle grid")
    quad = _resolve_quad(grid, quad_n)
    delta = grid.kind.length / quad
    e2 = eps * eps
    b_min, a_edges, psi_edges, psi_mids, phi, phi_mid = _exponent(drift, a0, ai, eps, grid, quad)
    if b_min <= 0.0:
        raise PositivityError("circle oracle requires B > 0 everywhere")
    psi_max = max(float(np.max(np.abs(psi_edges))), float(np.max(np.abs(psi_mids))))
    del psi_mids
    phi_total = float(phi[-1])
    # |1 - e^{Phi(L)}| < 1e-14 iff |Phi(L)| < ~1e-14; test the exponent to
    # avoid overflowing e^{Phi(L)} at small eps
    if abs(phi_total) < 1e-14:
        raise DegenerateError("periodic oracle is singular: net drift integral vanishes")

    # Simpson over each panel of e^{Phi(left edge) - Phi}
    local = np.exp(phi[:-1] - phi_mid)
    local *= 4.0
    local += 1.0
    local += np.exp(phi[:-1] - phi[1:])
    local *= delta / 6.0
    w = _backward_sum(local, phi)
    del local

    # w = J1 + J2, with J2 = e^{Phi - Phi(L)} int_0^x e^{-Phi}
    wrap = _cumulative_simpson(np.exp(-phi), np.exp(-phi_mid), delta)
    del phi_mid
    phi -= phi_total
    np.exp(phi, out=phi)
    wrap *= phi
    del phi
    w += wrap
    del wrap

    # (B + eps^2 b) u = (eps^2 / 2) psi w / Z
    flux = _simpson_on_edges(psi_edges * w, delta)
    w /= a_edges
    scale = 1.0 / _simpson_on_edges(w, delta)
    c_eps = -0.5 * e2 * scale * -np.expm1(-phi_total)
    check = 0.5 * e2 * scale * flux
    # Simpson's panel error on the boundary-layer kernels scales like
    # (psi delta)^4 / 2880; allow an order of magnitude of headroom
    quad_tol = max(1e-10, 10.0 * (psi_max * delta) ** 4 / 2880.0)
    if abs(c_eps + check) > quad_tol * max(abs(c_eps), 1.0):
        raise SolveError(f"oracle self-check failed: C={c_eps} vs -int (B+eps^2 b) u = {-check}")
    w *= scale
    return _at_centers(w, grid), float(c_eps)


def oracle_1d_interval(drift: VectorField, a0: VectorField, ai: list[VectorField],
                       eps: float, grid: Grid, quad_n: int | None = None) -> np.ndarray:
    """Closed-form stationary density on an interval with reflecting ends.

    The stationary flux constant is zero, so u = e^Phi / (Z a) with the
    same Phi as the circle case.  Requires B to vanish at both endpoints
    (compatibility with the zero normal flux of the reflecting SDE).
    """
    if not isinstance(grid.kind, Interval):
        raise ValueError("interval oracle needs an Interval grid")
    kind = grid.kind
    ends = np.array([[kind.a], [kind.b]])
    b_ends = drift.components[0](ends)
    if np.max(np.abs(b_ends)) > 1e-12:
        raise BoundaryError(f"drift must vanish at the endpoints, got B(a), B(b) = {tuple(b_ends)}")
    quad = _resolve_quad(grid, quad_n)
    _, a_edges, _, _, phi, _ = _exponent(drift, a0, ai, eps, grid, quad)
    phi -= phi.max()
    u_unnorm = np.exp(phi) / a_edges
    z = _simpson_on_edges(u_unnorm, kind.lengths[0] / quad)
    return _at_centers(u_unnorm / z, grid)
