"""Stationary solves and the 1D closed-form quadrature oracle.

The stationary solve pins one cell of the singular conservative matrix,
the cell r with the largest diagonal magnitude (lowest index on ties),
to u_r = 1, and normalizes the solution to unit mass afterwards.  In 2D
row r becomes d u_r = d with d its diagonal magnitude; the pinned matrix
stays sparse and is factorized by :func:`factorize`.  In 1D the matrix
is tridiagonal (cyclically on a circle), and cutting r out of the cycle
leaves a path whose equations one LAPACK ``dgtsv`` call solves (see
:func:`_path_solve`).  These direct solves are the only ones: the pinned
system is nonsingular (see :func:`factorize`), and a solve that fails
all the same raises :class:`SolveError`.
:func:`factorize` is the one place the package calls SuperLU, with
diagonal pivots and an ordering chosen by the grid's dimension: minimum
degree on A^T + A in 2D, the natural order in 1D, where the matrix is
(cyclically) tridiagonal and the natural order already fills least.  Its
supernodes are not relaxed and its panels are three columns wide, which
factorizes faster and in less memory than SuperLU's defaults with the
same fill.  In 2D it serves the stationary solve and the time stepper,
in 1D the time stepper only.

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
aligned with the cell centers.  Simpson's rule resolves the kernels
e^{Phi(x) - Phi(s)} only while psi = Phi' changes them little over one
panel, so the circle oracle raises :class:`ResolutionError` once
psi_max * delta exceeds ``ORACLE_MAX_PSI_DELTA``.

B, a and b do not depend on eps.  Both oracles take their samples from
:func:`_panel_samples`, which keeps the last ones per (closed forms,
panel lattice) and returns them to the next call with equal forms on the
same lattice, so a loop over eps on one grid samples them once.  The
memory kept is 16n + 1 doubles (8n + 1 panel edges, 8n midpoints) for B
and for each of a and b that is not constant; a constant stays one float.

Besides the kept samples a circle oracle call holds three (8n + 1)-long
arrays at once: Phi, Phi at the midpoints and the unnormalized density w
(the interval oracle: the first two).  Everything else lives for one
block of ``J1_BLOCK`` panels: :func:`_exponent` builds psi and Phi from
the left, :func:`_backward_sum` sums J1 from the right, J2 is added from
the left, and once Phi is freed psi is rebuilt on the edges for the
flux self-check.  The cumulative sums carry from block to block with the
additions of one sum over all panels, and every elementwise operation
keeps its operands and their order, so the results have the bits of
passes over whole arrays.  No buffer outlives a call.

At small eps most of J2's exponentials round to +0.0 (about 490k of 786k
at Phi(L) = 1870), which numpy's exp computes slowly; :func:`_exp` fills
them with zeros per block, from the block's extremes of Phi, and J2
skips the sums and additions they leave unchanged, with the same bits.
J1's exponents are bounded by ``J1_BLOCK_SPAN`` and never underflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgtsv

from .errors import (BoundaryError, DegenerateError, FieldEvaluationError, PositivityError, ResolutionError,
                     SolveError)
from .fields import ScalarForm, VectorField, add, mul, Const
from .geometry import Circle, Grid, Interval
from .operator import FokkerPlanckOperator

#: Components of a solved density may undershoot zero by at most this.
POSITIVITY_SLACK = 1e-10

#: Quadrature panels per finite-volume cell used by the oracles; even, so
#: that every cell center is a panel edge.
ORACLE_QUAD_FACTOR = 8

#: Largest psi_max * delta the circle oracle accepts, with psi its
#: exponent's slope and delta the panel width; see :func:`oracle_1d_circle`.
ORACLE_MAX_PSI_DELTA = 1.0

#: SuperLU's ``relax``: elimination subtrees below this many columns are
#: merged into one dense supernode; 1 merges none.  See :func:`factorize`.
SUPERNODE_RELAX = 1

#: SuperLU's ``panel_size``: columns factorized together, each with an
#: n-long dense work column.
PANEL_SIZE = 3


@dataclass
class Density:
    """Nonnegative per-cell probability density with unit mass."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.shape != (self.grid.ncells,):
            raise ValueError("density shape does not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density has non-finite components")
        if np.any(self.values < 0.0):
            raise PositivityError("density has negative components")
        mass = float(np.sum(self.values) * self.grid.cell_volume)
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"density mass is {mass!r}, expected 1 within 1e-12")

    @classmethod
    def normalized(cls, values, grid: Grid) -> "Density":
        values = np.asarray(values, float)
        return cls(values / (np.sum(values) * grid.cell_volume), grid)


@dataclass
class StationaryReport:
    density: Density
    residual: float
    method: str


def factorize(matrix: sp.spmatrix, dim: int) -> spla.SuperLU:
    """Sparse LU of ``matrix`` with a fill-reducing ordering and diagonal pivots.

    Every sparse factorization in the package goes through here: the
    time-step matrices (I - dt M) and (I - dt/2 M), and in 2D the pinned
    stationary matrix.  The 1D branch serves time steps only: a 1D
    stationary solve is one tridiagonal LAPACK call (see
    :func:`_path_solve`).  ``dim`` is the dimension of the grid the
    matrix lives on.  In 2D the columns are
    ordered by minimum degree on the pattern of A^T + A, applied
    symmetrically, which halves the fill of the factor.  In 1D the
    matrix is tridiagonal on an interval and tridiagonal plus the two
    wrap corners on a circle, and the natural order is already near
    minimum fill: an interval factors without fill, a circle fills only
    a last row and column.  Minimum degree costs more than it saves there
    and fills more: 196574 against 146797 nnz(L+U) on the pinned 2^15-cell
    circle-positive matrix at eps = 0.2 (COLAMD: 163834).  Those figures
    and the 2^15-cell circle's below were measured when 1D stationary
    solves still factorized here.  The pivots are taken on the diagonal
    in both cases.  A LAPACK ``gttrf``/``gttrs``
    factor of the 1D step matrix with a one-cell border for the wrap
    corners is slower per solve than this one (17.7 against 9.8 us per
    two-column solve on a 32-cell circle, 66 against 31 us on a
    1024-cell interval), so 1D time steps stay here.

    Supernodes are not relaxed and panels are narrow: ``SUPERNODE_RELAX``
    = 1 and ``PANEL_SIZE`` = 3, against SuperLU's 10 and 20.  Relaxation
    pads the small leaf subtrees of the elimination tree into dense
    supernodes, and every panel column carries an n-long dense work
    array.  Neither changes the ordering, the pivots or nnz(L+U), so the
    factor differs from the default one in rounding only.  The pair was
    chosen by a sweep over relax in {1, 2, 4, 10} and panel in {1, 2, 3,
    4, 6, 8, 20}, timed against the defaults: 0.65-0.69 of the time on the
    pinned 160^2 torus, 0.76-0.79 on a Crank-Nicolson step matrix at 40^2
    with 1000 two-column solves, 0.52-0.62 on the pinned 2^15-cell circle,
    whose factorization's peak memory falls from 9.4 to 1.0 MB.

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

    Raises :class:`SolveError` when SuperLU fails, e.g. on an exactly
    singular matrix; no caller retries another way.
    """
    ordering = "NATURAL" if dim == 1 else "MMD_AT_PLUS_A"
    try:
        return spla.splu(matrix.tocsc(), permc_spec=ordering, diag_pivot_thresh=0.0,
                         relax=SUPERNODE_RELAX, panel_size=PANEL_SIZE, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolveError(f"sparse LU failed: {exc}") from exc


def pinned_cell(diag: np.ndarray) -> int:
    """The cell a stationary solve pins: largest diagonal magnitude, lowest index on ties."""
    return int(np.argmax(np.abs(diag)))  # argmax takes the lowest index on ties


def pinned_system(matrix: sp.csr_matrix):
    """M with one equation replaced by a pin, and its right-hand side.

    Row r, the :func:`pinned_cell` of M, becomes d u_r = d with
    d = |M_rr|, which keeps the matrix sparse and its scale.  Returns the
    pinned matrix (CSR) and the right-hand side d e_r.
    """
    diag = matrix.diagonal()
    row = pinned_cell(diag)
    pin = abs(float(diag[row]))
    pinned = matrix.tocsr(copy=True)
    start, end = pinned.indptr[row], pinned.indptr[row + 1]
    pinned.data[start:end] = np.where(pinned.indices[start:end] == row, pin, 0.0)
    pinned.eliminate_zeros()
    rhs = np.zeros(matrix.shape[0])
    rhs[row] = pin
    return pinned, rhs


def _path_solve(matrix: sp.csr_matrix) -> np.ndarray:
    """The solution of M u = 0 with u_r = 1 on a 1D grid, by one tridiagonal LAPACK solve.

    r is the :func:`pinned_cell` of M.  A 1D matrix couples cell i
    to cells i - 1 and i + 1 only, cyclically on a circle; on an interval
    the wrap couplings M[0, n-1] and M[n-1, 0] are zero.  Cutting r out
    of the cycle leaves the path r + 1, ..., r - 1 (mod n), whose
    equations are tridiagonal with right-hand side -M[path, r], nonzero
    only at the path's two ends.  ``dgtsv`` solves them with partial
    pivoting.  The path's matrix is M without row and column r, column
    diagonally dominant like the pinned matrix (see :func:`factorize`),
    so in exact arithmetic no row is interchanged.  In floating point the
    pivot of a column whose coupling to the next cell carries the drift
    nearly ties with that coupling, and roundoff swaps rows: the path is
    therefore walked against its larger couplings, reversed when the
    subdiagonal outweighs the superdiagonal.  On the 2^17-cell circle-positive matrix at
    eps = 0.05, walking along the drift interchanges 76358 rows and
    leaves a residual of 2.2e-13; walking against it interchanges none
    and leaves 2.8e-15.  Raises :class:`SolveError` when ``dgtsv``
    reports a nonzero ``info``.
    """
    n = matrix.shape[0]
    diag = matrix.diagonal()
    r = pinned_cell(diag)
    sup = np.append(matrix.diagonal(1), matrix.diagonal(1 - n))  # M[i, i + 1 mod n]
    sub = np.append(matrix.diagonal(n - 1), matrix.diagonal(-1))  # M[i, i - 1 mod n]

    def along_path(values):
        return np.concatenate((values[r + 1:], values[:r]))

    d, sub, sup = along_path(diag), along_path(sub), along_path(sup)
    dl, du = sub[1:], sup[:-1]
    rhs = np.zeros(n - 1)
    rhs[0], rhs[-1] = -sub[0], -sup[-1]
    reverse = dl.sum() > du.sum()
    if reverse:
        dl, d, du, rhs = du[::-1], d[::-1], dl[::-1], rhs[::-1]
    *_, x, info = dgtsv(dl, d, du, rhs)
    if info != 0:
        raise SolveError(f"tridiagonal solve failed: LAPACK dgtsv returned info = {info}")
    if reverse:
        x = x[::-1]
    return np.concatenate((x[n - 1 - r:], (1.0,), x[:n - 1 - r]))


def solve_stationary(op: FokkerPlanckOperator) -> StationaryReport:
    """Solve M u = 0 for the unique unit-mass stationary density.

    The operator's coupling graph must be strongly connected, or the
    density is not unique.  One pinned cell and one direct solve give it
    (``method`` is "direct"): a sparse LU of the pinned matrix in 2D,
    one tridiagonal LAPACK call on the path around the pinned cell in
    1D.  A failed factorization or a non-finite solution raises
    :class:`SolveError`.  The residual is measured against the
    unmodified matrix as ||M u||_inf / (||M||_inf ||u||_inf).
    """
    if not op.is_irreducible():
        raise SolveError("operator is reducible; the stationary density is not unique")
    grid = op.grid
    if grid.dim == 1:
        u = _path_solve(op.matrix)
    else:
        pinned, rhs = pinned_system(op.matrix)
        u = factorize(pinned, grid.dim).solve(rhs)
    if not np.all(np.isfinite(u)):
        raise SolveError("stationary solve returned a non-finite component")
    u /= np.sum(u) * grid.cell_volume  # unit mass, the scale the positivity slack assumes

    min_component = float(u.min())
    if min_component < -POSITIVITY_SLACK:
        raise PositivityError(
            f"solved density has component {min_component}, beyond the {-POSITIVITY_SLACK} slack "
            "(scheme misuse, e.g. cross-diffusion on a coarse grid)"
        )
    density = Density.normalized(np.clip(u, 0.0, None), grid)
    u = density.values
    residual = float(np.max(np.abs(op.matrix @ u))) / (op.inf_norm() * float(u.max()))
    if not residual <= 1e-8:
        raise SolveError(f"stationary residual {residual} is implausibly large")
    return StationaryReport(density=density, residual=residual, method="direct")


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


#: Most panels one block of an oracle pass spans; the backward sum's
#: blocks may be shorter (see :func:`_backward_sum`).
J1_BLOCK = 4096

#: Largest range of Phi over one block of the backward sum: e^300 ~ 1e130
#: leaves the block's scaled partial sums far from overflow.
J1_BLOCK_SPAN = 300.0

#: e^x rounds to +0.0 in double precision for every x below this; the least
#: subnormal, 2^-1074, is e^-744.44, and e^x falls below half of it at
#: x = -745.13.  See :func:`_exp`.
EXP_UNDERFLOW = -746.0


def _exp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Overwrite x with ``np.exp(x)``, bit for bit, without evaluating the lanes that round to +0.0.

    ``hi`` must bound x from above: x is filled with zeros when ``hi`` <
    ``EXP_UNDERFLOW``.  ``lo`` only picks the path, and any value (NaN
    too) gives the bits of ``np.exp``: when ``lo`` is at or above the
    threshold x goes through one plain ``np.exp``, and otherwise only
    its live lanes are evaluated (NaN is live) and the others are set to
    zero.  ``np.exp`` spends 17-23 ns on a lane that underflows to zero
    against 1.4-1.6 ns on a normal one (numpy 2.4, AVX-512, x86-64), and
    the circle oracle's J2 exponents fall far below the threshold once
    Phi ranges over more than ~750.  Lanes with subnormal results (-745.13 < x <
    -708.4) stay with ``np.exp``, which spends ~140 ns on each: they are
    few, and no other evaluation is sure to give their bits.  Returns x.
    """
    if hi < EXP_UNDERFLOW:
        x.fill(0.0)
    elif lo >= EXP_UNDERFLOW:
        np.exp(x, out=x)
    else:
        dead = x < EXP_UNDERFLOW
        np.exp(x, out=x, where=~dead)
        x[dead] = 0.0
    return x


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


def _blocks(count: int):
    """(start, end) of consecutive runs of at most ``J1_BLOCK`` of ``count`` items, left to right."""
    return ((start, min(start + J1_BLOCK, count)) for start in range(0, count, J1_BLOCK))


def _cumulative_simpson(f_edges, f_mids, delta, carry, out):
    """Cumulative integral at panel edges from edge and midpoint samples, written into ``out``.

    The integral is ``carry`` at the first edge (0 when None) and adds
    the panels one at a time, so blocks that each start from the last
    value of the block before make the additions of one cumulative sum
    over all their panels, and give its bits.
    """
    out[0] = 0.0 if carry is None else carry
    panel = out[1:]  # (delta / 6) (f_left + 4 f_mid + f_right), in place
    np.multiply(4.0, f_mids, out=panel)
    panel += f_edges[:-1]
    panel += f_edges[1:]
    panel *= delta / 6.0
    if carry is not None:
        panel[0] += carry
    np.cumsum(panel, out=panel)
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


@functools.lru_cache(maxsize=1)
def _panel_samples(b_form: ScalarForm, a_form: ScalarForm, b_corr_form: ScalarForm,
                   origin: float, length: float, quad: int):
    """The eps-free samples of the oracles on ``quad`` Simpson panels of [origin, origin + length].

    Returns ``(b_min, b, a, b_corr)``: the least drift B over all panel
    nodes, then B, the total diffusion a and the drift correction b, each
    as an (edges, midpoints) pair.  B's samples are read-only arrays; a
    constant a or b is one Python float for both.  Raises
    :class:`FieldEvaluationError` on a non-finite sample, as the
    finite-volume path does, and :class:`PositivityError` unless a > 0.

    The last call's samples are kept, keyed on the closed forms by value
    (every form is a frozen dataclass) and on the exact lattice, so a hit
    returns what a fresh evaluation would, bit for bit, and never another
    grid's samples: a caller looping over eps with the same fields on one
    grid evaluates them once.
    """
    edges, mids = _quad_nodes(origin, length, quad)

    def sample(form, what, arrays=False):
        if isinstance(form, Const) and not arrays:
            pair = (float(form.value),) * 2
        else:
            pair = (form(edges), form(mids))
        for values in pair:
            if not np.all(np.isfinite(values)):
                raise FieldEvaluationError(f"non-finite sample of {what} on the oracle's panels")
            if isinstance(values, np.ndarray):
                values.flags.writeable = False
        return pair

    a = sample(a_form, "the total diffusion a")
    if not (np.all(a[0] > 0.0) and np.all(a[1] > 0.0)):
        raise PositivityError("total diffusion a must be positive")
    b = sample(b_form, "the drift B", arrays=True)  # arrays, so that psi is one too
    b_corr = sample(b_corr_form, "the drift correction b")
    return min(float(b[0].min()), float(b[1].min())), b, a, b_corr


def _psi(b, a, b_corr, e2: float, part: slice) -> np.ndarray:
    """psi = 2 (B + eps^2 b) / (eps^2 a) on ``part`` of one lattice's samples (edges or midpoints)."""
    a, b_corr = (v if isinstance(v, float) else v[part] for v in (a, b_corr))
    return 2.0 * (b[part] + e2 * b_corr) / (e2 * a)


def _exponent(drift: VectorField, a0: VectorField, ai: list[VectorField], eps: float,
              grid: Grid, quad: int):
    """The oracles' exponent on ``quad`` Simpson panels over the 1D domain of ``grid``.

    Returns ``(samples, psi_max, phi, phi_mid)``: the eps-free samples
    ``(b_min, b, a, b_corr)`` of :func:`_panel_samples`, the largest
    |psi| over all panel nodes with psi = 2 (B + eps^2 b) / (eps^2 a),
    and Phi = int_origin^x psi at the panel edges and midpoints.  One
    left-to-right pass over blocks of ``J1_BLOCK`` panels builds psi on
    a block's nodes from the samples and extends Phi over the block,
    carrying the cumulative Simpson sum from block to block (see
    :func:`_cumulative_simpson`), so Phi has the bits of one sum over all
    panels and psi never outlives its block.
    """
    a_form, b_corr_form = _oracle_coefficients(a0, ai)
    (origin,), (length,) = grid.kind.origin, grid.kind.lengths
    samples = _panel_samples(drift.components[0], a_form, b_corr_form, origin, length, quad)
    _, b, a, b_corr = samples
    e2 = eps * eps
    delta = length / quad
    phi = np.empty(quad + 1)
    phi_mid = np.empty(quad)
    psi_max = 0.0
    for start, end in _blocks(quad):
        psi_edges = _psi(b[0], a[0], b_corr[0], e2, slice(start, end + 1))
        psi_mids = _psi(b[1], a[1], b_corr[1], e2, slice(start, end))
        psi_max = max(psi_max, psi_edges.max(), psi_mids.max(), -psi_edges.min(), -psi_mids.min())
        _cumulative_simpson(psi_edges, psi_mids, delta, float(phi[start]) if start else None,
                            phi[start:end + 1])
        np.add(phi[start:end], _half_panel(psi_edges, psi_mids, delta), out=phi_mid[start:end])
    return samples, float(psi_max), phi, phi_mid


def _at_centers(edge_values: np.ndarray, grid: Grid) -> np.ndarray:
    """Samples of the panel-edge values at the cell centers of ``grid``."""
    n = grid.n[0]
    stride = (len(edge_values) - 1) // n
    return edge_values[stride * np.arange(n) + stride // 2]


def _backward_sum(phi: np.ndarray, phi_mid: np.ndarray, delta: float) -> np.ndarray:
    """J1[j] = sum_{k >= j} local[k] e^{Phi[j] - Phi[k]}, with J1[-1] = 0.

    local[k] is panel k's Simpson integral of e^{Phi[k] - Phi}, from Phi
    at its edges and midpoint; it is computed per block, never for all
    panels at once.  The sum is the closed form of the recurrence J1[j]
    = local[j] + e^{Phi[j] - Phi[j+1]} J1[j+1], evaluated block by block
    from the right.  A block spans at most ``J1_BLOCK`` panels and is
    halved until Phi ranges over at most ``J1_BLOCK_SPAN`` on its edges.
    Inside it, with Phi_ref the block's largest Phi, the reversed
    cumulative sum of local e^{Phi_ref - Phi} plus the carried right
    edge value J1[end] e^{Phi_ref - Phi[end]} is scaled back by
    e^{Phi - Phi_ref}.  Every exponent lies in [-J1_BLOCK_SPAN,
    J1_BLOCK_SPAN] whatever the sign of Phi's slope (unless Phi moves by
    more than that within one panel), so nothing overflows even when
    e^{Phi(L)} would.
    """
    j1 = np.zeros(len(phi))
    end = len(phi_mid)
    while end > 0:
        start = max(0, end - J1_BLOCK)
        while end - start > 1 and np.ptp(phi[start:end + 1]) > J1_BLOCK_SPAN:
            start = end - (end - start) // 2
        left = phi[start:end]
        local = np.subtract(left, phi_mid[start:end])
        np.exp(local, out=local)
        local *= 4.0
        local += 1.0
        scaled = np.subtract(left, phi[start + 1:end + 1])
        local += np.exp(scaled, out=scaled)
        local *= delta / 6.0
        ref = float(np.max(phi[start:end + 1]))
        np.subtract(ref, left, out=scaled)
        np.exp(scaled, out=scaled)
        scaled *= local
        sums = np.cumsum(scaled[::-1])[::-1]
        sums += math.exp(ref - phi[end]) * j1[end]
        np.exp(left - ref, out=scaled)
        np.multiply(scaled, sums, out=j1[start:end])
        end = start
    return j1


def _add_forward_sum(w: np.ndarray, phi: np.ndarray, phi_mid: np.ndarray, delta: float) -> None:
    """w += J2 = e^{Phi - Phi(L)} int_0^x e^{-Phi}, block by block from the left.

    The integral is :func:`_cumulative_simpson` of e^{-Phi}, carried from
    block to block.  Both exponentials go through :func:`_exp`, bounded
    by the least and largest Phi on the block's edges; only a block
    whose edges all give e^{-Phi} = 0 reads its midpoints' least Phi.  A
    block on which e^{-Phi} is all zero skips its cumulative sum, since
    the running integral stays at the carry, and a block on which
    e^{Phi - Phi(L)} is all zero skips its addition to w.  The results
    keep the bits of the unskipped passes.
    """
    phi_total = float(phi[-1])
    size = min(J1_BLOCK, len(phi_mid))
    f_edges, f_mids, running = np.empty(size + 1), np.empty(size), np.empty(size + 1)  # one block each
    carry = None
    for start, end in _blocks(len(phi_mid)):
        m = end - start
        edges, mids = phi[start:end + 1], phi_mid[start:end]
        lo, hi = float(edges.min()), float(edges.max())
        # never the first block, where Phi starts at 0
        if start and -lo < EXP_UNDERFLOW and -float(mids.min()) < EXP_UNDERFLOW:
            wrap = carry
        else:
            e_edges, e_mids = f_edges[:m + 1], f_mids[:m]
            _exp(np.negative(edges, out=e_edges), -hi, -lo)
            _exp(np.negative(mids, out=e_mids), -hi, math.inf)  # -hi guides only: the midpoints may pass it
            wrap = _cumulative_simpson(e_edges, e_mids, delta, carry, running[:m + 1])
            carry = float(wrap[-1])
        if hi - phi_total < EXP_UNDERFLOW:
            continue
        weight = f_edges[:m + 1]
        _exp(np.subtract(edges, phi_total, out=weight), lo - phi_total, hi - phi_total)
        weight *= wrap
        first = 1 if start else 0  # a later block's first edge is the last one of the block before
        w[start + first:end + 1] += weight[first:]


def oracle_1d_circle(drift: VectorField, a0: VectorField, ai: list[VectorField],
                     eps: float, grid: Grid):
    """Closed-form stationary density on the circle; returns (u, C_eps).

    ``u`` holds cell-center samples on ``grid``, from
    ``ORACLE_QUAD_FACTOR`` Simpson panels per cell.  Requires B > 0 on the
    whole circle and positive total diffusion a; B + eps^2 b may change
    sign, so Phi need not be monotone.  J1 is the backward sum of
    :func:`_backward_sum`, which keeps every exponent within a bounded
    range, and J2 = e^{Phi - Phi(L)} int_0^x e^{-Phi} is added into it
    block by block from the left by :func:`_add_forward_sum`.  Once
    Phi(L) passes ~745 most of J2's exponentials round to +0.0, and
    numpy spends 17-23 ns on each such lane against ~1.5 ns on a normal
    one: J2 fills them with zeros from each block's extremes of Phi and
    skips the sums and additions they would leave unchanged, with the
    same bits.  At Phi(L) = 1870 on 2^18 panels J2 takes 3.6 ms against
    11.8 ms with every lane evaluated; where nothing underflows, reading
    each block's extremes adds ~0.2 ms to its 3.7 ms.

    The returned constant satisfies C_eps = -int (B + eps^2 b) u, which
    is re-verified against the quadrature before returning, on psi
    rebuilt at the panel edges once Phi is freed.

    The panels must resolve the kernels: psi_max * delta, with
    psi = 2 (B + eps^2 b) / (eps^2 a) and delta the panel width, may not
    exceed ``ORACLE_MAX_PSI_DELTA``, or :class:`ResolutionError` is raised.
    The self-check cannot catch this, since its tolerance grows with psi
    delta.  On circle-positive with coordinate noise the sup error
    relative to a 9x refined oracle depends on psi delta alone: 2.4e-2
    at 4.7, 2.3e-3 at 2.34, 1.6e-4 at 1.17 and 1.0e-5 at 0.59.
    """
    if not isinstance(grid.kind, Circle):
        raise ValueError("circle oracle needs a Circle grid")
    quad = ORACLE_QUAD_FACTOR * grid.n[0]
    delta = grid.kind.length / quad
    e2 = eps * eps
    (b_min, b, a, b_corr), psi_max, phi, phi_mid = _exponent(drift, a0, ai, eps, grid, quad)
    if not b_min > 0.0:
        raise PositivityError("circle oracle requires B > 0 everywhere")
    if psi_max * delta > ORACLE_MAX_PSI_DELTA:
        raise ResolutionError(f"circle oracle is unresolved: psi_max * delta = {psi_max * delta:.3g} exceeds "
                              f"{ORACLE_MAX_PSI_DELTA:g}; use more cells or a larger eps")
    phi_total = float(phi[-1])
    # |1 - e^{Phi(L)}| < 1e-14 iff |Phi(L)| < ~1e-14; test the exponent to
    # avoid overflowing e^{Phi(L)} at small eps
    if abs(phi_total) < 1e-14:
        raise DegenerateError("periodic oracle is singular: net drift integral vanishes")

    w = _backward_sum(phi, phi_mid, delta)
    _add_forward_sum(w, phi, phi_mid, delta)
    del phi, phi_mid

    # (B + eps^2 b) u = (eps^2 / 2) psi w / Z
    psi_w = np.empty(quad + 1)
    for start, end in _blocks(quad + 1):
        part = slice(start, end)
        np.multiply(_psi(b[0], a[0], b_corr[0], e2, part), w[part], out=psi_w[part])
    flux = _simpson_on_edges(psi_w, delta)
    del psi_w
    w /= a[0]
    scale = 1.0 / _simpson_on_edges(w, delta)
    c_eps = -0.5 * e2 * scale * -np.expm1(-phi_total)
    check = 0.5 * e2 * scale * flux
    # Simpson's panel error on the boundary-layer kernels scales like
    # (psi delta)^4 / 2880; allow an order of magnitude of headroom
    quad_tol = max(1e-10, 10.0 * (psi_max * delta) ** 4 / 2880.0)
    if not abs(c_eps + check) <= quad_tol * max(abs(c_eps), 1.0):
        raise SolveError(f"oracle self-check failed: C={c_eps} vs -int (B+eps^2 b) u = {-check}")
    u = _at_centers(w, grid)
    u *= scale
    return u, float(c_eps)


def oracle_1d_interval(drift: VectorField, a0: VectorField, ai: list[VectorField],
                       eps: float, grid: Grid) -> np.ndarray:
    """Closed-form stationary density on an interval with reflecting ends.

    The stationary flux constant is zero, so u = e^Phi / (Z a) with the
    same Phi as the circle case, on the same ``ORACLE_QUAD_FACTOR``
    panels per cell, evaluated in place in Phi's array.  Requires B to
    vanish at both endpoints (compatibility with the zero normal flux of
    the reflecting SDE).
    """
    if not isinstance(grid.kind, Interval):
        raise ValueError("interval oracle needs an Interval grid")
    kind = grid.kind
    ends = np.array([[kind.a], [kind.b]])
    b_ends = drift.components[0](ends)
    if not np.max(np.abs(b_ends)) <= 1e-12:
        raise BoundaryError(f"drift must vanish at the endpoints, got B(a), B(b) = {tuple(b_ends)}")
    quad = ORACLE_QUAD_FACTOR * grid.n[0]
    (_, _, a, _), _, phi, phi_mid = _exponent(drift, a0, ai, eps, grid, quad)
    del phi_mid
    phi -= phi.max()
    u_unnorm = np.exp(phi, out=phi)
    u_unnorm /= a[0]
    z = _simpson_on_edges(u_unnorm, kind.lengths[0] / quad)
    u = _at_centers(u_unnorm, grid)
    u /= z
    return u
