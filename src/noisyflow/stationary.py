"""Stationary solves and the 1D closed-form quadrature oracle.

The stationary solve pins one cell of the singular conservative matrix,
the cell r with the largest diagonal magnitude (lowest index on ties),
to u_r = 1, and normalizes the solution to unit mass afterwards.  In 2D
row r becomes d u_r = d with d its diagonal magnitude; the pinned matrix
stays sparse and is factorized by :func:`factorize`.  In 1D the matrix
is tridiagonal (cyclically on a circle), and assembly keeps it as its
three bands (see :class:`operator.FokkerPlanckOperator`).  Cutting r out
of the cycle leaves a path whose equations one LAPACK ``dgtsv`` call
solves on those bands (see :func:`_path_solve`), and the residual's
product and norm are summed off them with the bits the CSR would give,
so a 1D stationary solve forms no sparse matrix.  On circle-positive at
2^15 cells and eps 0.4-0.05 that takes assembly and solve from 7.0-10.5
to 4.5-5.5 ms (best of 20, one core of a Xeon with AVX-512), and their
traced peak above what the process held before from 6.5 to 3.1 MB,
against assembling the CSR and reading the bands off it.  These direct solves are
the only ones: the pinned system is nonsingular (see :func:`factorize`),
and a solve that fails all the same raises :class:`SolveError`.
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
    a = a_00,  b = A_0 + d / 2  (fields.diffusion_forms, correction_forms),

the operator's flux written for (a u)', since a' = 2 d in 1D.  C = 0 on
an interval (zero flux through reflecting ends); on the circle of length
L it is fixed by periodicity, and -int (B + eps^2 b) u = L C.  On the
circle the textbook
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

B, a and b do not depend on eps, and psi = 2 (B + eps^2 b) / (eps^2 a)
= (2 / eps^2) B / a + 2 b / a, so Simpson's rule, being linear, gives
Phi = (2 / eps^2) P + R at the panel edges with eps-free integrals P of
B / a and R of 2 b / a.  :func:`_panel_samples` keeps them, per (closed
forms, panel lattice), and returns them to the next call with equal
forms on the same lattice, so a loop over eps on one grid samples and
integrates once.  It keeps 8n + 1 doubles at the panel edges for P and
for B / a (the slope psi), and a at the edges unless it is constant; a
drift correction b other than the constant 0 adds R and 2 b / a, and
both slopes' 8n midpoint samples, for psi_max.

Besides the kept arrays a circle oracle call holds one (8n + 1)-long
array, w (the interval oracle: Phi).  Everything else lives for one
block of at most ``J1_BLOCK`` panels, on which Phi is formed from P and
R by one scaling, and at the panel midpoints by cubic Hermite
interpolation of Phi and psi at the edges.  :func:`_forward_pass` stores
each panel's Simpson term of e^{ref - Phi} in w's buffer from the left,
and :func:`_backward_pass` turns the terms into J1 + J2 from the right:
three exponentials per panel, and sums of nonnegative terms only.  The
self-check sums psi w as dot products, without forming it.  No buffer
outlives a call, and the results have the bits of the same formulas
evaluated over whole arrays.  Every exponent of a block lies within
``J1_BLOCK_SPAN`` of 0, so no lane underflows to a subnormal or to zero;
only the per-block scalars e^{ref - Phi(L)} and e^{-Phi(L)} do, once
Phi(L) exceeds ~700.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgtsv

from .errors import DegenerateError, FieldEvaluationError, PositivityError, ResolutionError, SolveError
from .fields import Const, ScalarForm, VectorField, add, correction_forms, diffusion_forms, mul
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
    stationary solve is one tridiagonal LAPACK call on the operator's
    bands (see :func:`_path_solve`), and a 1D time stepper forms the
    CSR it factorizes from them.  ``dim`` is the dimension of the grid the
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


def _path_solve(bands: tuple) -> np.ndarray:
    """The solution of M u = 0 with u_r = 1 on a 1D grid, by one tridiagonal LAPACK solve.

    ``bands`` are M's (sub, diag, sup), sub[i] = M[i, i - 1 mod n] and
    sup[i] = M[i, i + 1 mod n] (see :class:`operator.FokkerPlanckOperator`),
    and r is the :func:`pinned_cell` of diag.  A 1D matrix couples cell i
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
    sub, diag, sup = bands
    n = len(diag)
    r = pinned_cell(diag)

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
    1D, on the operator's three bands.  A failed factorization or a
    non-finite solution raises :class:`SolveError`.  The residual is
    measured against the unmodified operator as
    ||M u||_inf / (||M||_inf ||u||_inf), by :meth:`~operator.FokkerPlanckOperator.apply`
    and :meth:`~operator.FokkerPlanckOperator.inf_norm`, which in 1D read
    the bands and give the bits of the CSR product and row sums: a 1D
    solve forms no CSR.
    """
    if not op.is_irreducible():
        raise SolveError("operator is reducible; the stationary density is not unique")
    grid = op.grid
    if grid.dim == 1:
        u = _path_solve(op.bands)
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
    residual = float(np.max(np.abs(op.apply(u)))) / (op.inf_norm() * float(u.max()))
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


#: Most panels one block of an oracle pass spans; the circle oracle's
#: blocks may be shorter (see :func:`_forward_pass`).  A warm circle oracle
#: call on 2^18 panels took 6.8, 6.0 and 5.3 ms with blocks of 4096, 8192
#: and 16384, whose buffers would be as long as w on a 4096-cell circle.
J1_BLOCK = 8192

#: Largest range of Phi over the edges of one block of the circle oracle:
#: e^300 ~ 1e130 leaves the block's scaled sums far from overflow.
J1_BLOCK_SPAN = 300.0


def _oracle_coefficients(a0: VectorField, ai: list[VectorField]):
    """The oracles' total diffusion a = a_00 and drift correction b = A_0 + d / 2, as closed forms."""
    ((a_form,),), (d_form,) = diffusion_forms(ai, 1), correction_forms(ai, 1)
    return a_form, add(a0.components[0], mul(Const(0.5), d_form))


def _quad_nodes(origin: float, length: float, panels: int):
    """Panel edges and midpoints for composite Simpson."""
    edges = origin + np.arange(panels + 1) * (length / panels)
    mids = origin + (np.arange(panels) + 0.5) * (length / panels)
    return edges, mids


def _cumulative_simpson(f_edges, f_mids, delta):
    """Cumulative composite Simpson integral of f from the first edge, at the edges, as a read-only array."""
    edges = np.empty(len(f_edges))
    edges[0] = 0.0
    panel = edges[1:]  # (delta / 6) (f_left + 4 f_mid + f_right), in place
    np.multiply(4.0, f_mids, out=panel)
    panel += f_edges[:-1]
    panel += f_edges[1:]
    panel *= delta / 6.0
    np.cumsum(panel, out=panel)
    edges.flags.writeable = False
    return edges


def _simpson_on_edges(values, delta, factor=None):
    """Composite Simpson treating consecutive edge triples as panels, of ``factor * values`` if given.

    The product is summed as dot products over strided views, never
    formed as an array.
    """
    if len(values) % 2 == 0:
        raise ValueError("need an odd number of edge samples")
    if factor is None:
        ends, odd, even = values[0] + values[-1], np.sum(values[1:-1:2]), np.sum(values[2:-2:2])
    else:
        ends = factor[0] * values[0] + factor[-1] * values[-1]
        odd, even = np.dot(factor[1:-1:2], values[1:-1:2]), np.dot(factor[2:-2:2], values[2:-2:2])
    return float((delta / 3.0) * (ends + 4.0 * odd + 2.0 * even))


class _PanelSamples(NamedTuple):
    """The eps-free parts of the oracles on one panel lattice; see :func:`_panel_samples`."""

    b_min: float  # the least drift B over all panel nodes
    a: float | np.ndarray  # the total diffusion a at the panel edges
    psi: tuple  # (q, r) at the edges, r None when b = 0
    psi_mids: tuple | None  # (q, r) at the midpoints, kept only when b != 0
    q_max: float  # max |q| over all panel nodes
    phi: tuple  # (P, R) at the edges, R None when b = 0


@functools.lru_cache(maxsize=1)
def _panel_samples(b_form: ScalarForm, a_form: ScalarForm, b_corr_form: ScalarForm,
                   origin: float, length: float, quad: int) -> _PanelSamples:
    """The eps-free parts of the oracles on ``quad`` Simpson panels of [origin, origin + length].

    The exponent's slope is psi = 2 (B + eps^2 b) / (eps^2 a) = s q + r
    with s = 2 / eps^2, q = B / a and r = 2 b / a, and Simpson's rule is
    linear, so Phi = s P + R at the panel edges with P and R the
    cumulative Simpson integrals of q and r.  Returns a
    :class:`_PanelSamples`: the least B over all panel nodes, a at the
    edges (one Python float when constant), q and r at the edges, max |q|
    over all nodes, and P and R.  When the drift correction b = A_0 + d / 2
    is the constant 0 (coordinate noise), r and R are None and
    psi_max = s max |q|; otherwise q and r are also kept at the
    midpoints, for psi_max.  Every kept array is read-only.  Raises
    :class:`FieldEvaluationError` on a non-finite sample, as the
    finite-volume path does, and :class:`PositivityError` unless a > 0.

    The last call's result is kept, keyed on the closed forms by value
    (every form is a frozen dataclass) and on the exact lattice, so a hit
    returns what a fresh evaluation would, bit for bit, and never another
    grid's: a caller looping over eps with the same fields on one grid
    evaluates and integrates them once.  Keeping P at the midpoints too
    would spare the passes the Hermite step of :func:`_forward_pass`,
    but the kept arrays stay resident through the finite-volume solves
    between oracle calls: on the oracle-circle benchmark a third kept
    array raised the traced peak of those solves from 12.1 to 14.2 MB,
    past the cold oracle call's 13.4 MB, and ``peak_rss_mb`` by 0.18 MB.
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
        return pair

    a = sample(a_form, "the total diffusion a")
    if not (np.all(a[0] > 0.0) and np.all(a[1] > 0.0)):
        raise PositivityError("total diffusion a must be positive")
    q = sample(b_form, "the drift B", arrays=True)
    corrected = not (isinstance(b_corr_form, Const) and b_corr_form.value == 0.0)
    r = sample(b_corr_form, "the drift correction b", arrays=True) if corrected else (None, None)
    del edges, mids
    b_min = min(float(q[0].min()), float(q[1].min()))
    for b, a_part in zip(q, a):  # q = B / a and r = 2 b / a, in place in the fresh samples
        np.divide(b, a_part, out=b)
    if corrected:
        for b, a_part in zip(r, a):
            np.divide(b, a_part, out=b)
            b *= 2.0
    q_max = max(float(q[0].max()), float(q[1].max()), -float(q[0].min()), -float(q[1].min()))
    p_edges = _cumulative_simpson(q[0], q[1], length / quad)
    r_edges = _cumulative_simpson(r[0], r[1], length / quad) if corrected else None
    for values in (*q, *r, a[0]):
        if isinstance(values, np.ndarray):
            values.flags.writeable = False
    return _PanelSamples(b_min, a[0], (q[0], r[0]), (q[1], r[1]) if corrected else None, q_max,
                         (p_edges, r_edges))


def _oracle_samples(drift: VectorField, a0: VectorField, ai: list[VectorField], grid: Grid,
                    quad: int) -> _PanelSamples:
    """:func:`_panel_samples` of the oracles' coefficients on ``quad`` panels over the 1D domain of ``grid``."""
    a_form, b_corr_form = _oracle_coefficients(a0, ai)
    (origin,), (length,) = grid.kind.origin, grid.kind.lengths
    return _panel_samples(drift.components[0], a_form, b_corr_form, origin, length, quad)


def _scaled(s: float, pair: tuple, part: slice, out=None) -> np.ndarray:
    """s P + R on ``part`` of an eps-free pair (P, R), into ``out`` or a new array: psi or Phi at one eps."""
    p, r = pair
    out = np.multiply(s, p[part], out=out)
    if r is not None:
        out += r[part]
    return out


def _psi_max(samples: _PanelSamples, s: float) -> float:
    """The largest |psi| = |s q + r| over all panel nodes."""
    if samples.psi_mids is None:
        return s * samples.q_max
    psi_max = 0.0
    for pair in (samples.psi, samples.psi_mids):
        for start in range(0, len(pair[0]), J1_BLOCK):
            psi = _scaled(s, pair, slice(start, start + J1_BLOCK))
            psi_max = max(psi_max, float(psi.max()), -float(psi.min()))
    return psi_max


def _at_centers(edge_values: np.ndarray, grid: Grid) -> np.ndarray:
    """Samples of the panel-edge values at the cell centers of ``grid``."""
    n = grid.n[0]
    stride = (len(edge_values) - 1) // n
    return edge_values[stride * np.arange(n) + stride // 2]


def _forward_pass(samples: _PanelSamples, s: float, delta: float, w: np.ndarray) -> list:
    """Panel k's Simpson integral of e^{ref - Phi} into w[k], block by block from the left.

    A block spans at most ``J1_BLOCK`` panels and is halved until Phi
    ranges over at most ``J1_BLOCK_SPAN`` on its edges; ref is its
    largest Phi on the edges.  The panel's term is (delta / 6) (E_l + 4 F
    + E_r) with E = e^{ref - Phi} at its edges and F = e^{ref - Phi_mid}
    at its midpoint: two exponentials per panel, plus one per block.
    Phi_mid = (Phi_l + Phi_r) / 2 + (delta / 8) (psi_l - psi_r), the cubic
    Hermite interpolant, is within O(delta^4) of Phi_l plus the half panel's
    Simpson integral: in long double the densities of the two agree to
    1e-16 on circle-positive at 256-2^14 cells and eps 0.4-0.05.
    Sets w[-1] to int_0^L e^{-Phi} and returns one (start, end, ref,
    carry) per block, with carry = int_0^{x_start} e^{-Phi}, the sum of
    the blocks before of e^{-ref} times their terms' sum.
    """
    quad = len(w) - 1
    size = min(J1_BLOCK, quad)
    nodes = np.empty(2 * size + 1)  # e^{ref - Phi} at a block's edges, then at its midpoints
    fall = np.empty(size)
    blocks, carry, start = [], 0.0, 0
    while start < quad:
        end = min(start + J1_BLOCK, quad)
        phi = _scaled(s, samples.phi, slice(start, end + 1), out=nodes[:end - start + 1])
        ref = float(phi.max())
        while end - start > 1 and ref - float(phi[:end - start + 1].min()) > J1_BLOCK_SPAN:
            end = start + (end - start) // 2
            ref = float(phi[:end - start + 1].max())
        m = end - start
        mids = np.add(phi[:m], phi[1:m + 1], out=nodes[m + 1:2 * m + 1])
        for scale, part in zip((s, 1.0), samples.psi):  # psi = s q + r
            if part is not None:
                np.subtract(part[start:end], part[start + 1:end + 1], out=fall[:m])
                fall[:m] *= scale * delta / 4.0
                mids += fall[:m]
        mids *= 0.5
        exps = np.exp(np.subtract(ref, nodes[:2 * m + 1], out=nodes[:2 * m + 1]), out=nodes[:2 * m + 1])
        term = np.multiply(4.0, exps[m + 1:], out=w[start:end])
        term += exps[:m]
        term += exps[1:m + 1]
        term *= delta / 6.0
        blocks.append((start, end, ref, carry))
        carry += math.exp(-ref) * float(np.sum(term))
        start = end
    w[quad] = carry  # J1(L) = 0 and J2(L) = int_0^L e^{-Phi}
    return blocks


def _backward_pass(samples: _PanelSamples, s: float, blocks: list, w: np.ndarray, phi_total: float) -> None:
    """Turn the panel terms in w into w = J1 + J2 at the edges, block by block from the right.

    On a block with reference ref, left edge start and right edge end,
    and with R = e^{Phi - ref} at its edges (one exponential per panel):

        J1 = R [rev + e^{ref - Phi(end)} J1(end)],
        J2 = R [e^{ref - Phi(L)} carry + e^{-Phi(L)} fwd],

    where rev and fwd are the reversed and the exclusive forward
    cumulative sums of the block's terms and J1(end) comes from the block
    to the right (0 at L).  Every factor and summand is nonnegative, so
    nothing cancels; every exponent of a block lies within
    ``J1_BLOCK_SPAN`` of 0 except the two scalar ones with Phi(L), and
    where e^{-Phi(L)} rounds to 0 the forward sums are not formed.
    """
    tail = math.exp(-phi_total)
    size = max(end - start for start, end, *_ in blocks)
    phi_buf, sums, forward = np.empty(size + 1), np.empty(size), np.empty(size - 1)
    j1 = 0.0
    for start, end, ref, carry in reversed(blocks):
        m = end - start
        phi = _scaled(s, samples.phi, slice(start, end + 1), out=phi_buf[:m + 1])
        term = w[start:end]
        total = np.cumsum(term[::-1], out=sums[:m][::-1])[::-1]
        right = math.exp(ref - float(phi[-1])) * j1  # J1(end), scaled by e^{ref - Phi(end)}
        scale = np.exp(np.subtract(phi[:-1], ref, out=phi[:-1]), out=phi[:-1])
        j1 = float(scale[0]) * (float(total[0]) + right)
        total += right + math.exp(ref - phi_total) * carry
        if tail:
            part = np.cumsum(term[:-1], out=forward[:m - 1])
            part *= tail
            total[1:] += part
        np.multiply(scale, total, out=term)


def oracle_1d_circle(drift: VectorField, a0: VectorField, ai: list[VectorField],
                     eps: float, grid: Grid):
    """Closed-form stationary density on the circle; returns (u, C_eps).

    ``u`` holds cell-center samples on ``grid``, from
    ``ORACLE_QUAD_FACTOR`` Simpson panels per cell.  Requires B > 0 on the
    whole circle and positive total diffusion a; B + eps^2 b may change
    sign, so Phi need not be monotone.  Phi = s P + R comes per block
    from the eps-free integrals of :func:`_panel_samples`, with
    s = 2 / eps^2.  Two passes over w's own buffer give w = J1 + J2:
    :func:`_forward_pass` stores each panel's Simpson term of e^{-Phi},
    scaled by its block's largest Phi, and :func:`_backward_pass` sums
    J1 from the right and J2 from the left out of the same terms.  That
    is three exponentials per panel.  On circle-positive at 2^15 cells
    and eps 0.4-0.05 a call with kept samples takes 4.8-6.0 ms (best of
    15, one core of a Xeon with AVX-512), where five passes with up to
    seven exponentials per panel took 13.6-13.7 ms.

    The returned constant satisfies L C_eps = -int (B + eps^2 b) u, with L
    the circle's length, which is re-verified against the quadrature before
    returning, with psi = s q + r at the edges summed against w unformed.

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
    s = 2.0 / e2
    samples = _oracle_samples(drift, a0, ai, grid, quad)
    if not samples.b_min > 0.0:
        raise PositivityError("circle oracle requires B > 0 everywhere")
    psi_max = _psi_max(samples, s)
    if psi_max * delta > ORACLE_MAX_PSI_DELTA:
        raise ResolutionError(f"circle oracle is unresolved: psi_max * delta = {psi_max * delta:.3g} exceeds "
                              f"{ORACLE_MAX_PSI_DELTA:g}; use more cells or a larger eps")
    phi_total = float(_scaled(s, samples.phi, slice(quad, None))[0])
    # |1 - e^{Phi(L)}| < 1e-14 iff |Phi(L)| < ~1e-14; test the exponent to
    # avoid overflowing e^{Phi(L)} at small eps
    if abs(phi_total) < 1e-14:
        raise DegenerateError("periodic oracle is singular: net drift integral vanishes")

    w = np.empty(quad + 1)
    try:
        _backward_pass(samples, s, _forward_pass(samples, s, delta, w), w, phi_total)
    except OverflowError as exc:  # e^{-Phi(L)}, a block's e^{-ref} or its e^{ref - Phi(L)}
        raise SolveError("circle oracle overflows: Phi falls by more than ~709 on the circle") from exc

    # (B + eps^2 b) u = (eps^2 / 2) psi w / Z, with psi = s q + r
    q, r = samples.psi
    flux = s * _simpson_on_edges(w, delta, q)
    if r is not None:
        flux += _simpson_on_edges(w, delta, r)
    w /= samples.a
    scale = 1.0 / _simpson_on_edges(w, delta)
    c_eps = -0.5 * e2 * scale * -np.expm1(-phi_total)
    check = 0.5 * e2 * scale * flux
    total = grid.kind.length * c_eps
    # Simpson's panel error on the boundary-layer kernels scales like
    # (psi delta)^4 / 2880; allow an order of magnitude of headroom
    quad_tol = max(1e-10, 10.0 * (psi_max * delta) ** 4 / 2880.0)
    if not abs(total + check) <= quad_tol * max(abs(total), 1.0):
        raise SolveError(f"oracle self-check failed: L C={total} vs -int (B+eps^2 b) u = {-check}")
    u = _at_centers(w, grid)
    u *= scale
    return u, float(c_eps)


def oracle_1d_interval(drift: VectorField, a0: VectorField, ai: list[VectorField],
                       eps: float, grid: Grid) -> np.ndarray:
    """Closed-form stationary density on an interval with reflecting ends.

    The stationary flux constant is zero, so u = e^Phi / (Z a) with the
    same Phi = s P + R as the circle case, on the same
    ``ORACLE_QUAD_FACTOR`` panels per cell, evaluated in place in Phi's
    array, the one array a call holds at full length.  Requires B to
    vanish at both endpoints, the zero normal flux of the reflecting SDE:
    :meth:`fields.VectorField.check_walls` raises :class:`BoundaryError`.
    """
    if not isinstance(grid.kind, Interval):
        raise ValueError("interval oracle needs an Interval grid")
    drift.check_walls(grid)
    kind = grid.kind
    quad = ORACLE_QUAD_FACTOR * grid.n[0]
    samples = _oracle_samples(drift, a0, ai, grid, quad)
    phi = _scaled(2.0 / (eps * eps), samples.phi, slice(None))
    phi -= phi.max()
    u_unnorm = np.exp(phi, out=phi)
    u_unnorm /= samples.a
    z = _simpson_on_edges(u_unnorm, kind.lengths[0] / quad)
    u = _at_centers(u_unnorm, grid)
    u /= z
    return u
