"""Conservative discretization of the stationary-density operator.

The discrete operator is derived from the weak flux identity rather than
from expanding the generator: with a_jk = sum_i A_ij A_ik and
d_j = sum_i A_ij (div A_i) (:func:`fields.diffusion_forms` and
:func:`fields.correction_forms`), the stationary density solves div F = 0 for

    F_j = c_j u - (eps^2 / 2) a_jk du/dx_k,
    c_j = eps^2 A0_j + B_j - (eps^2 / 2) d_j.

That pins the exact placement of the divergence correction d_j, which a
naive generator expansion gets wrong for rough coefficients.

Face fluxes use exponential fitting (Scharfetter-Gummel): with
D = (eps^2/2) a_nn and Peclet number P = c h / D,

    F = (D/h) [ B(-P) u_left - B(P) u_right ],   B(z) = z / (e^z - 1).

The scheme is exact on constants under a discretely divergence-free
drift, and its off-diagonal entries are nonnegative, so the assembled
matrix is the generator of a positive semigroup: implicit stepping and
the stationary solve can never produce negative densities (up to
roundoff).  Cross-diffusion terms (a_jk, j != k) are supported through
centered four-point tangential gradients but void the sign guarantee;
they are flagged on the assembled operator.

Column sums vanish by flux antisymmetry: every face contributes the same
coefficient with opposite signs to the two adjacent rows.

Closed domains are periodic.  Bounded ones carry the zero-flux
(conormal-reflecting) condition, which the flux form realizes by
dropping every boundary face.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import AssemblyError
from .fields import ConservativeSystem, Noise, correction_forms, diffusion_matrix, smallest_eigenvalue
from .geometry import Grid

#: Below this |z| the Bernoulli function switches to its Taylor series.
BERNOULLI_SERIES_CUTOFF = 1e-4

#: Relative tolerance deciding whether off-diagonal a_jk is genuinely present.
CROSS_DIFFUSION_TOL = 1e-14


def bernoulli(z):
    """Stable z / (e^z - 1).

    Series 1 - z/2 + z^2/12 for |z| < 1e-4 (next term is z^4/720, below
    double precision at the cutoff); exact limits 0 and |z| at the two
    overflow ends.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < BERNOULLI_SERIES_CUTOFF
    zs = z[small]
    out[small] = 1.0 - 0.5 * zs + zs * zs / 12.0
    zb = z[~small]
    with np.errstate(over="ignore"):
        denom = np.expm1(np.minimum(zb, 710.0))
    out[~small] = np.where(zb > 709.0, 0.0, zb / denom)
    return out


@dataclass
class DriftDiffusionData:
    """Cell and face coefficient samples for one noise level.

    a      per-cell symmetric diffusion matrix, shape (ncells, d, d)
    ceff   per-axis arrays of normal effective drift at interior faces
    eps    noise intensity
    """

    a: np.ndarray
    ceff: dict
    eps: float
    grid: Grid


def derive_drift_diffusion(sys: ConservativeSystem, noise: Noise, eps: float) -> DriftDiffusionData:
    """Sample the flux-form coefficients of the operator at one epsilon.

    The drift part eps^2 A0 + B is sampled at face centers from the
    closed forms; the correction d_j is sampled at cell centers (its face
    value is the arithmetic mean of the adjacent cells, second order and
    symmetric).
    """
    grid = sys.grid
    a = diffusion_matrix(noise.ai_fields, grid)
    dcorr = [form(grid.cell_centers()) for form in correction_forms(noise.ai_fields, grid.dim)]
    ceff = {}
    e2 = eps * eps
    for axis, corr in enumerate(dcorr):
        left, right, _ = grid.interior_faces(axis)
        drift_n = e2 * noise.a0_field.normal_at_faces(grid, axis) + sys.drift.normal_at_faces(grid, axis)
        ceff[axis] = drift_n - 0.5 * e2 * (0.5 * (corr[left] + corr[right]))
    for arr in (a, *dcorr, *ceff.values()):
        if not np.all(np.isfinite(arr)):
            raise AssemblyError("non-finite coefficient sample in drift-diffusion data")
    return DriftDiffusionData(a=a, ceff=ceff, eps=eps, grid=grid)


class FokkerPlanckOperator:
    """Conservative operator; du/dt = matrix @ u.  Immutable once assembled.

    It is given by its CSR ``matrix`` or, in 1D, by its three ``bands``
    (sub, diag, sup): sub[i] = M[i, i - 1 mod n], diag[i] = M[i, i] and
    sup[i] = M[i, i + 1 mod n].  A 1D matrix couples each cell to its
    two neighbors only, cyclically on a circle; on an interval sub[0] and
    sup[n - 1] are 0.  :func:`assemble_fp_operator` keeps a 1D operator
    as its bands, and ``matrix`` builds the CSR from them on first
    access, with the assembly's own COO conversion, so the time stepper,
    the irreducibility search and every other reader of ``matrix`` get
    the bits and stored zeros they got when assembly built it.  An
    operator given by a 1D matrix reads its bands off the matrix.  The
    stationary solve reads the bands only (:meth:`apply` and
    :meth:`inf_norm` with them), so a 1D stationary solve forms no CSR.
    """

    def __init__(self, matrix: sp.csr_matrix | None, grid: Grid, has_cross_diffusion: bool,
                 positive_rates: bool = False, bands: tuple | None = None):
        if (matrix is None) == (bands is None):
            raise ValueError("an operator is given by its matrix or by its bands, not both")
        if bands is not None and grid.dim != 1:
            raise ValueError("only a 1D operator is given by its bands")
        if matrix is not None:
            self.matrix = matrix
        else:
            self.bands = bands
        self.grid = grid
        self.has_cross_diffusion = has_cross_diffusion
        self.positive_rates = positive_rates

    @functools.cached_property
    def matrix(self) -> sp.csr_matrix:
        """The CSR of a 1D operator given by its bands: the entries on its faces and its diagonal."""
        sub, diag, sup = self.bands
        left, right, _ = self.grid.interior_faces(0)
        cells = np.arange(self.grid.ncells)
        return _csr(self.grid.ncells, (right, left, cells), (left, right, cells), (sub[right], sup[left], diag))

    @functools.cached_property
    def bands(self) -> tuple:
        """(sub, diag, sup) of an operator given by a 1D matrix; :class:`AssemblyError` off the three bands."""
        m = self.matrix
        n = m.shape[0]
        coo = m.tocoo()
        offset = (coo.col - coo.row) % n
        if np.any((offset > 1) & (offset < n - 1)):
            raise AssemblyError("a 1D operator couples each cell to its two neighbors only")
        sub = np.append(m.diagonal(n - 1), m.diagonal(-1))
        sup = np.append(m.diagonal(1), m.diagonal(1 - n))
        return sub, m.diagonal(), sup

    def is_irreducible(self) -> bool:
        """Strong connectivity of the coupling graph, one edge per nonzero entry.

        An operator assembled without cross diffusion whose two
        Scharfetter-Gummel rates are positive on every face
        (``positive_rates``) couples every pair of lattice neighbors both
        ways: each off-diagonal entry is a sum of such rates, nothing can
        cancel it, and the face lattice of every grid connects all its
        cells.  Such an operator is irreducible without a search.  Any
        other operator, one whose rate underflowed to 0 (``bernoulli``
        returns 0 above z = 709), one with cross terms (which add onto
        lattice entries and may cancel one) or one built from a bare
        matrix, is searched on ``matrix``: stored zeros couple nothing,
        so they are dropped, and the diagonal's self-loops stay, since
        they never change strong connectivity.  The search takes ~0.8 ms
        at 2^15 cells and ~0.9 ms at 160^2; :func:`stationary.solve_stationary`
        asks once per operator before it solves.
        """
        if self.positive_rates and not self.has_cross_diffusion:
            return True
        pattern = self.matrix.copy()
        pattern.eliminate_zeros()
        ncomp, _ = connected_components(pattern, directed=True, connection="strong")
        return ncomp == 1

    def apply(self, u: np.ndarray) -> np.ndarray:
        """M u, with the bits of ``matrix @ u``.

        In 1D it is summed off the bands: the CSR product adds each row's
        products one by one in column order, (x0 + x1) + x2, and on a
        circle rows 0 and n - 1 hold their wrap entry last and first.
        """
        if self.grid.dim != 1:
            return self.matrix @ u
        sub, diag, sup = self.bands
        return _row_sums(sub * np.roll(u, 1), diag * u, sup * np.roll(u, -1), lambda x0, x1, x2: (x0 + x1) + x2)

    def inf_norm(self) -> float:
        """max_i sum_j |M_ij|, with the bits of ``reduceat`` over each row's stored entries.

        In 2D the row sums are the ones ``abs(M).sum(axis=1)`` takes, one
        ``reduceat`` over the nonempty rows, without copying the matrix.
        ``reduceat`` sums a row as x0 + (x1 + x2), and in 1D the same sum
        is taken off the bands, in the rows' column order (see
        :meth:`apply`); the zero a band holds where an interval has no
        wrap entry changes no sum.
        """
        if self.grid.dim == 1:
            sub, diag, sup = self.bands
            return float(np.max(_row_sums(np.abs(sub), np.abs(diag), np.abs(sup), lambda x0, x1, x2: x0 + (x1 + x2))))
        m = self.matrix
        rows = np.flatnonzero(np.diff(m.indptr))  # reduceat gives an empty row its successor's entry
        if rows.size == 0:
            return 0.0
        return float(np.max(np.add.reduceat(np.abs(m.data), m.indptr[rows])))

    def __repr__(self):
        return f"FokkerPlanckOperator(n={self.grid.ncells})"


def _row_sums(sub, diag, sup, add):
    """``add`` over the three band terms of every row of a 1D operator, in the row's CSR column order.

    Row i holds columns i - 1, i, i + 1; on a circle row 0 holds 0, 1,
    n - 1 and row n - 1 holds 0, n - 2, n - 1.
    """
    sums = add(sub, diag, sup)
    sums[0] = add(diag[0], sup[0], sub[0])
    sums[-1] = add(sup[-1], sub[-1], diag[-1])
    return sums


def _csr(n: int, rows, cols, vals) -> sp.csr_matrix:
    """The n x n CSR of COO triplets given as lists of arrays, duplicates summed, columns sorted."""
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)).tocsr()


def assemble_fp_operator(dd: DriftDiffusionData) -> FokkerPlanckOperator:
    """Assemble the finite-volume operator from flux-form coefficients.

    The operator lives on ``dd.grid``, the grid the coefficients were
    sampled on.  Faces are processed per axis in their canonical order,
    so repeated assemblies are bit-identical.  A 2D operator is built as
    its CSR matrix, from COO triplets whose duplicates the conversion
    sums.  A 1D operator is kept as its three bands (see
    :class:`FokkerPlanckOperator`): each face adds its rates to the two
    coupling bands and subtracts them from the diagonal, k_left at its
    left cell and then k_right at its right one.
    """
    grid = dd.grid
    d = grid.dim
    e2half = 0.5 * dd.eps * dd.eps
    vol = grid.cell_volume

    off = dd.a.copy()
    for k in range(d):
        off[:, k, k] = 0.0
    has_cross = bool(np.max(np.abs(off)) > CROSS_DIFFUSION_TOL * max(np.max(np.abs(dd.a)), 1e-300))
    if has_cross:
        if np.min(smallest_eigenvalue(dd.a)) <= 0.0:
            raise AssemblyError("cross-diffusion requires a strictly positive definite diffusion matrix")
        if not all(grid.periodic):
            raise AssemblyError("cross-diffusion terms are only supported on periodic domains")

    rows, cols, vals = [], [], []
    positive_rates = True
    for axis in range(d):
        left, right, _ = grid.interior_faces(axis)
        h = grid.h[axis]
        area = grid.face_area(axis)
        dface = e2half * 0.5 * (dd.a[left, axis, axis] + dd.a[right, axis, axis])
        if np.any(dface <= 0.0):
            raise AssemblyError(f"vanishing normal diffusion coefficient on axis {axis}")
        c = dd.ceff[axis]
        peclet = c * h / dface
        if not np.all(np.isfinite(peclet)):
            raise AssemblyError("non-finite face Peclet number")
        scale = dface * area / (h * vol)
        k_left = scale * bernoulli(-peclet)
        k_right = scale * bernoulli(peclet)
        positive_rates = positive_rates and bool(np.all(k_left > 0.0) and np.all(k_right > 0.0))
        # flux(L->R) = k_left*u_L - k_right*u_R, in rate units (already /vol)
        if d == 1:  # one axis and no cross terms: the three bands are the whole operator
            sub, diag, sup = np.zeros(grid.ncells), np.zeros(grid.ncells), np.zeros(grid.ncells)
            sub[right] = k_left
            sup[left] = k_right
            diag[left] -= k_left
            diag[right] -= k_right  # the order in which CSR sums a cell's two diagonal entries
            return FokkerPlanckOperator(None, grid, False, positive_rates, bands=(sub, diag, sup))
        rows.append(left); cols.append(left); vals.append(-k_left)
        rows.append(right); cols.append(left); vals.append(k_left)
        rows.append(left); cols.append(right); vals.append(k_right)
        rows.append(right); cols.append(right); vals.append(-k_right)

        if has_cross and d == 2:
            tang = 1 - axis
            a_jk = e2half * 0.5 * (dd.a[left, axis, tang] + dd.a[right, axis, tang])
            w = a_jk * area / (4.0 * grid.h[tang] * vol)
            stencil = [
                (grid.shift(left, tang, +1), +w),
                (grid.shift(left, tang, -1), -w),
                (grid.shift(right, tang, +1), +w),
                (grid.shift(right, tang, -1), -w),
            ]
            # cross flux(L->R) = -sum(coef * u_neighbor); rate -flux into L, +flux into R
            for nbr, coef in stencil:
                rows.append(left); cols.append(nbr); vals.append(coef)
                rows.append(right); cols.append(nbr); vals.append(-coef)

    return FokkerPlanckOperator(_csr(grid.ncells, rows, cols, vals), grid, has_cross, positive_rates)


def assemble_for(sys: ConservativeSystem, noise: Noise, eps: float) -> FokkerPlanckOperator:
    """Convenience wrapper: derive coefficients and assemble in one call."""
    return assemble_fp_operator(derive_drift_diffusion(sys, noise, eps))
