"""Conservative discretization of the stationary-density operator.

The discrete operator is derived from the weak flux identity rather than
from expanding the generator: with a_jk = sum_i A_ij A_ik and
d_j = sum_i A_ij (div A_i), the stationary density solves div F = 0 for

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import AssemblyError
from .fields import ConservativeSystem, NoiseFamily, diffusion_matrix, smallest_eigenvalue
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
    dcorr  per-cell divergence correction vector, shape (ncells, d)
    ceff   per-axis arrays of normal effective drift at interior faces
    eps    noise intensity
    """

    a: np.ndarray
    dcorr: np.ndarray
    ceff: dict
    eps: float
    grid: Grid


def derive_drift_diffusion(sys: ConservativeSystem, nf: NoiseFamily, eps: float) -> DriftDiffusionData:
    """Sample the flux-form coefficients of the operator at one epsilon.

    The drift part eps^2 A0 + B is sampled at face centers from the
    closed forms; the correction d_j is sampled at cell centers (its face
    value is the arithmetic mean of the adjacent cells, second order and
    symmetric).
    """
    if eps not in nf.epsilons:
        raise ValueError(f"eps={eps} is not a member of the family's epsilons {nf.epsilons}")
    grid = sys.grid
    d = grid.dim
    ai_fields = nf.ai(eps)
    a0_field = nf.a0(eps)
    a = diffusion_matrix(ai_fields, grid)
    dcorr = np.zeros((grid.ncells, d))
    centers = grid.cell_centers()
    for f in ai_fields:
        div_vals = f.div_form()(centers)
        dcorr += f.at_centers(grid) * div_vals[:, None]
    ceff = {}
    e2 = eps * eps
    for axis in range(d):
        left, right, _ = grid.interior_faces(axis)
        drift_n = e2 * a0_field.normal_at_faces(grid, axis) + sys.drift.normal_at_faces(grid, axis)
        corr_face = 0.5 * (dcorr[left, axis] + dcorr[right, axis])
        ceff[axis] = drift_n - 0.5 * e2 * corr_face
    for arr in (a, dcorr, *ceff.values()):
        if not np.all(np.isfinite(arr)):
            raise AssemblyError("non-finite coefficient sample in drift-diffusion data")
    return DriftDiffusionData(a=a, dcorr=dcorr, ceff=ceff, eps=eps, grid=grid)


class FokkerPlanckOperator:
    """Sparse conservative operator; du/dt = matrix @ u.

    Immutable once assembled.  ``bc`` is "periodic" on closed domains and
    "zero-flux" on bounded ones (the conormal-reflecting condition, which
    the flux form realizes by dropping every boundary face).
    """

    def __init__(self, matrix: sp.csr_matrix, grid: Grid, eps: float, bc: str,
                 has_cross_diffusion: bool, min_offdiagonal: float):
        self.matrix = matrix
        self.grid = grid
        self.eps = eps
        self.bc = bc
        self.has_cross_diffusion = has_cross_diffusion
        self.min_offdiagonal = min_offdiagonal
        self._irreducible = None

    @property
    def shape(self):
        return self.matrix.shape

    def is_irreducible(self) -> bool:
        """Strong connectivity of the off-diagonal coupling graph."""
        if self._irreducible is None:
            pattern = self.matrix.copy()
            pattern.setdiag(0.0)
            pattern.eliminate_zeros()
            ncomp, _ = connected_components(pattern, directed=True, connection="strong")
            self._irreducible = ncomp == 1
        return self._irreducible

    def apply(self, v) -> np.ndarray:
        """Matrix-vector product against per-cell values (or a Density)."""
        values = getattr(v, "values", v)
        values = np.asarray(values, float)
        if values.shape != (self.grid.ncells,):
            raise ValueError(f"dimension mismatch: operator has {self.grid.ncells} cells, vector has {values.shape}")
        return self.matrix @ values

    def column_sum_max(self) -> float:
        return float(np.max(np.abs(np.asarray(self.matrix.sum(axis=0)).ravel())))

    def inf_norm(self) -> float:
        return float(np.max(np.abs(self.matrix).sum(axis=1)))

    def write_coordinate_text(self, path) -> None:
        """Dump in coordinate format: 'row col value', 17 significant digits."""
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            fh.write(f"# noisyflow operator: {self.shape[0]} cells, eps={self.eps!r}, "
                     f"bc={self.bc}; columns: row col value\n")
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r} {c} {v:.17g}\n")

    def __repr__(self):
        return f"FokkerPlanckOperator(n={self.shape[0]}, eps={self.eps}, bc={self.bc})"


def assemble_fp_operator(dd: DriftDiffusionData, grid: Grid) -> FokkerPlanckOperator:
    """Assemble the finite-volume matrix from flux-form coefficients.

    Faces are processed per axis in their canonical order, so repeated
    assemblies are bit-identical.
    """
    if dd.grid is not grid:
        raise AssemblyError("drift-diffusion data was derived on a different grid")
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
        # flux(L->R) = k_left*u_L - k_right*u_R, in rate units (already /vol)
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

    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.ncells, grid.ncells),
    ).tocsr()
    mat.sum_duplicates()

    offdiag = mat.copy()
    offdiag.setdiag(0.0)
    min_off = float(offdiag.data.min()) if offdiag.nnz else 0.0
    bc = "periodic" if all(grid.periodic) else "zero-flux"
    op = FokkerPlanckOperator(mat, grid, dd.eps, bc, has_cross, min_off)
    op.is_irreducible()  # connectivity is verified once per assembly
    return op


def assemble_for(sys: ConservativeSystem, nf: NoiseFamily, eps: float) -> FokkerPlanckOperator:
    """Convenience wrapper: derive coefficients and assemble in one call."""
    return assemble_fp_operator(derive_drift_diffusion(sys, nf, eps), sys.grid)
