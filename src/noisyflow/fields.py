"""Drift and noise vector fields on flat grids.

Fields are built from a small closed-form registry (constants, trig
polynomials, affine terms, products, sums, real powers) so that exact
partial derivatives are available everywhere.  That matters in two
places: the drift correction sum_i A_i (div A_i) entering the flux form,
and the directional derivatives of sqrt(u0) in the divergence-free
transform, neither of which should pick up first-order finite-difference
bias.

The module also houses the two explicit constructions exercised by the
test suite: the transform to a divergence-free drift (u0 B with rescaled
noise) and the symmetric selecting noise that pins an arbitrary positive
density as the exact stationary measure at every noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CatalogError, FieldEvaluationError, PositivityError
from .geometry import Circle, Grid, Torus2

# ---------------------------------------------------------------------------
# closed-form scalar registry
# ---------------------------------------------------------------------------


class ScalarForm:
    """A closed-form scalar function on the domain.

    Subclasses implement ``evaluate(points)`` for an (N, dim) coordinate
    array and ``grad(axis)`` returning the exact partial derivative as
    another form.
    """

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad(self, axis: int) -> "ScalarForm":
        raise NotImplementedError

    def __call__(self, points):
        pts = np.asarray(points, float)
        if pts.ndim == 1:
            pts = pts[:, None]
        out = self.evaluate(pts)
        return np.broadcast_to(np.asarray(out, float), (pts.shape[0],)).copy()


@dataclass(frozen=True)
class Const(ScalarForm):
    value: float

    def evaluate(self, points):
        return np.full(points.shape[0], float(self.value))

    def grad(self, axis):
        return Const(0.0)


@dataclass(frozen=True)
class Affine(ScalarForm):
    """slope * x_axis + intercept."""

    axis: int
    slope: float
    intercept: float = 0.0

    def evaluate(self, points):
        return self.slope * points[:, self.axis] + self.intercept

    def grad(self, axis):
        return Const(self.slope if axis == self.axis else 0.0)


@dataclass(frozen=True)
class Trig(ScalarForm):
    """offset + amplitude * fn(2*pi*freq*x_axis/period + phase), fn in {cos, sin}."""

    fn: str
    axis: int
    freq: int = 1
    amplitude: float = 1.0
    offset: float = 0.0
    period: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.fn not in ("cos", "sin"):
            raise ValueError(f"trig fn must be cos or sin, got {self.fn}")

    def evaluate(self, points):
        arg = 2.0 * math.pi * self.freq / self.period * points[:, self.axis] + self.phase
        wave = np.cos(arg) if self.fn == "cos" else np.sin(arg)
        return self.offset + self.amplitude * wave

    def grad(self, axis):
        if axis != self.axis:
            return Const(0.0)
        k = 2.0 * math.pi * self.freq / self.period
        if self.fn == "cos":
            return Trig("sin", self.axis, self.freq, -self.amplitude * k, 0.0, self.period, self.phase)
        return Trig("cos", self.axis, self.freq, self.amplitude * k, 0.0, self.period, self.phase)


@dataclass(frozen=True)
class Sum(ScalarForm):
    left: ScalarForm
    right: ScalarForm

    def evaluate(self, points):
        return self.left.evaluate(points) + self.right.evaluate(points)

    def grad(self, axis):
        return add(self.left.grad(axis), self.right.grad(axis))


@dataclass(frozen=True)
class Product(ScalarForm):
    left: ScalarForm
    right: ScalarForm

    def evaluate(self, points):
        return self.left.evaluate(points) * self.right.evaluate(points)

    def grad(self, axis):
        return add(
            mul(self.left.grad(axis), self.right),
            mul(self.left, self.right.grad(axis)),
        )


@dataclass(frozen=True)
class Power(ScalarForm):
    """base ** exponent for a real exponent; base must stay positive."""

    base: ScalarForm
    exponent: float

    def evaluate(self, points):
        return np.power(self.base.evaluate(points), self.exponent)

    def grad(self, axis):
        inner = self.base.grad(axis)
        return mul(mul(Const(self.exponent), Power(self.base, self.exponent - 1.0)), inner)


def add(a: ScalarForm, b: ScalarForm) -> ScalarForm:
    """Sum with constant folding."""
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Sum(a, b)


def mul(a: ScalarForm, b: ScalarForm) -> ScalarForm:
    """Product with constant folding."""
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    return Product(a, b)


ZERO = Const(0.0)
ONE = Const(1.0)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------


class VectorField:
    """Vector field with one ScalarForm per axis.

    Fields hold no per-grid state: every sampling call evaluates the
    closed forms afresh, so one field can serve any number of grids and
    threads.
    """

    def __init__(self, components: Sequence[ScalarForm]):
        self.components = tuple(components)
        self.dim = len(self.components)

    @classmethod
    def constant(cls, values) -> "VectorField":
        return cls([Const(float(v)) for v in np.atleast_1d(values)])

    @classmethod
    def zero(cls, dim: int) -> "VectorField":
        return cls([ZERO] * dim)

    def _eval(self, form, points, what):
        out = form(points)
        if not np.all(np.isfinite(out)):
            raise FieldEvaluationError(f"non-finite sample in {what}")
        return out

    def at_points(self, points: np.ndarray) -> np.ndarray:
        """All components at arbitrary points, shape (N, dim)."""
        pts = np.asarray(points, float)
        if pts.ndim == 1:
            pts = pts[:, None]
        cols = [self._eval(c, pts, f"component {k}") for k, c in enumerate(self.components)]
        return np.column_stack(cols)

    def at_centers(self, grid: Grid) -> np.ndarray:
        return self.at_points(grid.cell_centers())

    def normal_at_faces(self, grid: Grid, axis: int) -> np.ndarray:
        """Normal component sampled at the interior face centers of ``axis``."""
        _, _, centers = grid.interior_faces(axis)
        return self._eval(self.components[axis], centers, f"component {axis}")

    def normal_at_boundary(self, grid: Grid, axis: int):
        """Normal component at the low and high boundary faces of ``axis`` (empty if periodic)."""
        _, low_c, _, high_c = grid.boundary_faces(axis)
        return tuple(self._eval(self.components[axis], c, f"component {axis}") for c in (low_c, high_c))

    def div_form(self) -> ScalarForm:
        """Exact divergence as a closed form."""
        out: ScalarForm = ZERO
        for k, c in enumerate(self.components):
            out = add(out, c.grad(k))
        return out

    def directional_derivative(self, scalar: ScalarForm) -> ScalarForm:
        """The derivative of ``scalar`` along this field, as a closed form."""
        out: ScalarForm = ZERO
        for k, c in enumerate(self.components):
            out = add(out, mul(c, scalar.grad(k)))
        return out

    def scaled(self, factor: ScalarForm) -> "VectorField":
        return VectorField([mul(factor, c) for c in self.components])

    def __repr__(self):
        return f"VectorField(dim={self.dim})"


def coordinate_field(dim: int, axis: int) -> VectorField:
    """The unit coordinate field e_axis."""
    comps = [ZERO] * dim
    comps[axis] = ONE
    return VectorField(comps)


def divergence(f: VectorField, grid: Grid) -> np.ndarray:
    """Discrete per-cell divergence from face-normal samples.

    For each cell, (1/vol) * sum of signed normal samples times face
    areas.  Second-order accurate for smooth fields; exact (up to
    roundoff) for fields whose normal component does not vary along the
    normal axis, and for curl-form drifts built from tensor-product
    stream functions.
    """
    out = np.zeros(grid.ncells)
    for axis in range(grid.dim):
        left, right, _ = grid.interior_faces(axis)
        vals = f.normal_at_faces(grid, axis) * grid.face_area(axis)
        # outward normal is +axis for the left cell, -axis for the right
        np.add.at(out, left, vals)
        np.add.at(out, right, -vals)
        low_cells, _, high_cells, _ = grid.boundary_faces(axis)
        lo, hi = f.normal_at_boundary(grid, axis)
        np.add.at(out, low_cells, -lo * grid.face_area(axis))
        np.add.at(out, high_cells, hi * grid.face_area(axis))
    return out / grid.cell_volume


# ---------------------------------------------------------------------------
# noise families and conservative systems
# ---------------------------------------------------------------------------


class NoiseFamily:
    """Epsilon-indexed collection {A_0, A_1..A_m} of vector fields.

    The drift correction A_0 and the diffusion fields A_i are the same
    at every epsilon; the noise level enters the operator only through
    its eps^2 scaling.  ``epsilons`` must be strictly decreasing and lie
    in (0, 1).
    """

    def __init__(self, m: int, a0: VectorField, ai: Sequence[VectorField],
                 epsilons: Sequence[float]):
        eps = tuple(float(e) for e in epsilons)
        if not eps:
            raise ValueError("epsilons must be nonempty")
        if any(not (0.0 < e < 1.0) for e in eps):
            raise ValueError(f"epsilons must lie in (0, 1), got {eps}")
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise ValueError(f"epsilons must be strictly decreasing, got {eps}")
        if m < 1 or len(ai) != m:
            raise ValueError(f"need m >= 1 diffusion fields, got m={m}, len(ai)={len(ai)}")
        self.m = int(m)
        self.epsilons = eps
        self._a0 = a0
        self._ai = list(ai)

    def a0(self, eps: float) -> VectorField:
        return self._a0

    def ai(self, eps: float) -> list[VectorField]:
        return list(self._ai)

    def __repr__(self):
        return f"NoiseFamily(m={self.m}, epsilons={self.epsilons})"


class ConservativeSystem:
    """Drift B with its known invariant density u0 on a grid.

    The per-cell samples of u0 are renormalized so that the discrete mass
    sum(u0 * vol) is exactly 1; the closed form keeps the same scaling.
    The discrete divergence of the face-sampled flux u0*B is computed at
    construction and reported as ``div_residual``.
    """

    def __init__(self, drift: VectorField, u0_form: ScalarForm, grid: Grid, name: str = ""):
        self.grid = grid
        self.name = name
        samples = u0_form(grid.cell_centers())
        if not np.all(np.isfinite(samples)):
            raise FieldEvaluationError("invariant density has non-finite samples")
        if np.any(samples <= 0.0):
            raise PositivityError("invariant density must be strictly positive on every cell")
        mass = float(np.sum(samples) * grid.cell_volume)
        self.u0_form = mul(Const(1.0 / mass), u0_form)
        self.u0 = samples / mass
        self.drift = drift
        flux = VectorField([mul(self.u0_form, c) for c in drift.components])
        self.div_residual = float(np.max(np.abs(divergence(flux, grid))))

    def __repr__(self):
        tag = self.name or "custom"
        return f"ConservativeSystem({tag}, {self.grid.describe()})"


# ---------------------------------------------------------------------------
# admissibility diagnostics
# ---------------------------------------------------------------------------


@dataclass
class AdmissibilityReport:
    p: float
    sup_norm_bound: float
    lam: float
    passes_A1: bool
    passes_A2: bool
    lambda_threshold: float


def _centered_diff(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Centered difference of a cell-sampled scalar along one axis.

    Periodic axes wrap; bounded axes fall back to one-sided differences in
    the first and last cell layer (diagnostic use only).
    """
    h = grid.h[axis]
    if grid.periodic[axis]:
        cells = np.arange(grid.ncells)
        return (values[grid.shift(cells, axis, +1)] - values[grid.shift(cells, axis, -1)]) / (2 * h)
    v = values.reshape(grid.lattice.shape)
    return np.gradient(v, h, axis=grid.lattice_axis(axis)).reshape(-1)


def diffusion_matrix(ai_fields: Sequence[VectorField], grid: Grid) -> np.ndarray:
    """Per-cell matrix a_jk = sum_i A_ij A_ik, shape (ncells, dim, dim)."""
    d = grid.dim
    out = np.zeros((grid.ncells, d, d))
    for f in ai_fields:
        vals = f.at_centers(grid)
        out += vals[:, :, None] * vals[:, None, :]
    return out


def smallest_eigenvalue(a: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue per cell of symmetric (ncells, d, d); closed form for d <= 2."""
    d = a.shape[-1]
    if d == 1:
        return a[:, 0, 0]
    tr = a[:, 0, 0] + a[:, 1, 1]
    gap = np.sqrt((a[:, 0, 0] - a[:, 1, 1]) ** 2 + 4.0 * a[:, 0, 1] ** 2)
    return 0.5 * (tr - gap)


def check_admissible(nf: NoiseFamily, grid: Grid, p: float, lambda_threshold: float = 1e-6) -> AdmissibilityReport:
    """Discrete admissibility diagnostics for a noise family.

    Norms use midpoint quadrature over cells with centered differences
    for the gradient part; the ellipticity constant is the exact minimum
    over cells and epsilons of the smallest eigenvalue of sum_i A_i A_i^T.
    """
    if p <= grid.dim:
        raise ValueError(f"integrability exponent must exceed the dimension, got p={p}, d={grid.dim}")
    if nf.m < grid.dim:
        raise ValueError(f"family has m={nf.m} < d={grid.dim} diffusion fields")
    vol = grid.cell_volume
    sup = 0.0
    lam = math.inf
    for eps in nf.epsilons:
        a0 = nf.a0(eps).at_centers(grid)
        norm_a0 = float(np.sum(np.linalg.norm(a0, axis=1) ** p * vol) ** (1.0 / p))
        worst = 0.0
        ai_fields = nf.ai(eps)
        for f in ai_fields:
            vals = f.at_centers(grid)
            grad_sq = np.zeros(grid.ncells)
            for j in range(grid.dim):
                for k in range(grid.dim):
                    grad_sq += _centered_diff(vals[:, j], grid, k) ** 2
            lp = np.sum(np.linalg.norm(vals, axis=1) ** p * vol)
            wp = np.sum(grad_sq ** (p / 2.0) * vol)
            worst = max(worst, float((lp + wp) ** (1.0 / p)))
        sup = max(sup, norm_a0 + worst)
        lam = min(lam, float(np.min(smallest_eigenvalue(diffusion_matrix(ai_fields, grid)))))
    return AdmissibilityReport(
        p=p,
        sup_norm_bound=sup,
        lam=lam,
        passes_A1=math.isfinite(sup),
        passes_A2=lam >= lambda_threshold,
        lambda_threshold=lambda_threshold,
    )


# ---------------------------------------------------------------------------
# the two explicit constructions
# ---------------------------------------------------------------------------


def transform_div_free(sys: ConservativeSystem, nf: NoiseFamily):
    """Convert to a system whose drift u0*B is divergence-free.

    Returns (new drift, new noise family) where the diffusion fields are
    scaled by sqrt(u0) and the drift correction absorbs the directional
    derivatives of sqrt(u0).  The stationary density of the transformed
    system equals u_eps / u0 of the original, which the consistency
    experiment verifies numerically.
    """
    if np.any(sys.u0 <= 0.0):
        raise PositivityError("transform requires a strictly positive invariant density")
    u0 = sys.u0_form
    sqrt_u0 = Power(u0, 0.5)
    new_drift = VectorField([mul(u0, c) for c in sys.drift.components])
    eps = nf.epsilons[0]
    ai = nf.ai(eps)
    comps = [mul(u0, c) for c in nf.a0(eps).components]
    for f in ai:
        corr = mul(Const(-0.5), mul(sqrt_u0, f.directional_derivative(sqrt_u0)))
        comps = [add(c, mul(corr, fc)) for c, fc in zip(comps, f.components)]
    return new_drift, NoiseFamily(nf.m, VectorField(comps), [f.scaled(sqrt_u0) for f in ai],
                                  nf.epsilons)


def construct_selecting_noise(u_form: ScalarForm, grid: Grid, epsilons) -> NoiseFamily:
    """Noise family whose unique stationary density is ``u_form`` exactly.

    Takes the coordinate fields as the generating frame (on flat domains
    the sum of their squares is the Laplacian), giving m = d with
    A_i = u^{-1/2} e_i and A_0 = (1/(4 u^2)) sum_i (d_i u) e_i, the same
    family at every epsilon.  Satisfies the ellipticity condition with
    constant 1 / max(u).
    """
    samples = u_form(grid.cell_centers())
    if np.any(samples <= 0.0) or not np.all(np.isfinite(samples)):
        raise PositivityError("selection target density must be strictly positive")
    d = grid.dim
    inv_sqrt = Power(u_form, -0.5)
    quarter_inv_sq = mul(Const(0.25), Power(u_form, -2.0))
    ai = [coordinate_field(d, k).scaled(inv_sqrt) for k in range(d)]
    a0 = VectorField([mul(quarter_inv_sq, u_form.grad(k)) for k in range(d)])
    return NoiseFamily(d, a0, ai, epsilons)


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------

CATALOG_NAMES = (
    "circle-positive",
    "torus-rotation",
    "torus-shear",
    "hamiltonian-cellular",
    "zero-drift",
)

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def builtin_catalog(name: str, grid: Grid) -> ConservativeSystem:
    """Named benchmark systems with known invariant densities.

    circle-positive      B = 2 + sin(2 pi x) on the circle, u0 = gamma / B
    torus-rotation       constant B = (1, golden ratio), u0 = 1
    torus-shear          B = (2 + cos(2 pi y), 0), u0 = 1
    hamiltonian-cellular curl of the cellular stream function, u0 = 1
    zero-drift           B = 0 on any domain kind, u0 = 1

    The circle-positive normalizer gamma is the reciprocal of the cell
    midpoint sum of 1/B, which makes the discrete mass of u0 exactly one
    and keeps u0 * B exactly constant on every sample.
    """
    kind = grid.kind
    if name == "circle-positive":
        _require(kind, Circle, name)
        L = kind.length
        drift = VectorField([Trig("sin", 0, 1, 1.0, 2.0, L)])
        inv_b = Power(drift.components[0], -1.0)
        gamma = 1.0 / float(np.sum(inv_b(grid.cell_centers())) * grid.cell_volume)
        u0 = mul(Const(gamma), inv_b)
        return ConservativeSystem(drift, u0, grid, name)
    if name == "torus-rotation":
        _require(kind, Torus2, name)
        drift = VectorField.constant([1.0, GOLDEN_RATIO])
        return ConservativeSystem(drift, ONE, grid, name)
    if name == "torus-shear":
        _require(kind, Torus2, name)
        drift = VectorField([Trig("cos", 1, 1, 1.0, 2.0, kind.ly), ZERO])
        return ConservativeSystem(drift, ONE, grid, name)
    if name == "hamiltonian-cellular":
        _require(kind, Torus2, name)
        # stream function (1/2pi) sin(2 pi x) sin(2 pi y); drift is its curl
        bx = mul(Const(-1.0), mul(Trig("sin", 0, 1, 1.0, 0.0, kind.lx), Trig("cos", 1, 1, 1.0, 0.0, kind.ly)))
        by = mul(Trig("cos", 0, 1, 1.0, 0.0, kind.lx), Trig("sin", 1, 1, 1.0, 0.0, kind.ly))
        return ConservativeSystem(VectorField([bx, by]), ONE, grid, name)
    if name == "zero-drift":
        return ConservativeSystem(VectorField.zero(grid.dim), ONE, grid, name)
    raise CatalogError(f"unknown system {name!r}; choose from {', '.join(CATALOG_NAMES)}")


def _require(kind, expected, name):
    if not isinstance(kind, expected):
        raise CatalogError(f"{name} requires a {expected.__name__} domain, got {type(kind).__name__}")


def coordinate_noise(grid: Grid, epsilons) -> NoiseFamily:
    """Homogeneous noise from the coordinate fields (a = identity)."""
    d = grid.dim
    ai = [coordinate_field(d, k) for k in range(d)]
    return NoiseFamily(d, VectorField.zero(d), ai, epsilons)
