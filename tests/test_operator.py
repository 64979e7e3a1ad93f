import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from noisyflow.errors import AssemblyError
from noisyflow.fields import (
    Const,
    NoiseFamily,
    Trig,
    VectorField,
    builtin_catalog,
    construct_selecting_noise,
    coordinate_noise,
)
from noisyflow.geometry import Circle, Interval, Rectangle, Torus2, build_grid
from noisyflow.operator import (
    assemble_for,
    bernoulli,
    derive_drift_diffusion,
)
from noisyflow.stationary import pinned_system, solve_stationary


# ---------------------------------------------------------------------------
# Bernoulli function
# ---------------------------------------------------------------------------


def test_bernoulli_identity():
    # B(-z) - B(z) = z is the algebraic identity behind constant exactness
    z = np.array([1e-8, 1e-5, 1e-3, 0.1, 1.0, 10.0, 100.0, 600.0])
    assert np.allclose(bernoulli(-z) - bernoulli(z), z, rtol=1e-12)


def test_bernoulli_limits_and_series():
    assert bernoulli(np.array([0.0]))[0] == 1.0
    assert bernoulli(np.array([800.0]))[0] == 0.0
    assert bernoulli(np.array([-800.0]))[0] == 800.0
    # the series branch agrees with the direct formula near the cutoff
    for z in (0.9e-4, 1.1e-4, -0.9e-4, -1.1e-4):
        series = 1.0 - 0.5 * z + z * z / 12.0
        direct = z / np.expm1(z)
        assert abs(series - direct) <= 1e-15
        assert abs(bernoulli(np.array([z]))[0] - direct) <= 1e-15


# ---------------------------------------------------------------------------
# assembly structure
# ---------------------------------------------------------------------------


def test_pure_laplacian_matrix():
    g = build_grid(Circle(), 8)
    sys = builtin_catalog("zero-drift", g)
    nf = coordinate_noise(g, [0.9])
    op = assemble_for(sys, nf, 0.9)
    h = g.h[0]
    d = 0.5 * 0.9 ** 2
    expected = (d / h ** 2) * (np.roll(np.eye(8), 1, 0) + np.roll(np.eye(8), -1, 0) - 2 * np.eye(8))
    assert np.array_equal(op.matrix.toarray(), expected)


def test_uniform_in_kernel_for_rotation():
    g = build_grid(Torus2(), (16, 16))
    sys = builtin_catalog("torus-rotation", g)
    nf = coordinate_noise(g, [0.5])
    op = assemble_for(sys, nf, 0.5)
    ones = np.ones(g.ncells)
    assert np.max(np.abs(op.apply(ones))) <= 1e-13 * op.inf_norm()


def test_column_sums_and_irreducibility():
    g = build_grid(Circle(), 64)
    sys = builtin_catalog("circle-positive", g)
    nf = coordinate_noise(g, [0.3])
    op = assemble_for(sys, nf, 0.3)
    assert op.column_sum_max() <= 1e-13 * op.inf_norm()
    assert op.is_irreducible()
    assert op.min_offdiagonal >= 0.0
    assert np.all(op.matrix.diagonal() <= 0.0)


def test_derive_coefficients_constant_diffusion():
    g = build_grid(Circle(), 32)
    sys = builtin_catalog("circle-positive", g)
    nf = coordinate_noise(g, [0.3])
    dd = derive_drift_diffusion(sys, nf, 0.3)
    assert np.allclose(dd.a[:, 0, 0], 1.0)
    assert np.max(np.abs(dd.dcorr)) == 0.0
    _, _, centers = g.interior_faces(0)
    expected = 2.0 + np.sin(2 * np.pi * centers[:, 0])
    assert np.allclose(dd.ceff[0], expected, atol=1e-14)


def test_derive_rejects_foreign_eps():
    g = build_grid(Circle(), 16)
    sys = builtin_catalog("zero-drift", g)
    nf = coordinate_noise(g, [0.5])
    with pytest.raises(ValueError):
        derive_drift_diffusion(sys, nf, 0.25)


def test_selection_family_flux_vanishes_symbolically():
    # for the selecting family, a u* = 1 and b = A0 + sum A_i A_i'/2 = 0,
    # so the exact density carries zero flux pointwise
    g = build_grid(Circle(), 64)
    u = Trig("cos", 0, 1, 0.5, 1.0, 1.0)
    nf = construct_selecting_noise(u, g, [0.3])
    x = np.linspace(0, 1, 257)[:, None]
    a1 = nf.ai(0.3)[0].components[0]
    a_total = a1(x) ** 2
    u_vals = u(x)
    assert np.allclose(a_total * u_vals, 1.0, atol=1e-13)
    b = nf.a0(0.3).components[0](x) + 0.5 * a1(x) * a1.grad(0)(x)
    assert np.max(np.abs(b)) <= 1e-13


def test_apply_laplacian_eigenfunction():
    # cos(2 pi x) is an exact eigenvector of the discrete Laplacian with
    # eigenvalue -(eps^2/2)(2/h^2)(1 - cos 2 pi h); compare to the
    # continuum rate -2 pi^2 eps^2
    eps = 0.5
    errors = {}
    for n in (64, 128):
        g = build_grid(Circle(), n)
        sys = builtin_catalog("zero-drift", g)
        nf = coordinate_noise(g, [eps])
        op = assemble_for(sys, nf, eps)
        v = np.cos(2 * np.pi * g.cell_centers()[:, 0])
        target = -2 * np.pi ** 2 * eps ** 2 * v
        errors[n] = np.max(np.abs(op.apply(v) - target))
    assert errors[64] <= 4.5e-3
    assert 3.5 <= errors[64] / errors[128] <= 4.5


def test_apply_advection_diffusion_refinement_consistency():
    # against the analytic image (eps^2/2) v'' - (B v)' of a smooth v
    eps = 0.3
    errors = {}
    for n in (128, 256):
        g = build_grid(Circle(), n)
        sys = builtin_catalog("circle-positive", g)
        op = assemble_for(sys, coordinate_noise(g, [eps]), eps)
        x = g.cell_centers()[:, 0]
        v = 1.0 + 0.5 * np.cos(2 * np.pi * x)
        vpp = -0.5 * (2 * np.pi) ** 2 * np.cos(2 * np.pi * x)
        b = 2.0 + np.sin(2 * np.pi * x)
        bp = 2 * np.pi * np.cos(2 * np.pi * x)
        vp = -np.pi * np.sin(2 * np.pi * x)
        target = 0.5 * eps ** 2 * vpp - (bp * v + b * vp)
        errors[n] = np.max(np.abs(op.apply(v) - target))
    assert 3.0 <= errors[128] / errors[256] <= 5.0


def test_apply_constant_is_zero_and_dimension_check():
    g = build_grid(Circle(), 32)
    sys = builtin_catalog("zero-drift", g)
    op = assemble_for(sys, coordinate_noise(g, [0.5]), 0.5)
    assert np.max(np.abs(op.apply(np.ones(32)))) == 0.0
    with pytest.raises(ValueError):
        op.apply(np.ones(31))


def test_apply_conserves_mass():
    g = build_grid(Circle(), 64)
    sys = builtin_catalog("circle-positive", g)
    op = assemble_for(sys, coordinate_noise(g, [0.3]), 0.3)
    rng = np.random.default_rng(7)
    v = rng.random(64)
    assert abs(np.sum(op.apply(v)) * g.cell_volume) <= 1e-12 * np.max(np.abs(v)) * op.inf_norm() * g.cell_volume


def test_zero_flux_assembly_drops_boundary():
    g = build_grid(Interval(), 16)
    sys = builtin_catalog("zero-drift", g)
    op = assemble_for(sys, coordinate_noise(g, [0.5]), 0.5)
    assert op.bc == "zero-flux"
    # first row couples only to the single interior neighbor
    row0 = op.matrix.getrow(0)
    assert set(row0.indices) <= {0, 1}
    assert op.column_sum_max() <= 1e-13 * op.inf_norm()


def test_cross_diffusion_flagged_and_conservative():
    g = build_grid(Torus2(), (16, 16))
    sys = builtin_catalog("zero-drift", g)
    a1 = VectorField.constant([1.0, 0.5])
    a2 = VectorField.constant([0.0, 1.0])
    nf = NoiseFamily(2, VectorField.zero(2), [a1, a2], [0.5])
    op = assemble_for(sys, nf, 0.5)
    assert op.has_cross_diffusion
    assert op.column_sum_max() <= 1e-13 * op.inf_norm()
    # constants stay in the kernel: tangential gradients of a constant vanish
    assert np.max(np.abs(op.apply(np.ones(g.ncells)))) <= 1e-13 * op.inf_norm()
    rep = solve_stationary(op)
    assert np.max(np.abs(rep.density.values - 1.0)) <= 1e-9


def test_cross_diffusion_on_a_non_square_torus_is_conservative_and_second_order():
    # a = [[1, 0.5], [0.5, 1.25]]; zero drift, so M u = (eps^2/2) div(a grad u)
    lx, ly, eps = 1.5, 1.0, 0.5
    a1 = VectorField.constant([1.0, 0.5])
    a2 = VectorField.constant([0.0, 1.0])
    k = 2 * np.pi * np.array([1 / lx, 1 / ly])
    k_a_k = k @ np.array([[1.0, 0.5], [0.5, 1.25]]) @ k
    errors = []
    for n in ((12, 10), (24, 20)):
        g = build_grid(Torus2(lx, ly), n)
        nf = NoiseFamily(2, VectorField.zero(2), [a1, a2], [eps])
        op = assemble_for(builtin_catalog("zero-drift", g), nf, eps)
        assert op.has_cross_diffusion
        assert op.column_sum_max() <= 1e-13 * op.inf_norm()
        u = np.cos(g.cell_centers() @ k)
        errors.append(np.max(np.abs(op.apply(u) + 0.5 * eps ** 2 * k_a_k * u)))
    assert 3.6 <= errors[0] / errors[1] <= 4.4


def test_cross_diffusion_requires_spd():
    g = build_grid(Torus2(), (8, 8))
    sys = builtin_catalog("zero-drift", g)
    a1 = VectorField.constant([1.0, 1.0])  # rank-one diffusion matrix
    nf = NoiseFamily(2, VectorField.zero(2), [a1, a1], [0.5])
    with pytest.raises(AssemblyError):
        assemble_for(sys, nf, 0.5)


def test_matrix_dump_format(tmp_path):
    g = build_grid(Circle(), 8)
    sys = builtin_catalog("zero-drift", g)
    op = assemble_for(sys, coordinate_noise(g, [0.5]), 0.5)
    path = tmp_path / "matrix.txt"
    op.write_coordinate_text(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + op.matrix.nnz
    row, col, value = lines[1].split()
    int(row), int(col), float(value)


def test_assembly_bit_identical():
    def build():
        g = build_grid(Torus2(), (32, 32))
        sys = builtin_catalog("torus-shear", g)
        return assemble_for(sys, coordinate_noise(g, [0.3]), 0.3)

    a, b = build(), build()
    assert np.array_equal(a.matrix.data, b.matrix.data)
    assert np.array_equal(a.matrix.indices, b.matrix.indices)
    assert np.array_equal(a.matrix.indptr, b.matrix.indptr)


# ---------------------------------------------------------------------------
# the precondition for LU without pivoting
# ---------------------------------------------------------------------------

CATALOG_ON_DOMAINS = [
    (Circle, "circle-positive"), (Circle, "zero-drift"), (Interval, "zero-drift"),
    (Torus2, "torus-rotation"), (Torus2, "torus-shear"), (Torus2, "hamiltonian-cellular"),
    (Torus2, "zero-drift"), (Rectangle, "zero-drift"),
]


@st.composite
def catalog_operators(draw):
    """A catalog system with coordinate noise on a random small grid."""
    kind_cls, name = draw(st.sampled_from(CATALOG_ON_DOMAINS))
    dim = 2 if kind_cls in (Torus2, Rectangle) else 1
    lengths = draw(st.lists(st.floats(0.5, 2.0), min_size=dim, max_size=dim))
    kind = {
        Circle: lambda: Circle(lengths[0]),
        Interval: lambda: Interval(0.0, lengths[0]),
        Torus2: lambda: Torus2(*lengths),
        Rectangle: lambda: Rectangle(0.0, lengths[0], 0.0, lengths[1]),
    }[kind_cls]()
    n = draw(st.lists(st.integers(4, 14), min_size=dim, max_size=dim))
    eps = draw(st.floats(0.05, 0.95))
    g = build_grid(kind, n)
    return assemble_for(builtin_catalog(name, g), coordinate_noise(g, [eps]), eps)


def column_margins(matrix):
    """|A_jj| - sum_{i != j} |A_ij| for every column j."""
    dense = np.abs(matrix.toarray())
    diag = np.diag(dense)
    return diag - (dense.sum(axis=0) - diag), diag


@settings(max_examples=40, deadline=None)
@given(catalog_operators())
def test_generator_has_zero_column_sums_and_nonnegative_offdiagonals(op):
    assert not op.has_cross_diffusion
    m = op.matrix.toarray()
    scale = np.max(np.abs(np.diag(m)))
    assert np.max(np.abs(m.sum(axis=0))) <= 1e-13 * scale
    offdiag = m - np.diag(np.diag(m))
    assert offdiag.min() >= 0.0


@settings(max_examples=40, deadline=None)
@given(catalog_operators(), st.floats(1e-6, 1e3))
def test_pinned_and_step_matrices_are_column_diagonally_dominant(op, dt):
    m = op.matrix
    tol = 1e-13 * float(np.max(np.abs(m.diagonal())))
    # pinned: every column weakly dominant, strictly where the pin removed an entry
    pinned, rhs = pinned_system(m)
    row = int(np.flatnonzero(rhs)[0])
    margins, _ = column_margins(pinned)
    assert margins.min() >= -tol
    lost = m[row].toarray().ravel()
    lost[row] = 0.0
    hit = lost > 0.0
    assert np.any(hit)
    assert np.all(margins[hit] >= lost[hit] - tol)
    # (I - dt M): every margin is 1 up to roundoff
    step = sp.identity(m.shape[0], format="csr") - dt * m
    margins, diag = column_margins(step)
    assert np.all(margins >= 1.0 - 1e-13 * diag)
