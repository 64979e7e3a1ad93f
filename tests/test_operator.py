from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from noisyflow.config import parse_config
from noisyflow.errors import AssemblyError, BoundaryError, ConfigError
from noisyflow.fields import (
    ConservativeSystem,
    Const,
    Noise,
    Trig,
    VectorField,
    builtin_catalog,
    construct_selecting_noise,
    coordinate_noise,
)
from noisyflow.geometry import Circle, Interval, Rectangle, Torus2, build_grid
from noisyflow.operator import (
    FokkerPlanckOperator,
    assemble_for,
    assemble_fp_operator,
    bernoulli,
    derive_drift_diffusion,
)
from noisyflow.stationary import pinned_system, solve_stationary

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def column_sum_max(op) -> float:
    """The largest column sum of the operator matrix in magnitude (zero for a conservative one)."""
    return float(np.max(np.abs(np.asarray(op.matrix.sum(axis=0)).ravel())))


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
    nf = coordinate_noise(g)
    op = assemble_for(sys, nf, 0.9)
    h = g.h[0]
    d = 0.5 * 0.9 ** 2
    expected = (d / h ** 2) * (np.roll(np.eye(8), 1, 0) + np.roll(np.eye(8), -1, 0) - 2 * np.eye(8))
    assert np.array_equal(op.matrix.toarray(), expected)


def test_uniform_in_kernel_for_rotation():
    g = build_grid(Torus2(), (16, 16))
    sys = builtin_catalog("torus-rotation", g)
    nf = coordinate_noise(g)
    op = assemble_for(sys, nf, 0.5)
    ones = np.ones(g.ncells)
    assert np.max(np.abs(op.matrix @ ones)) <= 1e-13 * op.inf_norm()


def test_column_sums_and_irreducibility():
    g = build_grid(Circle(), 64)
    sys = builtin_catalog("circle-positive", g)
    nf = coordinate_noise(g)
    op = assemble_for(sys, nf, 0.3)
    assert column_sum_max(op) <= 1e-13 * op.inf_norm()
    assert op.is_irreducible()
    offdiagonal = op.matrix.copy()
    offdiagonal.setdiag(0.0)
    assert offdiagonal.data.min() >= 0.0
    assert np.all(op.matrix.diagonal() <= 0.0)


@pytest.mark.parametrize("kind, n, name", [(Circle(), 64, "circle-positive"), (Torus2(), (12, 10), "torus-shear"),
                                           (Interval(), 32, "zero-drift"), (Rectangle(), (12, 10), "zero-drift")])
def test_positive_face_rates_are_irreducible_without_a_search(kind, n, name, graph_searches):
    g = build_grid(kind, n)
    op = assemble_for(builtin_catalog(name, g), coordinate_noise(g), 0.3)
    assert op.positive_rates and not op.has_cross_diffusion
    assert op.is_irreducible()
    assert graph_searches == [0]
    # the search agrees with the rule
    if g.dim == 1:
        searched = FokkerPlanckOperator(None, g, False, positive_rates=False, bands=op.bands)
    else:
        searched = FokkerPlanckOperator(op.matrix, g, False)
    assert searched.is_irreducible()
    assert graph_searches == [1]


def test_underflowed_face_rates_go_through_the_search(graph_searches):
    # face Peclet B h / (eps^2 / 2) >= 2500 > 709 with B >= 1 and h = 1/8:
    # bernoulli(P) is 0, so every face couples one way only, along the drift
    eps = 0.01
    circle = build_grid(Circle(), 8)
    op = assemble_for(builtin_catalog("circle-positive", circle), coordinate_noise(circle), eps)
    k_back = op.matrix.diagonal(-7)[0], *op.matrix.diagonal(1)  # M[i, i + 1 mod n]: rates against the drift
    assert not op.positive_rates and max(k_back) == 0.0
    assert op.is_irreducible()  # a one-way cycle is strongly connected
    assert graph_searches == [1]
    # on an interval a one-way path is not
    interval = build_grid(Interval(), 8)
    system = ConservativeSystem(VectorField.constant([2.0]), Const(1.0), interval)
    op = assemble_for(system, coordinate_noise(interval), eps)
    assert not op.positive_rates
    assert not op.is_irreducible()
    assert graph_searches == [2]


def test_cross_diffusion_goes_through_the_search(graph_searches):
    g = build_grid(Torus2(), (16, 16))
    nf = Noise(VectorField.zero(2), (VectorField.constant([1.0, 0.5]), VectorField.constant([0.0, 1.0])))
    op = assemble_for(builtin_catalog("zero-drift", g), nf, 0.5)
    assert op.positive_rates and op.has_cross_diffusion
    assert op.is_irreducible()
    assert graph_searches == [1]


def test_derive_coefficients_constant_diffusion():
    g = build_grid(Circle(), 32)
    sys = builtin_catalog("circle-positive", g)
    nf = coordinate_noise(g)
    dd = derive_drift_diffusion(sys, nf, 0.3)
    assert np.allclose(dd.a[:, 0, 0], 1.0)
    # coordinate noise has no drift correction: the effective drift is B, bit for bit
    assert np.array_equal(dd.ceff[0], sys.drift.normal_at_faces(g, 0))
    _, _, centers = g.interior_faces(0)
    expected = 2.0 + np.sin(2 * np.pi * centers[:, 0])
    assert np.allclose(dd.ceff[0], expected, atol=1e-14)


def test_selection_family_flux_vanishes_symbolically():
    # for the selecting family, a u* = 1 and b = A0 + sum A_i A_i'/2 = 0,
    # so the exact density carries zero flux pointwise
    g = build_grid(Circle(), 64)
    u = Trig("cos", 0, 1, 0.5, 1.0, 1.0)
    nf = construct_selecting_noise(u, g)
    x = np.linspace(0, 1, 257)[:, None]
    a1 = nf.ai_fields[0].components[0]
    a_total = a1(x) ** 2
    u_vals = u(x)
    assert np.allclose(a_total * u_vals, 1.0, atol=1e-13)
    b = nf.a0_field.components[0](x) + 0.5 * a1(x) * a1.grad(0)(x)
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
        nf = coordinate_noise(g)
        op = assemble_for(sys, nf, eps)
        v = np.cos(2 * np.pi * g.cell_centers()[:, 0])
        target = -2 * np.pi ** 2 * eps ** 2 * v
        errors[n] = np.max(np.abs(op.matrix @ v - target))
    assert errors[64] <= 4.5e-3
    assert 3.5 <= errors[64] / errors[128] <= 4.5


def test_apply_advection_diffusion_refinement_consistency():
    # against the analytic image (eps^2/2) v'' - (B v)' of a smooth v
    eps = 0.3
    errors = {}
    for n in (128, 256):
        g = build_grid(Circle(), n)
        sys = builtin_catalog("circle-positive", g)
        op = assemble_for(sys, coordinate_noise(g), eps)
        x = g.cell_centers()[:, 0]
        v = 1.0 + 0.5 * np.cos(2 * np.pi * x)
        vpp = -0.5 * (2 * np.pi) ** 2 * np.cos(2 * np.pi * x)
        b = 2.0 + np.sin(2 * np.pi * x)
        bp = 2 * np.pi * np.cos(2 * np.pi * x)
        vp = -np.pi * np.sin(2 * np.pi * x)
        target = 0.5 * eps ** 2 * vpp - (bp * v + b * vp)
        errors[n] = np.max(np.abs(op.matrix @ v - target))
    assert 3.0 <= errors[128] / errors[256] <= 5.0


def test_apply_constant_is_zero():
    g = build_grid(Circle(), 32)
    sys = builtin_catalog("zero-drift", g)
    op = assemble_for(sys, coordinate_noise(g), 0.5)
    assert np.max(np.abs(op.matrix @ np.ones(32))) == 0.0


def test_apply_conserves_mass():
    g = build_grid(Circle(), 64)
    sys = builtin_catalog("circle-positive", g)
    op = assemble_for(sys, coordinate_noise(g), 0.3)
    rng = np.random.default_rng(7)
    v = rng.random(64)
    assert abs(np.sum(op.matrix @ v) * g.cell_volume) <= 1e-12 * np.max(np.abs(v)) * op.inf_norm() * g.cell_volume


def test_zero_flux_assembly_drops_boundary():
    g = build_grid(Interval(), 16)
    sys = builtin_catalog("zero-drift", g)
    op = assemble_for(sys, coordinate_noise(g), 0.5)
    # first row couples only to the single interior neighbor
    row0 = op.matrix.getrow(0)
    assert set(row0.indices) <= {0, 1}
    assert column_sum_max(op) <= 1e-13 * op.inf_norm()


def test_cross_diffusion_flagged_and_conservative():
    g = build_grid(Torus2(), (16, 16))
    sys = builtin_catalog("zero-drift", g)
    a1 = VectorField.constant([1.0, 0.5])
    a2 = VectorField.constant([0.0, 1.0])
    nf = Noise(VectorField.zero(2), (a1, a2))
    op = assemble_for(sys, nf, 0.5)
    assert op.has_cross_diffusion
    assert column_sum_max(op) <= 1e-13 * op.inf_norm()
    # constants stay in the kernel: tangential gradients of a constant vanish
    assert np.max(np.abs(op.matrix @ np.ones(g.ncells))) <= 1e-13 * op.inf_norm()
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
        nf = Noise(VectorField.zero(2), (a1, a2))
        op = assemble_for(builtin_catalog("zero-drift", g), nf, eps)
        assert op.has_cross_diffusion
        assert column_sum_max(op) <= 1e-13 * op.inf_norm()
        u = np.cos(g.cell_centers() @ k)
        errors.append(np.max(np.abs(op.matrix @ u + 0.5 * eps ** 2 * k_a_k * u)))
    assert 3.6 <= errors[0] / errors[1] <= 4.4


def inf_norm_case(case):
    """An assembled operator: periodic 1D, bounded 2D, or periodic 2D with cross diffusion."""
    if case == "periodic":
        g = build_grid(Circle(), 256)
        return assemble_for(builtin_catalog("circle-positive", g), coordinate_noise(g), 0.3)
    if case == "bounded":
        g = build_grid(Rectangle(), (20, 16))
        noise = Noise(VectorField.zero(2), (VectorField([Trig("cos", 0, 1, 0.3, 1.0, 1.0), Const(0.0)]),
                                            VectorField.constant([0.0, 1.0])))
        return assemble_for(builtin_catalog("zero-drift", g), noise, 0.4)
    g = build_grid(Torus2(), (16, 16))
    a1 = VectorField([Trig("cos", 0, 1, 0.3, 1.0, 1.0), Trig("sin", 1, 1, 0.2, 0.5, 1.0)])
    noise = Noise(VectorField.zero(2), (a1, VectorField.constant([0.0, 1.0])))
    op = assemble_for(builtin_catalog("hamiltonian-cellular", g), noise, 0.5)
    assert op.has_cross_diffusion
    return op


@pytest.mark.parametrize("case", ["periodic", "bounded", "cross-diffusion"])
def test_inf_norm_has_the_bits_of_the_absolute_row_sums(case):
    op = inf_norm_case(case)
    assert op.inf_norm() == float(np.max(np.abs(op.matrix).sum(axis=1)))
    if op.grid.dim == 1:  # a 1D operator is given by its bands, whose row sums hold three terms
        return
    # an empty row (here the first one) adds a zero row sum and nothing else
    m = op.matrix.copy()
    m.data[m.indptr[0]:m.indptr[1]] = 0.0
    m.eliminate_zeros()
    emptied = FokkerPlanckOperator(m, op.grid, op.has_cross_diffusion)
    assert emptied.inf_norm() == float(np.max(np.abs(m).sum(axis=1)))
    assert FokkerPlanckOperator(sp.csr_matrix(m.shape), op.grid, False).inf_norm() == 0.0


# ---------------------------------------------------------------------------
# 1D operators as three bands
# ---------------------------------------------------------------------------


def face_loop_csr(dd):
    """The CSR of a 1D operator as a face loop builds it: four COO entries per face, duplicates summed."""
    g = dd.grid
    left, right, _ = g.interior_faces(0)
    h = g.h[0]
    dface = 0.5 * dd.eps * dd.eps * 0.5 * (dd.a[left, 0, 0] + dd.a[right, 0, 0])
    peclet = dd.ceff[0] * h / dface
    scale = dface * g.face_area(0) / (h * g.cell_volume)
    k_left, k_right = scale * bernoulli(-peclet), scale * bernoulli(peclet)
    rows = np.concatenate((left, right, left, right))
    cols = np.concatenate((left, left, right, right))
    vals = np.concatenate((-k_left, k_left, k_right, -k_right))
    return sp.coo_matrix((vals, (rows, cols)), shape=(g.ncells, g.ncells)).tocsr()


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


BAND_CASES = [
    (Circle(), "circle-positive", n, eps) for n in (4, 64, 4096) for eps in (0.4, 0.1)
] + [
    (Interval(), "zero-drift", n, 0.3) for n in (4, 64, 4096)
] + [
    (Circle(), "circle-positive", 8, 0.01),  # every rate against the drift underflows to a stored 0
]


@pytest.mark.parametrize("kind, name, n, eps", BAND_CASES)
def test_a_1d_matrix_is_built_from_the_bands_with_the_face_loop_bits(kind, name, n, eps):
    g = build_grid(kind, n)
    dd = derive_drift_diffusion(builtin_catalog(name, g), coordinate_noise(g), eps)
    op = assemble_fp_operator(dd)
    assert "matrix" not in vars(op)  # assembly keeps the bands only
    expected = face_loop_csr(dd)
    for part in ("indptr", "indices", "data"):
        assert same_bits(getattr(op.matrix, part), getattr(expected, part))
    assert op.matrix.nnz == (3 * n if g.periodic[0] else 3 * n - 2)
    if eps == 0.01:
        assert np.count_nonzero(op.matrix.data == 0.0) == n


@pytest.mark.parametrize("kind, name, n, eps", BAND_CASES)
def test_band_product_and_norm_have_the_bits_of_the_csr(kind, name, n, eps):
    g = build_grid(kind, n)
    op = assemble_for(builtin_catalog(name, g), coordinate_noise(g), eps)
    rng = np.random.default_rng(n)
    m = op.matrix
    for u in (rng.random(n), rng.standard_normal(n), np.ones(n)):
        assert same_bits(op.apply(u), m @ u)  # csr_matvec: (x0 + x1) + x2 per row, in column order
    # reduceat: x0 + (x1 + x2) per row; every row of an assembled operator holds entries
    assert op.inf_norm() == float(np.max(np.add.reduceat(np.abs(m.data), m.indptr[:-1])))


def test_a_1d_operator_takes_bands_and_any_other_a_matrix():
    circle = build_grid(Circle(), 16)
    op = assemble_for(builtin_catalog("circle-positive", circle), coordinate_noise(circle), 0.3)
    torus = build_grid(Torus2(), (4, 4))
    flat = assemble_for(builtin_catalog("zero-drift", torus), coordinate_noise(torus), 0.3)
    message = "^a 1D operator is given by its bands, any other by its matrix$"
    for matrix, grid, bands in ((op.matrix, circle, None), (op.matrix, circle, op.bands), (None, circle, None),
                                (None, torus, op.bands), (flat.matrix, torus, op.bands), (None, torus, None)):
        with pytest.raises(ValueError, match=message):
            FokkerPlanckOperator(matrix, grid, False, bands=bands)


def test_cross_diffusion_requires_spd():
    g = build_grid(Torus2(), (8, 8))
    sys = builtin_catalog("zero-drift", g)
    a1 = VectorField.constant([1.0, 1.0])  # rank-one diffusion matrix
    nf = Noise(VectorField.zero(2), (a1, a1))
    with pytest.raises(AssemblyError):
        assemble_for(sys, nf, 0.5)


def test_assembly_bit_identical():
    def build():
        g = build_grid(Torus2(), (32, 32))
        sys = builtin_catalog("torus-shear", g)
        return assemble_for(sys, coordinate_noise(g), 0.3)

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
    return assemble_for(builtin_catalog(name, g), coordinate_noise(g), eps)


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


def is_canonical(matrix) -> bool:
    """Sorted column indices and no duplicate entries, recomputed from the stored arrays."""
    fresh = sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
    return matrix.has_canonical_format and fresh.has_canonical_format


@pytest.mark.parametrize("kind_cls, name", CATALOG_ON_DOMAINS)
def test_every_catalog_operator_is_canonical(kind_cls, name):
    # COO -> CSR sums the duplicate (row, col) entries and sorts each row, so
    # assembly calls no sum_duplicates of its own
    g = build_grid(kind_cls(), (8, 6) if kind_cls in (Torus2, Rectangle) else (8,))
    assert is_canonical(assemble_for(builtin_catalog(name, g), coordinate_noise(g), 0.3).matrix)


def test_cross_diffusion_operator_is_canonical():
    # the cross stencil adds several entries at one (row, col); CSR holds their sum once
    assert is_canonical(inf_norm_case("cross-diffusion").matrix)


def corpus_operators():
    """(config name, operator) at every epsilon of every configuration in ``configs/`` that builds."""
    for path in sorted(CONFIGS.glob("*.ini")):
        try:
            cfg = parse_config(path.read_text())
            grid, system, noise = cfg.build()
        except (ConfigError, BoundaryError):
            continue
        for eps in cfg.epsilons:
            yield path.stem, assemble_for(system, noise, eps)


def test_every_corpus_matrix_owns_exactly_its_entries():
    # COO -> CSR sums a 2D cell's four diagonal entries in place and leaves the
    # CSR's arrays views of the longer COO buffers; the CSR keeps copies of nnz
    dims = set()
    for name, op in corpus_operators():
        m = op.matrix
        for part in (m.data, m.indices):
            assert part.base is None or part.base.size == m.nnz, name
        dims.add((op.grid.dim, op.has_cross_diffusion))
    assert dims == {(1, False), (2, False), (2, True)}  # cross-diffusion-torus included


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
