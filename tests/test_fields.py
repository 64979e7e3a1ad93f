import gc
import math
from pathlib import Path

import numpy as np
import pytest

from noisyflow.config import parse_config
from noisyflow.errors import CatalogError, FieldEvaluationError, PositivityError
from noisyflow.fields import (
    Affine,
    Const,
    ConservativeSystem,
    Noise,
    Power,
    Product,
    Sum,
    Trig,
    VectorField,
    builtin_catalog,
    check_admissible,
    construct_selecting_noise,
    coordinate_field,
    coordinate_noise,
    correction_forms,
    diffusion_forms,
    divergence,
    mul,
    smallest_eigenvalue,
    diffusion_matrix,
    transform_div_free,
)
from noisyflow.geometry import Circle, Rectangle, Torus2, build_grid
from noisyflow.operator import derive_drift_diffusion


def div_residual(system):
    """Largest face divergence of the flux u0 B."""
    flux = VectorField([mul(system.u0_form, c) for c in system.drift.components])
    return float(np.max(np.abs(divergence(flux, system.grid))))


def simpson(f, a, b, panels):
    """Test-local quadrature oracle, independent of the package code."""
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = (b - a) / panels
    return (h / 6.0) * np.sum(f(edges[:-1]) + 4.0 * f(mids) + f(edges[1:]))


GAMMA = 1.0 / simpson(lambda x: 1.0 / (2.0 + np.sin(2 * np.pi * x)), 0.0, 1.0, 1 << 14)


def test_quadrature_gamma_is_sqrt3():
    assert abs(GAMMA - math.sqrt(3.0)) <= 1e-12


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


SAMPLE_FORMS = {
    "const": Const(2.5),
    "affine": Affine(0, 1.0, 0.0),
    "trig": Trig("cos", 0, 1, 1.0, 0.0, 1.0),
    "sum": Sum(Const(1.0), Const(2.0)),
    "product": Product(Affine(0, 1.0), Trig("sin", 0, 2, 0.5, 1.0, 1.0)),
    "power": Power(Trig("sin", 0, 1, 1.0, 2.0, 1.0), -0.5),
}


@pytest.mark.parametrize("name", SAMPLE_FORMS)
@pytest.mark.parametrize("dim", [1, 2])
def test_form_samples_are_fresh_float_arrays(name, dim):
    # __call__ returns evaluate's own array: writable, (N,) float64, and shared with nothing
    form = SAMPLE_FORMS[name]
    points = np.linspace(0.1, 0.9, 7 * dim).reshape(7, dim)
    if dim == 1:
        points = points[:, 0]
    first, second = form(points), form(points)
    for out in (first, second):
        assert out.dtype == np.float64 and out.shape == (7,) and out.flags.writeable
        assert not np.shares_memory(out, points)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, second)


def test_trig_derivative_closed_form():
    f = Trig("cos", 0, 2, 1.5, 0.3, 1.0)
    x = np.linspace(0, 1, 101)[:, None]
    df = f.grad(0)(x)
    expected = -1.5 * 4 * np.pi * np.sin(4 * np.pi * x[:, 0])
    assert np.allclose(df, expected, atol=1e-12)


def test_sum_derivative_is_the_sum_of_the_derivatives():
    left = Trig("cos", 0, 2, 1.5, 0.3, 1.0)
    right = Product(Affine(1, 2.0, 1.0), Trig("sin", 0, 1, 1.0, 0.0, 1.0))
    points = np.random.default_rng(0).random((50, 2))
    for axis in (0, 1):
        expected = left.grad(axis)(points) + right.grad(axis)(points)
        assert np.array_equal(Sum(left, right).grad(axis)(points), expected)
    # constant folding: a sum of terms constant along an axis has the zero derivative there
    assert Sum(Const(1.0), left).grad(1) == Const(0.0)


def test_diffusion_matrix_needs_one_component_per_axis():
    g = build_grid(Torus2(), (8, 8))
    with pytest.raises(ValueError, match="diffusion field has 1 components on a 2-dimensional grid"):
        diffusion_matrix([VectorField([Const(1.0)])], g)


#: the corpus configurations with explicit noise whose coefficients are checked against the field loops
EXPLICIT_NOISE_CONFIGS = ("rotation-torus-stability", "cross-diffusion-torus", "explicit-interval")


def corpus_noise(name):
    """The grid and noise of ``configs/<name>.ini``.

    "coordinate" is a 12 x 10 torus under coordinate noise, and "divergent" the same torus under three
    fields whose divergence is not zero (every corpus noise has div A_i = 0), so the order of the sums shows.
    """
    if name not in ("coordinate", "divergent"):
        grid, _, noise = parse_config((Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini")
                                      .read_text()).build()
        return grid, noise
    grid = build_grid(Torus2(1.0, 0.75), (12, 10))
    if name == "coordinate":
        return grid, coordinate_noise(grid)
    ai = (VectorField([Trig("cos", 0, 1, 0.5, 1.0, 1.0), Trig("sin", 1, 1, 0.3, 0.0, 0.75)]),
          VectorField([Trig("sin", 0, 2, 0.4, 0.0, 1.0), Trig("cos", 1, 1, 0.5, 1.0, 0.75)]),
          VectorField([Trig("cos", 0, 1, 0.7, 0.3, 1.0), Trig("sin", 1, 2, 0.9, 0.1, 0.75)]))
    return grid, Noise(VectorField.zero(2), ai)


def diffusion_loop(ai_fields, grid):
    """a_jk = sum_i A_ij A_ik accumulated field by field: the reference that diffusion_matrix reproduces."""
    out = np.zeros((grid.ncells, grid.dim, grid.dim))
    for f in ai_fields:
        vals = f.at_centers(grid)
        out += vals[:, :, None] * vals[:, None, :]
    return out


@pytest.mark.parametrize("name", [*EXPLICIT_NOISE_CONFIGS, "coordinate", "divergent"])
def test_diffusion_matrix_is_the_field_loop_bit_for_bit(name):
    grid, noise = corpus_noise(name)
    assert np.array_equal(diffusion_matrix(noise.ai_fields, grid), diffusion_loop(noise.ai_fields, grid))


def correction_loop(ai_fields, grid):
    """d_j = sum_i A_ij div A_i at the cell centers, shape (ncells, dim), accumulated field by field: the
    reference that correction_forms and the operator reproduce."""
    out = np.zeros((grid.ncells, grid.dim))
    centers = grid.cell_centers()
    for f in ai_fields:
        out += f.at_centers(grid) * f.div_form()(centers)[:, None]
    return out


@pytest.mark.parametrize("name", [*EXPLICIT_NOISE_CONFIGS, "coordinate", "divergent"])
def test_operator_drift_correction_is_the_field_loop_bit_for_bit(name):
    grid, noise = corpus_noise(name)
    loop = correction_loop(noise.ai_fields, grid)
    forms = correction_forms(noise.ai_fields, grid.dim)
    assert np.array_equal(np.column_stack([form(grid.cell_centers()) for form in forms]), loop)
    system, eps = builtin_catalog("zero-drift", grid), 0.3
    dd = derive_drift_diffusion(system, noise, eps)
    e2 = eps * eps
    for axis in range(grid.dim):
        left, right, _ = grid.interior_faces(axis)
        drift_n = e2 * noise.a0_field.normal_at_faces(grid, axis) + system.drift.normal_at_faces(grid, axis)
        assert np.array_equal(dd.ceff[axis], drift_n - 0.5 * e2 * (0.5 * (loop[left, axis] + loop[right, axis])))


def test_coordinate_noise_folds_to_constants():
    for dim, kind, n in ((1, Circle(), 8), (2, Torus2(), (8, 8))):
        noise = coordinate_noise(build_grid(kind, n))
        a = diffusion_forms(noise.ai_fields, dim)
        assert all(a[j][k] == Const(1.0 if j == k else 0.0) for j in range(dim) for k in range(dim))
        assert correction_forms(noise.ai_fields, dim) == (Const(0.0),) * dim


def test_coefficient_forms_need_one_component_per_axis():
    for build in (diffusion_forms, correction_forms):
        with pytest.raises(ValueError, match="diffusion field has 1 components on a 2-dimensional grid"):
            build([VectorField([Const(1.0)])], 2)


def test_diffusion_matrix_refuses_a_non_finite_noise_sample():
    g = build_grid(Circle(), 8)
    field = VectorField([Power(Trig("sin", 0, 1, 1.0, 0.0, 1.0), -0.5)])  # negative base on half the circle
    with np.errstate(invalid="ignore"), pytest.raises(FieldEvaluationError):
        diffusion_matrix([field], g)


def test_power_derivative_closed_form():
    base = Trig("sin", 0, 1, 1.0, 2.0, 1.0)
    f = Power(base, -0.5)
    x = np.linspace(0, 1, 101)[:, None]
    b = 2.0 + np.sin(2 * np.pi * x[:, 0])
    expected = -0.5 * b ** (-1.5) * 2 * np.pi * np.cos(2 * np.pi * x[:, 0])
    assert np.allclose(f.grad(0)(x), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_admissible_constant_circle():
    g = build_grid(Circle(), 32)
    nf = coordinate_noise(g)
    report = check_admissible(nf, g)
    assert report.passes_A1 and report.passes_A2
    assert abs(report.lam - 1.0) <= 1e-14


def test_admissible_coordinate_torus():
    g = build_grid(Torus2(), (16, 16))
    nf = coordinate_noise(g)
    report = check_admissible(nf, g)
    assert abs(report.lam - 1.0) <= 1e-14
    assert report.passes_A2


def test_admissible_vanishing_field_fails_A2():
    # odd cell count puts a midpoint exactly on the zero of sin(2 pi x)
    g = build_grid(Circle(), 65)
    a1 = VectorField([Trig("sin", 0, 1, 1.0, 0.0, 1.0)])
    nf = Noise(VectorField.zero(1), (a1,))
    report = check_admissible(nf, g)
    assert report.lam <= 1e-12
    assert not report.passes_A2


def test_admissible_non_square_rectangle_differentiates_along_each_axis():
    # linear fields: the exact partial derivatives give |grad A1|^2 = 4 and
    # |grad A2|^2 = 9 in every cell, walls included
    g = build_grid(Rectangle(0.0, 2.0, -1.0, 0.0), (8, 5))
    a1 = VectorField([Affine(0, 2.0, 1.0), Const(0.0)])
    a2 = VectorField([Const(0.0), Affine(1, 3.0, 4.0)])
    nf = Noise(VectorField.zero(2), (a1, a2))
    p = 4.0  # d + 2
    x, y = g.cell_centers().T
    vol = g.cell_volume
    expected = max(
        (np.sum(np.abs(2 * x + 1) ** p * vol) + 4.0 ** (p / 2) * 2.0) ** (1 / p),
        (np.sum(np.abs(3 * y + 4) ** p * vol) + 9.0 ** (p / 2) * 2.0) ** (1 / p),
    )
    report = check_admissible(nf, g)
    assert report.p == p
    assert abs(report.sup_norm_bound - expected) <= 1e-12 * expected
    lam = min(np.min((2 * x + 1) ** 2), np.min((3 * y + 4) ** 2))
    assert abs(report.lam - lam) <= 1e-12 * lam


def test_admissible_sup_norm_uses_exact_derivatives():
    # A1 = 1 + cos(2 pi x) / 2: the midpoint rule on A1 and on the exact
    # A1' = -pi sin(2 pi x), where centered differences are O(h^2) off
    g = build_grid(Circle(), 16)
    nf = Noise(VectorField.zero(1), (VectorField([Trig("cos", 0, 1, 0.5, 1.0, 1.0)]),))
    x = g.cell_centers()[:, 0]
    p = 3.0  # d + 2
    lp = np.sum(np.abs(1 + 0.5 * np.cos(2 * np.pi * x)) ** p * g.cell_volume)
    wp = np.sum(np.abs(np.pi * np.sin(2 * np.pi * x)) ** p * g.cell_volume)
    expected = (lp + wp) ** (1 / p)
    assert abs(check_admissible(nf, g).sup_norm_bound - expected) <= 1e-12 * expected


# ---------------------------------------------------------------------------
# discrete divergence
# ---------------------------------------------------------------------------


def test_divergence_constant_field():
    g = build_grid(Torus2(), (16, 16))
    f = VectorField.constant([1.3, -0.7])
    assert np.max(np.abs(divergence(f, g))) == 0.0


def test_divergence_shear_is_exact():
    g = build_grid(Torus2(), (16, 16))
    f = VectorField([Trig("cos", 1, 1, 1.0, 2.0, 1.0), Const(0.0)])
    assert np.max(np.abs(divergence(f, g))) <= 1e-14


def test_divergence_second_order():
    # face-sampled div of (sin 2 pi x, 0) is 2 pi cos(2 pi x_c) sinc(pi h);
    # the sinc defect bounds the error by 2 pi (pi h)^2 / 6
    errs = {}
    for n in (64, 128):
        g = build_grid(Torus2(), (n, n))
        f = VectorField([Trig("sin", 0, 1, 1.0, 0.0, 1.0), Const(0.0)])
        div = divergence(f, g)
        exact = 2 * np.pi * np.cos(2 * np.pi * g.cell_centers()[:, 0])
        errs[n] = np.max(np.abs(div - exact))
    assert errs[64] <= 2.6e-3
    assert 3.5 <= errs[64] / errs[128] <= 4.5


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_circle_positive_density_bounds():
    g = build_grid(Circle(), 4096)
    sys = builtin_catalog("circle-positive", g)
    assert abs(sys.u0.min() - math.sqrt(3) / 3) <= 1e-4
    assert abs(sys.u0.max() - math.sqrt(3)) <= 1e-4
    assert abs(np.sum(sys.u0) * g.cell_volume - 1.0) <= 1e-12


def test_circle_positive_flux_is_constant():
    g = build_grid(Circle(), 512)
    sys = builtin_catalog("circle-positive", g)
    flux = sys.u0_form(g.cell_centers()) * sys.drift.at_centers(g)[:, 0]
    assert np.ptp(flux) <= 1e-14 * GAMMA
    assert abs(flux[0] - GAMMA) <= 1e-4  # discrete gamma converges to sqrt(3)


def test_torus_rotation_properties():
    g = build_grid(Torus2(), (32, 32))
    sys = builtin_catalog("torus-rotation", g)
    assert np.allclose(sys.u0, 1.0)
    assert div_residual(sys) <= 1e-12


@pytest.mark.parametrize("name", ["torus-shear", "hamiltonian-cellular"])
def test_divergence_free_catalog_drifts(name):
    g = build_grid(Torus2(), (64, 64))
    sys = builtin_catalog(name, g)
    assert div_residual(sys) <= 1e-12
    assert np.max(np.abs(divergence(sys.drift, g))) <= 1e-12


def test_cellular_drift_is_divergence_free_on_a_non_square_torus():
    # the y component carries ly / lx; without it the divergence tends to
    # 2 pi (1/ly - 1/lx) cos cos, about 2.1, instead of to zero.  nx != ny
    # would leave the face samples a second-order defect (0.0296 at 16 x 12)
    # without the factor on B_x
    for n in ((16, 12), (32, 24)):
        g = build_grid(Torus2(1.0, 0.75), n)
        assert np.max(np.abs(divergence(builtin_catalog("hamiltonian-cellular", g).drift, g))) <= 1e-13


def test_zero_drift_any_domain():
    for kind, n in ((Circle(), 8), (Torus2(), (8, 8))):
        sys = builtin_catalog("zero-drift", build_grid(kind, n))
        assert np.allclose(sys.u0, 1.0)


def test_catalog_errors():
    g = build_grid(Circle(), 8)
    with pytest.raises(CatalogError):
        builtin_catalog("unknown-system", g)
    with pytest.raises(CatalogError):
        builtin_catalog("torus-shear", g)


def test_conservative_system_requires_positive_density():
    g = build_grid(Circle(), 16)
    with pytest.raises(PositivityError):
        ConservativeSystem(VectorField.zero(1), Trig("sin", 0, 1, 1.0, 0.0, 1.0), g)


@pytest.mark.parametrize("cell", [0, 5, 15])
def test_conservative_system_refuses_a_density_that_vanishes_on_one_cell(cell):
    # (x - x_c)^2 is 0 at the center of one cell and positive at every other one
    g = build_grid(Circle(), 16)
    u0 = Power(Affine(0, 1.0, -float(g.cell_centers()[cell, 0])), 2.0)
    assert np.flatnonzero(u0(g.cell_centers()) <= 0.0).tolist() == [cell]
    with pytest.raises(PositivityError, match="^invariant density must be strictly positive on every cell$"):
        ConservativeSystem(VectorField.zero(1), u0, g)


def test_field_samples_follow_the_grid_even_at_a_reused_address():
    # a freed grid's id can be reused by the next one; sampling must never
    # hand back the samples of an earlier grid.  Freezing the objects that
    # already exist keeps each full collection cheap.
    field = VectorField([Trig("sin", 0, 1, 1.0, 2.0, 1.0)])
    gc.freeze()
    try:
        for i in range(200):
            grid = build_grid(Circle(), 8 if i % 2 else 16)
            x = grid.cell_centers()[:, 0]
            centers = field.at_centers(grid)[:, 0]
            assert centers.shape == x.shape
            assert np.allclose(centers, 2.0 + np.sin(2 * np.pi * x), rtol=0.0, atol=1e-14)
            _, _, faces = grid.interior_faces(0)
            normal = field.normal_at_faces(grid, 0)
            assert normal.shape == (len(faces),)
            assert np.allclose(normal, 2.0 + np.sin(2 * np.pi * faces[:, 0]), rtol=0.0, atol=1e-14)
            del grid
            gc.collect()
    finally:
        gc.unfreeze()


# ---------------------------------------------------------------------------
# noise validation
# ---------------------------------------------------------------------------


def test_noise_needs_a_diffusion_field():
    with pytest.raises(ValueError, match="at least one diffusion field"):
        Noise(VectorField.zero(1), ())
    a = VectorField.constant([1.0])
    assert Noise(VectorField.zero(1), [a]).ai_fields == (a,)


# ---------------------------------------------------------------------------
# divergence-free transform
# ---------------------------------------------------------------------------


def test_transform_identity_when_u0_is_one():
    g = build_grid(Torus2(), (16, 16))
    sys = builtin_catalog("torus-rotation", g)
    nf = coordinate_noise(g)
    drift, nf2 = transform_div_free(sys, nf)
    assert np.array_equal(drift.at_centers(g), sys.drift.at_centers(g))
    for f_old, f_new in zip(nf.ai_fields, nf2.ai_fields):
        assert np.array_equal(f_old.at_centers(g), f_new.at_centers(g))
    assert np.max(np.abs(nf2.a0_field.at_centers(g))) == 0.0


def test_transform_circle_positive_gives_constant_drift():
    g = build_grid(Circle(), 512)
    sys = builtin_catalog("circle-positive", g)
    nf = coordinate_noise(g)
    drift, nf2 = transform_div_free(sys, nf)
    vals = drift.at_centers(g)[:, 0]
    assert np.ptp(vals) <= 1e-13
    assert abs(vals[0] - GAMMA) <= 1e-4
    # A0-tilde = -(1/4) u0' in closed form
    u0p = sys.u0_form.grad(0)(g.cell_centers())
    a0 = nf2.a0_field.at_centers(g)[:, 0]
    assert np.allclose(a0, -0.25 * u0p, atol=1e-12)
    assert len(nf2.ai_fields) == len(nf.ai_fields)


# ---------------------------------------------------------------------------
# selecting noise
# ---------------------------------------------------------------------------


def test_selection_uniform_target_is_coordinate_noise():
    g = build_grid(Torus2(), (8, 8))
    nf = construct_selecting_noise(Const(1.0), g)
    assert np.max(np.abs(nf.a0_field.at_centers(g))) == 0.0
    for k, f in enumerate(nf.ai_fields):
        assert np.array_equal(f.at_centers(g), coordinate_field(2, k).at_centers(g))


def test_selection_circle_closed_forms():
    g = build_grid(Circle(), 256)
    u = Trig("cos", 0, 1, 0.5, 1.0, 1.0)  # 1 + cos(2 pi x)/2
    nf = construct_selecting_noise(u, g)
    x = g.cell_centers()[:, 0]
    uu = 1.0 + 0.5 * np.cos(2 * np.pi * x)
    a1 = nf.ai_fields[0].at_centers(g)[:, 0]
    assert np.allclose(a1, uu ** -0.5, atol=1e-13)
    # A0 = u' / (4 u^2); the 1/4 is what cancels the Stratonovich
    # correction (b = A0 + A1 A1'/2 = 0) and makes the selection exact
    a0 = nf.a0_field.at_centers(g)[:, 0]
    expected = -np.pi * np.sin(2 * np.pi * x) / (4.0 * uu ** 2)
    assert np.allclose(a0, expected, atol=1e-12)


def test_selection_ellipticity_equals_inverse_max():
    g = build_grid(Circle(), 128)
    u = Trig("cos", 0, 1, 0.5, 1.0, 1.0)
    nf = construct_selecting_noise(u, g)
    lam = np.min(smallest_eigenvalue(diffusion_matrix(nf.ai_fields, g)))
    u_samples = u(g.cell_centers())
    assert lam >= 1.0 / u_samples.max() - 1e-12


def test_selection_requires_positive_target():
    g = build_grid(Circle(), 16)
    with pytest.raises(PositivityError):
        construct_selecting_noise(Trig("cos", 0, 1, 2.0, 1.0, 1.0), g)
