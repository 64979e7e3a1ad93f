import gc
import math

import numpy as np
import pytest

from noisyflow.errors import CatalogError, PositivityError
from noisyflow.fields import (
    Affine,
    Const,
    ConservativeSystem,
    NoiseFamily,
    Power,
    Trig,
    VectorField,
    builtin_catalog,
    check_admissible,
    construct_selecting_noise,
    coordinate_field,
    coordinate_noise,
    divergence,
    mul,
    smallest_eigenvalue,
    diffusion_matrix,
    transform_div_free,
)
from noisyflow.geometry import Circle, Rectangle, Torus2, build_grid


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


def test_trig_derivative_closed_form():
    f = Trig("cos", 0, 2, 1.5, 0.3, 1.0)
    x = np.linspace(0, 1, 101)[:, None]
    df = f.grad(0)(x)
    expected = -1.5 * 4 * np.pi * np.sin(4 * np.pi * x[:, 0])
    assert np.allclose(df, expected, atol=1e-12)


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
    nf = coordinate_noise(g, [0.5])
    report = check_admissible(nf, g, p=3.0)
    assert report.passes_A1 and report.passes_A2
    assert abs(report.lam - 1.0) <= 1e-14


def test_admissible_coordinate_torus():
    g = build_grid(Torus2(), (16, 16))
    nf = coordinate_noise(g, [0.5])
    report = check_admissible(nf, g, p=4.0)
    assert abs(report.lam - 1.0) <= 1e-14
    assert report.passes_A2


def test_admissible_vanishing_field_fails_A2():
    # odd cell count puts a midpoint exactly on the zero of sin(2 pi x)
    g = build_grid(Circle(), 65)
    a1 = VectorField([Trig("sin", 0, 1, 1.0, 0.0, 1.0)])
    nf = NoiseFamily(1, VectorField.zero(1), [a1], [0.5])
    report = check_admissible(nf, g, p=3.0)
    assert report.lam <= 1e-12
    assert not report.passes_A2


def test_admissible_non_square_rectangle_differentiates_along_each_axis():
    # linear fields: the centered and one-sided differences are exact, so
    # |grad A1|^2 = 4 and |grad A2|^2 = 9 in every cell, walls included
    g = build_grid(Rectangle(0.0, 2.0, -1.0, 0.0), (8, 5))
    a1 = VectorField([Affine(0, 2.0, 1.0), Const(0.0)])
    a2 = VectorField([Const(0.0), Affine(1, 3.0, 4.0)])
    nf = NoiseFamily(2, VectorField.zero(2), [a1, a2], [0.5])
    p = 4.0
    x, y = g.cell_centers().T
    vol = g.cell_volume
    expected = max(
        (np.sum(np.abs(2 * x + 1) ** p * vol) + 4.0 ** (p / 2) * 2.0) ** (1 / p),
        (np.sum(np.abs(3 * y + 4) ** p * vol) + 9.0 ** (p / 2) * 2.0) ** (1 / p),
    )
    report = check_admissible(nf, g, p=p)
    assert abs(report.sup_norm_bound - expected) <= 1e-12 * expected
    lam = min(np.min((2 * x + 1) ** 2), np.min((3 * y + 4) ** 2))
    assert abs(report.lam - lam) <= 1e-12 * lam


def test_admissible_p_must_exceed_dimension():
    g = build_grid(Torus2(), (8, 8))
    with pytest.raises(ValueError):
        check_admissible(coordinate_noise(g, [0.5]), g, p=2.0)


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
    assert sys.div_residual <= 1e-12


@pytest.mark.parametrize("name", ["torus-shear", "hamiltonian-cellular"])
def test_divergence_free_catalog_drifts(name):
    g = build_grid(Torus2(), (64, 64))
    sys = builtin_catalog(name, g)
    assert sys.div_residual <= 1e-12
    assert np.max(np.abs(divergence(sys.drift, g))) <= 1e-12


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
# noise family validation
# ---------------------------------------------------------------------------


def test_noise_family_eps_validation():
    a = VectorField.constant([1.0])
    with pytest.raises(ValueError):
        NoiseFamily(1, VectorField.zero(1), [a], [0.1, 0.5])  # ascending
    with pytest.raises(ValueError):
        NoiseFamily(1, VectorField.zero(1), [a], [1.5])  # out of range
    with pytest.raises(ValueError):
        NoiseFamily(1, VectorField.zero(1), [a], [])


# ---------------------------------------------------------------------------
# divergence-free transform
# ---------------------------------------------------------------------------


def test_transform_identity_when_u0_is_one():
    g = build_grid(Torus2(), (16, 16))
    sys = builtin_catalog("torus-rotation", g)
    nf = coordinate_noise(g, [0.5, 0.25])
    drift, nf2 = transform_div_free(sys, nf)
    assert np.array_equal(drift.at_centers(g), sys.drift.at_centers(g))
    for f_old, f_new in zip(nf.ai(0.5), nf2.ai(0.5)):
        assert np.array_equal(f_old.at_centers(g), f_new.at_centers(g))
    assert np.max(np.abs(nf2.a0(0.5).at_centers(g))) == 0.0


def test_transform_circle_positive_gives_constant_drift():
    g = build_grid(Circle(), 512)
    sys = builtin_catalog("circle-positive", g)
    nf = coordinate_noise(g, [0.3])
    drift, nf2 = transform_div_free(sys, nf)
    vals = drift.at_centers(g)[:, 0]
    assert np.ptp(vals) <= 1e-13
    assert abs(vals[0] - GAMMA) <= 1e-4
    # A0-tilde = -(1/4) u0' in closed form
    u0p = sys.u0_form.grad(0)(g.cell_centers())
    a0 = nf2.a0(0.3).at_centers(g)[:, 0]
    assert np.allclose(a0, -0.25 * u0p, atol=1e-12)
    assert nf2.epsilons == nf.epsilons


# ---------------------------------------------------------------------------
# selecting noise
# ---------------------------------------------------------------------------


def test_selection_uniform_target_is_coordinate_noise():
    g = build_grid(Torus2(), (8, 8))
    nf = construct_selecting_noise(Const(1.0), g, [0.5])
    assert np.max(np.abs(nf.a0(0.5).at_centers(g))) == 0.0
    for k, f in enumerate(nf.ai(0.5)):
        assert np.array_equal(f.at_centers(g), coordinate_field(2, k).at_centers(g))


def test_selection_circle_closed_forms():
    g = build_grid(Circle(), 256)
    u = Trig("cos", 0, 1, 0.5, 1.0, 1.0)  # 1 + cos(2 pi x)/2
    nf = construct_selecting_noise(u, g, [0.3])
    x = g.cell_centers()[:, 0]
    uu = 1.0 + 0.5 * np.cos(2 * np.pi * x)
    a1 = nf.ai(0.3)[0].at_centers(g)[:, 0]
    assert np.allclose(a1, uu ** -0.5, atol=1e-13)
    # A0 = u' / (4 u^2); the 1/4 is what cancels the Stratonovich
    # correction (b = A0 + A1 A1'/2 = 0) and makes the selection exact
    a0 = nf.a0(0.3).at_centers(g)[:, 0]
    expected = -np.pi * np.sin(2 * np.pi * x) / (4.0 * uu ** 2)
    assert np.allclose(a0, expected, atol=1e-12)


def test_selection_ellipticity_equals_inverse_max():
    g = build_grid(Circle(), 128)
    u = Trig("cos", 0, 1, 0.5, 1.0, 1.0)
    nf = construct_selecting_noise(u, g, [0.5])
    lam = np.min(smallest_eigenvalue(diffusion_matrix(nf.ai(0.5), g)))
    u_samples = u(g.cell_centers())
    assert lam >= 1.0 / u_samples.max() - 1e-12


def test_selection_requires_positive_target():
    g = build_grid(Circle(), 16)
    with pytest.raises(PositivityError):
        construct_selecting_noise(Trig("cos", 0, 1, 2.0, 1.0, 1.0), g, [0.5])
