import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from noisyflow.errors import BoundaryError, CatalogError, PositivityError
from noisyflow.fields import (
    CATALOG_NAMES,
    Const,
    NoiseFamily,
    Trig,
    VectorField,
    builtin_catalog,
    construct_selecting_noise,
    coordinate_noise,
)
from noisyflow.geometry import Circle, Interval, Rectangle, Torus2, build_grid
from noisyflow.operator import assemble_for
from noisyflow.stationary import (
    Density,
    _backward_sum,
    _exponent,
    discrete_w12_seminorm,
    factorize,
    oracle_1d_circle,
    oracle_1d_interval,
    pinned_system,
    solve_stationary,
)


def unit_noise(grid, epsilons):
    return coordinate_noise(grid, epsilons)


# ---------------------------------------------------------------------------
# direct solves
# ---------------------------------------------------------------------------


def test_uniform_stationary_zero_drift():
    g = build_grid(Circle(), 64)
    op = assemble_for(builtin_catalog("zero-drift", g), unit_noise(g, [0.5]), 0.5)
    rep = solve_stationary(op)
    assert rep.residual <= 1e-13
    assert np.max(np.abs(rep.density.values - 1.0)) <= 1e-12


@pytest.mark.parametrize("eps", [0.5, 0.1])
def test_torus_shear_uniform(eps):
    g = build_grid(Torus2(), (32, 32))
    sys = builtin_catalog("torus-shear", g)
    rep = solve_stationary(assemble_for(sys, unit_noise(g, [0.5, 0.1]), eps))
    assert np.max(np.abs(rep.density.values - 1.0)) <= 1e-10


def test_circle_positive_matches_oracle():
    g = build_grid(Circle(), 256)
    sys = builtin_catalog("circle-positive", g)
    nf = unit_noise(g, [0.3])
    rep = solve_stationary(assemble_for(sys, nf, 0.3))
    u_oracle, _ = oracle_1d_circle(sys.drift, nf.a0(0.3), nf.ai(0.3), 0.3, g)
    err = np.max(np.abs(rep.density.values - u_oracle)) / np.max(np.abs(u_oracle))
    assert err <= 5e-4


def test_direct_and_inverse_iteration_agree():
    g = build_grid(Circle(), 256)
    sys = builtin_catalog("circle-positive", g)
    op = assemble_for(sys, unit_noise(g, [0.3]), 0.3)
    direct = solve_stationary(op, method="direct")
    inverse = solve_stationary(op, method="inverse-iteration")
    assert np.max(np.abs(direct.density.values - inverse.density.values)) <= 1e-10
    assert inverse.iterations >= 1


def test_positivity_on_catalog():
    g = build_grid(Torus2(), (24, 24))
    for name in ("torus-rotation", "torus-shear", "hamiltonian-cellular"):
        sys = builtin_catalog(name, g)
        rep = solve_stationary(assemble_for(sys, unit_noise(g, [0.2]), 0.2))
        assert rep.min_u > 0.0


@settings(max_examples=10, deadline=None)
@given(
    st.floats(min_value=1.5, max_value=3.0),
    st.floats(min_value=-0.9, max_value=0.9),
    st.floats(min_value=0.15, max_value=0.8),
)
def test_random_positive_drift_properties(offset, amp, eps):
    # positive 1D drifts: solve succeeds, density positive, unit mass
    from noisyflow.fields import ConservativeSystem

    g = build_grid(Circle(), 64)
    drift = VectorField([Trig("sin", 0, 1, amp, offset, 1.0)])
    sys = ConservativeSystem(drift, Const(1.0), g, "random")
    nf = unit_noise(g, [eps])
    rep = solve_stationary(assemble_for(sys, nf, eps))
    assert rep.min_u > 0.0
    assert abs(rep.density.mass() - 1.0) <= 1e-12
    assert rep.residual <= 1e-10


# ---------------------------------------------------------------------------
# the factorization helper
# ---------------------------------------------------------------------------


def dense_row_reference(op):
    """The mass-normalization-row solve: row r of M becomes the cell volumes."""
    m, g = op.matrix, op.grid
    row = int(np.argmax(np.abs(m.diagonal())))
    replaced = m.tolil(copy=True)
    replaced[row, :] = g.cell_volumes
    rhs = np.zeros(g.ncells)
    rhs[row] = 1.0
    return spla.splu(replaced.tocsc(), permc_spec="COLAMD").solve(rhs)


def selecting_noise(grid, epsilons):
    """Noise under which zero drift has the stationary density 1 + cos(2 pi x) / 2."""
    return construct_selecting_noise(Trig("cos", 0, 1, 0.5, 1.0, 1.0), grid, epsilons)


def constant_noise(grid, epsilons):
    """A_0 = A_1 = 1: the residual of inverse iteration passes 1e-12 a step before its density."""
    return NoiseFamily(1, VectorField([Const(1.0)]), [VectorField([Const(1.0)])], epsilons)


SOLVER_CASES = [
    (Torus2(), (48, 48), "hamiltonian-cellular", 0.2, unit_noise),
    (Circle(), 256, "circle-positive", 0.1, unit_noise),
    (Interval(), 256, "zero-drift", 0.2, selecting_noise),
    (Interval(), 256, "zero-drift", 0.5, constant_noise),
    (Interval(), 256, "zero-drift", 0.3, constant_noise),
]


@pytest.mark.parametrize("kind, n, name, eps, noise", SOLVER_CASES)
def test_direct_solve_matches_inverse_iteration_and_dense_row(kind, n, name, eps, noise):
    g = build_grid(kind, n)
    op = assemble_for(builtin_catalog(name, g), noise(g, [eps]), eps)
    direct = solve_stationary(op)
    assert direct.method == "direct"
    u = direct.density.values
    for other in (solve_stationary(op, method="inverse-iteration").density.values,
                  dense_row_reference(op)):
        assert np.max(np.abs(u - other)) <= 1e-12 * np.max(np.abs(other))


@pytest.mark.parametrize("eps", [0.5, 0.05])
def test_direct_solve_never_falls_back_on_the_catalog(eps):
    solved = 0
    for name in CATALOG_NAMES:
        for kind in (Circle(), Interval(), Torus2(), Rectangle()):
            g = build_grid(kind, (12,) * len(kind.lengths))
            try:
                system = builtin_catalog(name, g)
            except CatalogError:
                continue
            rep = solve_stationary(assemble_for(system, unit_noise(g, [eps]), eps))
            assert rep.method == "direct", (name, type(kind).__name__)
            solved += 1
    assert solved == 8  # circle-positive, three torus systems, zero-drift on four domains


def fill(lu):
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("kind, name", [(Torus2(), "hamiltonian-cellular"), (Rectangle(), "zero-drift"),
                                        (Circle(), "circle-positive"), (Interval(), "zero-drift")])
def test_factorize_fills_less_than_colamd_with_partial_pivoting(kind, name):
    g = build_grid(kind, (48,) * len(kind.lengths))
    eps = 0.2
    op = assemble_for(builtin_catalog(name, g), unit_noise(g, [eps]), eps)
    pinned, _ = pinned_system(op.matrix)
    step = sp.identity(g.ncells, format="csr") - 0.01 * op.matrix
    for matrix in (pinned, step):
        ours = fill(factorize(matrix, g.dim))
        colamd = fill(spla.splu(matrix.tocsc(), permc_spec="COLAMD"))
        assert ours <= fill(factorize(matrix, 2))  # no more than the 2D minimum-degree order
        if isinstance(kind, Circle) and matrix is step:
            # the pattern is a cycle: every elimination order adds the same n - 3 chords
            assert ours == colamd
        else:
            assert ours < colamd
    if isinstance(kind, Circle):  # on an interval minimum degree finds the fill-free order too
        assert fill(factorize(pinned, 1)) < fill(factorize(pinned, 2))


# ---------------------------------------------------------------------------
# circle oracle
# ---------------------------------------------------------------------------


def test_oracle_constant_coefficients():
    g = build_grid(Circle(), 64)
    drift = VectorField([Const(1.0)])
    nf = unit_noise(g, [0.4])
    u, c_eps = oracle_1d_circle(drift, nf.a0(0.4), nf.ai(0.4), 0.4, g, quad_n=64 * 64)
    assert np.ptp(u) <= 1e-12
    assert abs(c_eps + 1.0) <= 1e-10


def test_oracle_requires_positive_drift():
    g = build_grid(Circle(), 64)
    drift = VectorField([Trig("sin", 0, 1, 1.0, 0.0, 1.0)])
    nf = unit_noise(g, [0.4])
    with pytest.raises(PositivityError):
        oracle_1d_circle(drift, nf.a0(0.4), nf.ai(0.4), 0.4, g)


def test_oracle_quad_resolution_validation():
    g = build_grid(Circle(), 64)
    drift = VectorField([Const(1.0)])
    nf = unit_noise(g, [0.4])
    with pytest.raises(ValueError):
        oracle_1d_circle(drift, nf.a0(0.4), nf.ai(0.4), 0.4, g, quad_n=100)


def test_oracle_converges_to_invariant_density():
    g = build_grid(Circle(), 512)
    sys = builtin_catalog("circle-positive", g)
    u0 = math.sqrt(3.0) / (2.0 + np.sin(2 * np.pi * g.cell_centers()[:, 0]))
    eps_list = (0.4, 0.2, 0.1, 0.05)
    nf = unit_noise(g, eps_list)
    dists = []
    for eps in eps_list:
        u, _ = oracle_1d_circle(sys.drift, nf.a0(eps), nf.ai(eps), eps, g)
        dists.append(np.max(np.abs(u - u0)))
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 0.01


def test_oracle_selection_family_small_drift():
    # with the selecting family, a u* = 1 and b = 0; a tiny constant
    # drift delta makes B > 0 and C_eps = -delta exactly
    g = build_grid(Circle(), 128)
    delta = 1e-6
    u_target = Trig("cos", 0, 1, 0.5, 1.0, 1.0)
    nf = construct_selecting_noise(u_target, g, [0.3])
    drift = VectorField([Const(delta)])
    u, c_eps = oracle_1d_circle(drift, nf.a0(0.3), nf.ai(0.3), 0.3, g)
    target = u_target(g.cell_centers())
    assert abs(c_eps + delta) <= 1e-12
    assert np.max(np.abs(u - target)) <= 1e-4


def test_oracle_self_consistency_across_eps():
    # C_eps must reproduce -int (B + eps^2 b) u at quadrature accuracy
    g = build_grid(Circle(), 256)
    sys = builtin_catalog("circle-positive", g)
    for eps in (0.4, 0.1, 0.05):
        nf = unit_noise(g, [eps])
        u, c_eps = oracle_1d_circle(sys.drift, nf.a0(eps), nf.ai(eps), eps, g)
        assert np.all(u > 0.0)
        assert c_eps < 0.0


def reference_j1(local, phi):
    """The backward recurrence the blocked closed form replaces, one panel at a time."""
    j1 = np.zeros(len(phi))
    for j in range(len(local) - 1, -1, -1):
        j1[j] = local[j] + math.exp(phi[j] - phi[j + 1]) * j1[j + 1]
    return j1


@pytest.mark.parametrize("case", ["overflowing", "non-monotone"])
def test_oracle_backward_sum_matches_the_recurrence(case):
    g = build_grid(Circle(), 256)
    if case == "overflowing":
        eps = 0.05
        drift = builtin_catalog("circle-positive", g).drift
        nf = unit_noise(g, [eps])
        a0, ai = nf.a0(eps), nf.ai(eps)
    else:
        # B = 2 + sin 2 pi x > 0, but B + eps^2 b < 0 on an arc
        eps = 0.9
        drift = VectorField([Trig("sin", 0, 1, 1.0, 2.0, 1.0)])
        a0, ai = VectorField.zero(1), [VectorField([Trig("cos", 0, 1, 0.9, 1.0, 1.0)])]
    quad = 8 * 256
    delta = 1.0 / quad
    *_, phi, phi_mid = _exponent(drift, a0, ai, eps, g, quad)
    if case == "overflowing":
        assert phi[-1] > 710.0  # e^{Phi(L)} overflows a double
    else:
        assert np.min(np.diff(phi)) < 0.0
    local = (delta / 6.0) * (1.0 + 4.0 * np.exp(phi[:-1] - phi_mid) + np.exp(phi[:-1] - phi[1:]))
    ref = reference_j1(local, phi)
    assert np.max(np.abs(_backward_sum(local, phi) - ref)) <= 1e-12 * np.max(ref)
    u, c_eps = oracle_1d_circle(drift, a0, ai, eps, g)  # raises unless the self-check passes
    assert np.all(u > 0.0) and c_eps < 0.0


# ---------------------------------------------------------------------------
# interval oracle
# ---------------------------------------------------------------------------


def test_interval_oracle_uniform():
    g = build_grid(Interval(), 64)
    nf = unit_noise(g, [0.5])
    u = oracle_1d_interval(VectorField.zero(1), nf.a0(0.5), nf.ai(0.5), 0.5, g)
    assert np.allclose(u, 1.0, atol=1e-12)


def test_interval_oracle_exponential_tilt():
    # B = 0, A0 = c, A1 = 1: u is proportional to e^{2 c x}, independent
    # of eps; closed form 2 e^{2x} / (e^2 - 1) for c = 1
    g = build_grid(Interval(), 256)
    a0 = VectorField([Const(1.0)])
    a1 = VectorField([Const(1.0)])
    nf = NoiseFamily(1, a0, [a1], [0.3])
    u = oracle_1d_interval(VectorField.zero(1), nf.a0(0.3), nf.ai(0.3), 0.3, g)
    x = g.cell_centers()[:, 0]
    exact = 2.0 * np.exp(2.0 * x) / (math.e ** 2 - 1.0)
    assert np.max(np.abs(u - exact)) <= 1e-10
    u2 = oracle_1d_interval(VectorField.zero(1), nf.a0(0.3), nf.ai(0.3), 0.9, g)
    assert np.allclose(u, u2, atol=1e-13)


def test_interval_oracle_selection_family():
    g = build_grid(Interval(), 128)
    u_target = Trig("cos", 0, 1, 0.5, 1.0, 1.0)
    nf = construct_selecting_noise(u_target, g, [0.4])
    u = oracle_1d_interval(VectorField.zero(1), nf.a0(0.4), nf.ai(0.4), 0.4, g)
    target = u_target(g.cell_centers())
    target /= np.sum(target) * g.cell_volume
    assert np.max(np.abs(u - target)) <= 1e-10


def test_interval_oracle_boundary_compatibility():
    g = build_grid(Interval(), 64)
    nf = unit_noise(g, [0.5])
    with pytest.raises(BoundaryError):
        oracle_1d_interval(VectorField([Const(1.0)]), nf.a0(0.5), nf.ai(0.5), 0.5, g)


# ---------------------------------------------------------------------------
# W^{1,2} seminorm
# ---------------------------------------------------------------------------


def test_w12_constant_is_zero():
    g = build_grid(Circle(), 64)
    assert discrete_w12_seminorm(Density.uniform(g)) == 0.0


def test_w12_cosine_value():
    # int (u')^2 = 2 pi^2 for u = 1 + cos(2 pi x); the face-difference
    # seminorm is sqrt(2 pi^2) sinc(pi h)
    g = build_grid(Circle(), 512)
    u = Density.normalized(1.0 + np.cos(2 * np.pi * g.cell_centers()[:, 0]), g)
    assert abs(discrete_w12_seminorm(u) - math.sqrt(2 * math.pi ** 2)) <= 5e-5


def test_w12_grid_stable_on_catalog_density():
    values = {}
    for n in (256, 512):
        g = build_grid(Circle(), n)
        sys = builtin_catalog("circle-positive", g)
        values[n] = discrete_w12_seminorm(Density(sys.u0, g))
    assert abs(values[256] - values[512]) <= 1e-3 * values[512]


# ---------------------------------------------------------------------------
# density invariants
# ---------------------------------------------------------------------------


def test_density_validation():
    g = build_grid(Circle(), 16)
    with pytest.raises(PositivityError):
        Density(np.full(16, -1.0), g)
    with pytest.raises(ValueError):
        Density(np.full(16, 2.0), g)  # mass 2
    with pytest.raises(ValueError):
        Density(np.ones(15), g)
