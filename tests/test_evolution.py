import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyflow import evolution
from noisyflow.errors import FitError, PositivityError, SolveError
from noisyflow.evolution import (
    CHI2_FLOOR,
    FIT_WINDOW,
    EvolutionTrace,
    chi_squared,
    evolve,
    fit_decay_rate,
    fourier_modes,
    perturbed_initial,
    poincare_quotient,
)
from noisyflow.fields import builtin_catalog, coordinate_noise
from noisyflow.geometry import Circle, Interval, Rectangle, Torus2, build_grid
from noisyflow.operator import FokkerPlanckOperator, assemble_for
from noisyflow.stationary import Density, solve_stationary


def laplacian_setup(n=128, eps=0.5):
    g = build_grid(Circle(), n)
    sys = builtin_catalog("zero-drift", g)
    nf = coordinate_noise(g)
    op = assemble_for(sys, nf, eps)
    return g, op, solve_stationary(op).density


# ---------------------------------------------------------------------------
# chi^2 distance
# ---------------------------------------------------------------------------


def test_chi_squared_zero_iff_equal():
    g = build_grid(Circle(), 64)
    u = Density.normalized(np.ones(g.ncells), g)
    assert chi_squared(u, u) == 0.0


def test_chi_squared_cosine_mode():
    # midpoint sums of cos^2 are exact: chi^2(1 + cos, 1) = 1/2
    g = build_grid(Circle(), 64)
    u = Density.normalized(np.ones(g.ncells), g)
    v = Density.normalized(1.0 + np.cos(2 * np.pi * g.cell_centers()[:, 0]), g)
    assert abs(chi_squared(v, u) - 0.5) <= 1e-13


def test_chi_squared_indicator():
    g = build_grid(Circle(), 64)
    u = Density.normalized(np.ones(g.ncells), g)
    values = np.zeros(64)
    values[:32] = 2.0
    v = Density(values, g)
    assert abs(chi_squared(v, u) - 1.0) <= 1e-13


def test_chi_squared_requires_positive_reference():
    g = build_grid(Circle(), 16)
    u = Density.normalized(np.ones(g.ncells), g)
    bad = Density(np.r_[np.zeros(1), np.full(15, 16.0 / 15.0)], g)
    with pytest.raises(PositivityError):
        chi_squared(u, bad)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_stationary_is_fixed_point():
    _, op, stat = laplacian_setup()
    block, (final,) = evolve(op, [stat], horizon=0.5, dt=0.05, stationary=stat)
    trace = block[0]
    assert np.max(trace.chi2) <= 1e-12
    assert np.max(np.abs(final.values - stat.values)) <= 1e-10


def test_zero_drift_decay_rate_and_structure():
    g, op, stat = laplacian_setup(n=128, eps=0.5)
    rate_true = 4 * math.pi ** 2 * 0.25
    v0 = perturbed_initial(stat, mode=1, amplitude=1.0)
    assert abs(chi_squared(v0, stat) - 0.5) <= 1e-12
    block, (final,) = evolve(op, [v0], horizon=5.0 / rate_true, dt=5e-3 / rate_true, stationary=stat)
    trace = block[0]
    fit = fit_decay_rate(trace)
    assert abs(fit.rate - rate_true) <= 0.02 * rate_true
    assert fit.r_squared >= 0.9999
    assert np.all(np.diff(trace.chi2) <= 1e-12)
    assert np.max(trace.mass_drift) <= 1e-12
    assert np.min(trace.min_v) >= 0.0
    # the mode amplitude halves its rate relative to chi^2: e^{-2.5} ~ 0.082
    assert np.max(np.abs(final.values - 1.0)) <= 0.09


def test_crank_nicolson_rate():
    _, op, stat = laplacian_setup(n=128, eps=0.5)
    rate_true = 4 * math.pi ** 2 * 0.25
    v0 = perturbed_initial(stat, mode=1)
    block, _ = evolve(op, [v0], horizon=5.0 / rate_true, dt=5e-3 / rate_true,
                      scheme="crank-nicolson", stationary=stat)
    trace = block[0]
    fit = fit_decay_rate(trace)
    assert abs(fit.rate - rate_true) <= 5e-3 * rate_true
    assert np.all(np.diff(trace.chi2) <= 1e-12)  # Cayley transform contracts too


def test_semigroup_property():
    _, op, stat = laplacian_setup(n=64, eps=0.5)
    v0 = perturbed_initial(stat, mode=1)
    dt = 0.01
    _, (final_full,) = evolve(op, [v0], horizon=0.4, dt=dt, stationary=stat)
    _, (half,) = evolve(op, [v0], horizon=0.2, dt=dt, stationary=stat)
    _, (final_split,) = evolve(op, [half], horizon=0.2, dt=dt, stationary=stat)
    assert np.max(np.abs(final_full.values - final_split.values)) <= 1e-10


def test_evolve_validation():
    _, op, stat = laplacian_setup(n=64)
    with pytest.raises(ValueError):
        evolve(op, [stat], horizon=1.0, dt=0.0, stationary=stat)
    with pytest.raises(ValueError):
        evolve(op, [stat], horizon=-1.0, dt=0.1, stationary=stat)
    other = build_grid(Circle(), 32)
    with pytest.raises(ValueError):
        evolve(op, [Density.normalized(np.ones(other.ncells), other)], horizon=1.0, dt=0.1, stationary=stat)
    with pytest.raises(ValueError):
        evolve(op, [stat], horizon=1.0, dt=0.1, scheme="leapfrog", stationary=stat)


def test_evolve_takes_a_block_not_a_lone_density():
    _, op, stat = laplacian_setup(n=16)
    with pytest.raises(TypeError):
        evolve(op, stat, horizon=0.1, dt=0.01, stationary=stat)


def test_evolve_raises_solve_error_on_a_failed_factorization(monkeypatch):
    _, op, stat = laplacian_setup(n=16)

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr("noisyflow.stationary.spla.splu", singular)
    with pytest.raises(SolveError, match="^sparse LU failed: Factor is exactly singular$"):
        evolve(op, [stat], horizon=0.1, dt=0.01, stationary=stat)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_evolve_rejects_non_finite_dt_and_horizon(value):
    # nan passes a bare dt <= 0 test and used to fail only in the step count
    _, op, stat = laplacian_setup(n=16)
    with pytest.raises(ValueError, match=f"dt must be positive and finite, got {value}"):
        evolve(op, [stat], horizon=1.0, dt=value, stationary=stat)
    with pytest.raises(ValueError, match=f"horizon must be positive and finite, got {value}"):
        evolve(op, [stat], horizon=value, dt=0.1, stationary=stat)


# ---------------------------------------------------------------------------
# block evolution
# ---------------------------------------------------------------------------


def catalog_setup(kind, n, name, eps):
    g = build_grid(kind, n)
    op = assemble_for(builtin_catalog(name, g), coordinate_noise(g), eps)
    return op, solve_stationary(op).density


def assert_block_matches_singles(op, stat, v0, horizon, dt, scheme):
    block, finals = evolve(op, v0, horizon, dt, scheme=scheme, stationary=stat)
    nsteps = len(block.times) - 1
    assert block.chi2.shape == block.mass_drift.shape == block.min_v.shape == (len(v0), nsteps + 1)
    assert len(finals) == len(v0)
    for j, member in enumerate(v0):
        single, (final,) = evolve(op, [member], horizon, dt, scheme=scheme, stationary=stat)
        trace = single[0]
        assert np.array_equal(block.times, trace.times)
        for name in ("chi2", "mass_drift", "min_v"):
            assert np.array_equal(getattr(block, name)[j], getattr(trace, name)), name
            assert np.array_equal(getattr(block[j], name), getattr(trace, name)), name
        assert np.array_equal(finals[j].values, final.values)


BLOCK_CASES = [
    (Circle(), 48, "circle-positive", 0.4),
    (Torus2(), (12, 10), "torus-shear", 0.3),
]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
@pytest.mark.parametrize("kind, n, name, eps", BLOCK_CASES)
def test_block_evolve_is_bitwise_k_single_evolves(kind, n, name, eps, scheme, k):
    op, stat = catalog_setup(kind, n, name, eps)
    v0 = [perturbed_initial(stat, mode=mode) for mode in range(1, k + 1)]
    assert_block_matches_singles(op, stat, v0, horizon=0.4, dt=0.01, scheme=scheme)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=4, max_value=40),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.05, max_value=0.95),
    st.sampled_from(["implicit-euler", "crank-nicolson"]),
)
def test_block_evolve_is_bitwise_singles_on_random_blocks(n, k, amplitude, scheme):
    op, stat = catalog_setup(Circle(), n, "circle-positive", 0.5)
    v0 = [perturbed_initial(stat, mode=mode, amplitude=amplitude) for mode in range(1, k + 1)]
    assert_block_matches_singles(op, stat, v0, horizon=0.1, dt=0.01, scheme=scheme)


def test_block_trace_members_and_prefix():
    op, stat = catalog_setup(Circle(), 32, "circle-positive", 0.4)
    v0 = [perturbed_initial(stat, mode=1), perturbed_initial(stat, mode=2)]
    block, _ = evolve(op, v0, horizon=0.2, dt=0.01, stationary=stat)
    head = block.prefix(5)
    assert head.times.shape == (6,) and head.chi2.shape == (2, 6)
    for j in range(2):
        member = block[j]
        assert member.times is block.times
        assert member.chi2.shape == (21,)
        for name in ("times", "chi2", "mass_drift", "min_v"):
            assert np.array_equal(getattr(head[j], name), getattr(member.prefix(5), name))


def test_block_validation():
    _, op, stat = laplacian_setup(n=64)
    g = build_grid(Circle(), 64)
    other = Density.normalized(np.ones(g.ncells), g)
    for block in ([other], [stat, other], [stat, stat, other]):
        with pytest.raises(ValueError, match="different grid"):
            evolve(op, block, horizon=1.0, dt=0.1, stationary=stat)
    for empty in ([], ()):
        with pytest.raises(ValueError, match="empty"):
            evolve(op, empty, horizon=1.0, dt=0.1, stationary=stat)


# ---------------------------------------------------------------------------
# chunked statistics
# ---------------------------------------------------------------------------


def chunk_bytes(op, k, steps):
    """A STATS_CHUNK_BYTES whose chunks hold ``steps`` steps of a k-block."""
    return 8 * k * op.grid.ncells * steps


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
@pytest.mark.parametrize("kind, n, name, eps", BLOCK_CASES)
def test_chunked_statistics_are_bitwise_the_default_chunk(kind, n, name, eps, scheme, k, monkeypatch):
    op, stat = catalog_setup(kind, n, name, eps)
    v0 = [perturbed_initial(stat, mode=mode) for mode in range(1, k + 1)]

    def run():
        trace, finals = evolve(op, v0, horizon=0.43, dt=0.01, scheme=scheme, stationary=stat)
        return trace, np.array([final.values for final in finals])

    # 43 steps and 44 records: a multiple of neither 3 nor 7
    reference, reference_finals = run()
    assert len(reference.times) == 44
    for steps in (1, 3, 7):
        monkeypatch.setattr(evolution, "STATS_CHUNK_BYTES", chunk_bytes(op, k, steps))
        trace, finals = run()
        for field in ("times", "chi2", "mass_drift", "min_v"):
            assert np.array_equal(getattr(trace, field), getattr(reference, field)), (steps, field)
        assert np.array_equal(finals, reference_finals), steps


def test_negative_component_names_its_step_in_any_chunk(monkeypatch):
    # Crank-Nicolson at dt ||M||_1 = 1000 has no positivity guarantee: this
    # block first goes negative at step 4, inside a chunk of 3, of 7 and of
    # the default size alike
    op, stat = catalog_setup(Circle(), 48, "circle-positive", 0.3)
    dt = 1000.0 / np.max(np.sum(np.abs(op.matrix.toarray()), axis=0))
    v0 = [perturbed_initial(stat, mode=mode, amplitude=0.9) for mode in (1, 3)]
    messages = {}
    for steps in (None, 1, 3, 7):
        if steps is not None:
            monkeypatch.setattr(evolution, "STATS_CHUNK_BYTES", chunk_bytes(op, 2, steps))
        with pytest.raises(SolveError) as info:
            evolve(op, v0, horizon=60 * dt, dt=dt, scheme="crank-nicolson", stationary=stat)
        messages[steps] = str(info.value)
    assert " at step 4 " in messages[1]
    assert all(text == messages[1] for text in messages.values()), messages


# ---------------------------------------------------------------------------
# mass restoration and step accuracy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
def test_mass_drift_still_shows_a_nonconservative_operator(scheme):
    # the residual step restores the mass only as far as the columns of M
    # sum to zero: it must never turn into a projection onto unit mass
    op, stat = catalog_setup(Circle(), 32, "circle-positive", 0.5)
    m = op.matrix.copy()
    m.data[1] *= 1.0 + 1e-9
    leaky = FokkerPlanckOperator(m, op.grid, op.has_cross_diffusion)
    v0 = perturbed_initial(stat, mode=1)
    exact, _ = evolve(op, [v0], horizon=0.5, dt=1e-3, scheme=scheme, stationary=stat)
    leaked, _ = evolve(leaky, [v0], horizon=0.5, dt=1e-3, scheme=scheme, stationary=stat)
    exact, leaked = exact[0], leaked[0]
    assert len(leaked.times) == 501
    assert np.max(exact.mass_drift) <= 1e-13
    assert np.max(leaked.mass_drift) >= 1e-10


DENSE_CASES = [
    (Circle(), 64, "circle-positive"),
    (Torus2(), (24, 24), "torus-shear"),
]


def assert_matches_dense_propagation(kind, n, name, scheme, stiffness, rtol, nsteps):
    op, stat = catalog_setup(kind, n, name, 0.3)
    m = op.matrix.toarray()
    dt = stiffness / np.max(np.sum(np.abs(m), axis=0))
    theta = dt if scheme == "implicit-euler" else 0.5 * dt
    eye = np.eye(len(m))
    step = np.linalg.solve(eye - theta * m, eye + (dt - theta) * m)
    v0 = perturbed_initial(stat, mode=1)
    trace, (final,) = evolve(op, [v0], horizon=nsteps * dt, dt=dt, scheme=scheme, stationary=stat)
    assert len(trace.times) == nsteps + 1
    v = v0.values
    for _ in range(nsteps):
        v = step @ v
    v = v / (np.sum(v) * op.grid.cell_volume)
    assert np.max(np.abs(final.values - v)) <= rtol * np.max(v)


@pytest.mark.parametrize("stiffness, rtol", [(0.1, 1e-13), (10.0, 1e-13), (1000.0, 1e-11)])
@pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
@pytest.mark.parametrize("kind, n, name", DENSE_CASES)
def test_evolve_matches_dense_propagation(kind, n, name, scheme, stiffness, rtol):
    # the residual step multiplies the solve's error by up to theta ||M||,
    # hence the wider tolerance at dt ||M||_1 = 1000
    assert_matches_dense_propagation(kind, n, name, scheme, stiffness, rtol, nsteps=50)


@pytest.mark.parametrize("scheme", ["implicit-euler", "crank-nicolson"])
@pytest.mark.parametrize("kind, n, name", DENSE_CASES)
def test_evolve_matches_dense_propagation_over_2000_steps(kind, n, name, scheme):
    # the Crank-Nicolson right-hand side is carried from step to step as
    # v + theta M x rather than recomputed from v: its error must not add up
    assert_matches_dense_propagation(kind, n, name, scheme, 10.0, 1e-13, nsteps=2000)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------


def synthetic_trace(rate, n=101, horizon=1.0, chi0=1.0):
    t = np.linspace(0.0, horizon, n)
    return EvolutionTrace(times=t, chi2=chi0 * np.exp(-rate * t),
                          mass_drift=np.zeros(n), min_v=np.ones(n))


def test_fit_exact_exponential():
    fit = fit_decay_rate(synthetic_trace(3.0))
    assert abs(fit.rate - 3.0) <= 1e-10
    assert fit.r_squared >= 1.0 - 1e-12


def test_fit_window_bounds():
    fit = fit_decay_rate(synthetic_trace(2.0, horizon=10.0))
    assert fit.fit_window == (FIT_WINDOW[0] * 10.0, FIT_WINDOW[1] * 10.0)
    assert abs(fit.rate - 2.0) <= 1e-10


def test_fit_rejects_underflowed_trace():
    trace = synthetic_trace(1.0)
    trace = EvolutionTrace(times=trace.times, chi2=np.full_like(trace.chi2, 1e-16),
                           mass_drift=trace.mass_drift, min_v=trace.min_v)
    with pytest.raises(FitError):
        fit_decay_rate(trace)


def test_fit_needs_enough_samples():
    with pytest.raises(FitError):
        fit_decay_rate(synthetic_trace(1.0, n=8))


def test_fit_from_stationary_start_is_rejected():
    _, op, stat = laplacian_setup(n=64)
    block, _ = evolve(op, [stat], horizon=1.0, dt=0.05, stationary=stat)
    trace = block[0]
    assert np.all(trace.chi2 <= CHI2_FLOOR)
    with pytest.raises(FitError):
        fit_decay_rate(trace)


# ---------------------------------------------------------------------------
# Poincare diagnostic
# ---------------------------------------------------------------------------


def test_poincare_quotient_flat_case():
    # uniform density, identity diffusion: the minimizing probe is the
    # first Fourier mode with quotient exactly 4 pi^2
    g, op, stat = laplacian_setup(n=128, eps=0.5)
    nf = coordinate_noise(g)
    q = poincare_quotient(nf, stat, g)
    assert abs(q - 4 * math.pi ** 2) <= 1e-6


@pytest.mark.parametrize("kind, n, longest", [
    (Interval(-1.0, 3.0), 32, 4.0),
    (Rectangle(-1.0, 1.0, 0.5, 3.5), (8, 12), 3.0),
])
def test_poincare_quotient_bounded_axes(kind, n, longest):
    # uniform density, identity diffusion: on a bounded axis of length L
    # the probe cos(pi k (x - o) / L) has zero mean over the cell centers,
    # so the minimum is (pi / L)^2 on the longest axis.  A probe without
    # the origin's phase has a nonzero mean there and a larger quotient
    g = build_grid(kind, n)
    nf = coordinate_noise(g)
    stat = solve_stationary(assemble_for(builtin_catalog("zero-drift", g), nf, 0.5)).density
    expected = (math.pi / longest) ** 2
    assert abs(poincare_quotient(nf, stat, g) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("kind, n", [
    (Circle(2.0), 16),
    (Torus2(1.0, 0.75), (8, 6)),
    (Interval(-0.5, 1.5), 16),
    (Rectangle(-1.0, 1.0, 0.5, 3.5), (8, 12)),
])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_fourier_modes_fit_the_boundary_of_every_axis(kind, n, k):
    # periodic axis: cos and sin of period L; walled axis: one cosine with zero normal derivative at both walls
    g = build_grid(kind, n)
    rng = np.random.default_rng(k)
    points = np.column_stack([rng.uniform(lo, hi, 20) for lo, hi in kind.bounds])
    for axis, ((lo, hi), periodic) in enumerate(zip(kind.bounds, kind.periodic)):
        modes = fourier_modes(g, axis, k)
        assert len(modes) == (2 if periodic else 1)
        for mode in modes:
            assert mode.axis == axis
            if periodic:
                shifted = points.copy()
                shifted[:, axis] += hi - lo
                assert np.max(np.abs(mode(shifted) - mode(points))) <= 1e-12
                assert mode.period == hi - lo
            else:
                walls = points[:2].copy()
                walls[:, axis] = (lo, hi)
                assert np.max(np.abs(mode.grad(axis)(walls))) <= 1e-12
                assert np.max(np.abs(np.abs(mode(walls)) - 1.0)) <= 1e-12  # an extremum on each wall
        if periodic:
            assert [mode.fn for mode in modes] == ["cos", "sin"]


@pytest.mark.parametrize("kind, n, exact", [
    (Interval(), 48, True),
    (Interval(), 256, True),
    (Rectangle(), (12, 10), True),
    (Interval(-0.5, 1.5), 48, False),
])
@pytest.mark.parametrize("mode", [1, 2])
def test_perturbed_initial_bounded_mode_is_the_neumann_cosine(kind, n, exact, mode):
    # the bounded branch uses the Trig form of poincare_quotient's probe,
    # which is cos(pi k (x - o) / L) to rounding, and bit for bit when o = 0
    g = build_grid(kind, n)
    stat = solve_stationary(assemble_for(builtin_catalog("zero-drift", g), coordinate_noise(g), 0.5)).density
    x = g.cell_centers()[:, 0]
    wave = np.cos(np.pi * mode * (x - kind.origin[0]) / kind.lengths[0])
    expected = Density.normalized(np.clip(stat.values * (1.0 + 0.5 * wave), 0.0, None), g).values
    got = perturbed_initial(stat, mode=mode).values
    if exact:
        assert np.array_equal(got, expected)
    else:
        assert np.max(np.abs(got - expected)) <= 4e-15


def test_poincare_quotient_uniform_in_eps():
    g = build_grid(Circle(), 256)
    sys = builtin_catalog("circle-positive", g)
    eps_list = (0.4, 0.2, 0.1)
    nf = coordinate_noise(g)
    values = []
    for eps in eps_list:
        stat = solve_stationary(assemble_for(sys, nf, eps)).density
        values.append(poincare_quotient(nf, stat, g))
    assert min(values) > 1.0  # bounded below uniformly across the sweep
    assert max(values) / min(values) <= 3.0
