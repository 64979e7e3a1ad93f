import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyflow.errors import FitError, PositivityError
from noisyflow.evolution import (
    CHI2_FLOOR,
    EvolutionTrace,
    chi_squared,
    evolve,
    fit_decay_rate,
    perturbed_initial,
    poincare_quotient,
)
from noisyflow.fields import builtin_catalog, coordinate_noise
from noisyflow.geometry import Circle, Torus2, build_grid
from noisyflow.operator import assemble_for
from noisyflow.stationary import Density, solve_stationary


def laplacian_setup(n=128, eps=0.5):
    g = build_grid(Circle(), n)
    sys = builtin_catalog("zero-drift", g)
    nf = coordinate_noise(g, [eps])
    op = assemble_for(sys, nf, eps)
    return g, op, solve_stationary(op).density


# ---------------------------------------------------------------------------
# chi^2 distance
# ---------------------------------------------------------------------------


def test_chi_squared_zero_iff_equal():
    g = build_grid(Circle(), 64)
    u = Density.uniform(g)
    assert chi_squared(u, u) == 0.0


def test_chi_squared_cosine_mode():
    # midpoint sums of cos^2 are exact: chi^2(1 + cos, 1) = 1/2
    g = build_grid(Circle(), 64)
    u = Density.uniform(g)
    v = Density.normalized(1.0 + np.cos(2 * np.pi * g.cell_centers()[:, 0]), g)
    assert abs(chi_squared(v, u) - 0.5) <= 1e-13


def test_chi_squared_indicator():
    g = build_grid(Circle(), 64)
    u = Density.uniform(g)
    values = np.zeros(64)
    values[:32] = 2.0
    v = Density(values, g)
    assert abs(chi_squared(v, u) - 1.0) <= 1e-13


def test_chi_squared_requires_positive_reference():
    g = build_grid(Circle(), 16)
    u = Density.uniform(g)
    bad = Density(np.r_[np.zeros(1), np.full(15, 16.0 / 15.0)], g)
    with pytest.raises(PositivityError):
        chi_squared(u, bad)


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_stationary_is_fixed_point():
    _, op, stat = laplacian_setup()
    trace, final = evolve(op, stat, horizon=0.5, dt=0.05, stationary=stat)
    assert np.max(trace.chi2) <= 1e-12
    assert np.max(np.abs(final.values - stat.values)) <= 1e-10


def test_zero_drift_decay_rate_and_structure():
    g, op, stat = laplacian_setup(n=128, eps=0.5)
    rate_true = 4 * math.pi ** 2 * 0.25
    v0 = perturbed_initial(stat, mode=1, amplitude=1.0)
    assert abs(chi_squared(v0, stat) - 0.5) <= 1e-12
    trace, final = evolve(op, v0, horizon=5.0 / rate_true, dt=5e-3 / rate_true, stationary=stat)
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
    trace, _ = evolve(op, v0, horizon=5.0 / rate_true, dt=5e-3 / rate_true,
                      scheme="crank-nicolson", stationary=stat)
    fit = fit_decay_rate(trace)
    assert abs(fit.rate - rate_true) <= 5e-3 * rate_true
    assert np.all(np.diff(trace.chi2) <= 1e-12)  # Cayley transform contracts too


def test_semigroup_property():
    _, op, stat = laplacian_setup(n=64, eps=0.5)
    v0 = perturbed_initial(stat, mode=1)
    dt = 0.01
    full, final_full = evolve(op, v0, horizon=0.4, dt=dt, stationary=stat)
    _, half = evolve(op, v0, horizon=0.2, dt=dt, stationary=stat)
    _, final_split = evolve(op, half, horizon=0.2, dt=dt, stationary=stat)
    assert np.max(np.abs(final_full.values - final_split.values)) <= 1e-10


def test_evolve_validation():
    _, op, stat = laplacian_setup(n=64)
    with pytest.raises(ValueError):
        evolve(op, stat, horizon=1.0, dt=0.0)
    with pytest.raises(ValueError):
        evolve(op, stat, horizon=-1.0, dt=0.1)
    other = build_grid(Circle(), 32)
    with pytest.raises(ValueError):
        evolve(op, Density.uniform(other), horizon=1.0, dt=0.1)
    with pytest.raises(ValueError):
        evolve(op, stat, horizon=1.0, dt=0.1, scheme="leapfrog")


# ---------------------------------------------------------------------------
# block evolution
# ---------------------------------------------------------------------------


def catalog_setup(kind, n, name, eps):
    g = build_grid(kind, n)
    op = assemble_for(builtin_catalog(name, g), coordinate_noise(g, [eps]), eps)
    return op, solve_stationary(op).density


def assert_block_matches_singles(op, stat, v0, horizon, dt, scheme):
    block, finals = evolve(op, v0, horizon, dt, scheme=scheme, stationary=stat)
    nsteps = len(block.times) - 1
    assert block.chi2.shape == block.mass_drift.shape == block.min_v.shape == (len(v0), nsteps + 1)
    assert len(finals) == len(v0)
    for j, member in enumerate(v0):
        trace, final = evolve(op, member, horizon, dt, scheme=scheme, stationary=stat)
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
        assert member.eps == block.eps and member.times is block.times
        assert member.chi2.shape == (21,)
        for name in ("times", "chi2", "mass_drift", "min_v"):
            assert np.array_equal(getattr(head[j], name), getattr(member.prefix(5), name))
    # a single density is the squeezed k = 1 block
    one, finals = evolve(op, v0[:1], horizon=0.2, dt=0.01, stationary=stat)
    single, final = evolve(op, v0[0], horizon=0.2, dt=0.01, stationary=stat)
    assert one.chi2.shape == (1, 21) and single.chi2.shape == (21,)
    assert np.array_equal(one[0].chi2, single.chi2)
    assert np.array_equal(finals[0].values, final.values)


def test_block_validation():
    _, op, stat = laplacian_setup(n=64)
    other = Density.uniform(build_grid(Circle(), 64))
    for block in ([other], [stat, other], [stat, stat, other]):
        with pytest.raises(ValueError, match="different grid"):
            evolve(op, block, horizon=1.0, dt=0.1, stationary=stat)
    for empty in ([], ()):
        with pytest.raises(ValueError, match="empty"):
            evolve(op, empty, horizon=1.0, dt=0.1, stationary=stat)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------


def synthetic_trace(rate, n=101, horizon=1.0, chi0=1.0):
    t = np.linspace(0.0, horizon, n)
    return EvolutionTrace(times=t, chi2=chi0 * np.exp(-rate * t),
                          mass_drift=np.zeros(n), min_v=np.ones(n), eps=0.5)


def test_fit_exact_exponential():
    fit = fit_decay_rate(synthetic_trace(3.0))
    assert abs(fit.rate - 3.0) <= 1e-10
    assert fit.r_squared >= 1.0 - 1e-12
    assert fit.rate_over_eps2 == pytest.approx(12.0)


def test_fit_window_bounds():
    fit = fit_decay_rate(synthetic_trace(2.0, horizon=10.0), window=(0.3, 0.6))
    assert fit.fit_window == (3.0, 6.0)
    assert abs(fit.rate - 2.0) <= 1e-10


def test_fit_rejects_underflowed_trace():
    trace = synthetic_trace(1.0)
    trace = EvolutionTrace(times=trace.times, chi2=np.full_like(trace.chi2, 1e-16),
                           mass_drift=trace.mass_drift, min_v=trace.min_v, eps=0.5)
    with pytest.raises(FitError):
        fit_decay_rate(trace)


def test_fit_needs_enough_samples():
    with pytest.raises(FitError):
        fit_decay_rate(synthetic_trace(1.0, n=8))


def test_fit_from_stationary_start_is_rejected():
    _, op, stat = laplacian_setup(n=64)
    trace, _ = evolve(op, stat, horizon=1.0, dt=0.05, stationary=stat)
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
    nf = coordinate_noise(g, [0.5])
    q = poincare_quotient(nf, 0.5, stat, g)
    assert abs(q - 4 * math.pi ** 2) <= 1e-6


def test_poincare_quotient_uniform_in_eps():
    g = build_grid(Circle(), 256)
    sys = builtin_catalog("circle-positive", g)
    eps_list = (0.4, 0.2, 0.1)
    nf = coordinate_noise(g, eps_list)
    values = []
    for eps in eps_list:
        stat = solve_stationary(assemble_for(sys, nf, eps)).density
        values.append(poincare_quotient(nf, eps, stat, g))
    assert min(values) > 1.0  # bounded below uniformly across the sweep
    assert max(values) / min(values) <= 3.0
