"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not configurable.
"""

import math
import time

import numpy as np

from noisyflow.evolution import evolve, fit_decay_rate, perturbed_initial
from noisyflow.experiments import (
    SweepConfig,
    SystemSpec,
    run_decay_study,
    run_stability_sweep,
)
from noisyflow.fields import (Const, Noise, Trig, VectorField, builtin_catalog, construct_selecting_noise,
                              coordinate_noise)
from noisyflow.geometry import Circle, Interval, Rectangle, Torus2, build_grid
from noisyflow.operator import assemble_for
from noisyflow.stationary import oracle_1d_circle, solve_stationary


def report(number, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{tag}] {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    errs = []
    for n in (512, 1024, 2048):
        g = build_grid(Circle(), n)
        sys = builtin_catalog("circle-positive", g)
        nf = coordinate_noise(g)
        rep = solve_stationary(assemble_for(sys, nf, 0.3))
        u_oracle, _ = oracle_1d_circle(sys.drift, nf.a0_field, nf.ai_fields, 0.3, g)
        errs.append(np.max(np.abs(rep.density.values - u_oracle)) / np.max(np.abs(u_oracle)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - start
    ok = errs[0] <= 1e-3 and all(1.7 <= o <= 2.3 for o in orders) and elapsed < 10.0
    report(1, "finite-volume solve matches the 1D quadrature oracle", ok,
           f"err={errs[0]:.2e}, orders={orders[0]:.2f}/{orders[1]:.2f}, {elapsed:.1f}s")


def test_criterion_2_exact_uniform_stationarity():
    start = time.perf_counter()
    worst = 0.0
    for name in ("torus-rotation", "torus-shear"):
        g = build_grid(Torus2(), (64, 64))
        sys = builtin_catalog(name, g)
        nf = coordinate_noise(g)
        for eps in (0.5, 0.1):
            rep = solve_stationary(assemble_for(sys, nf, eps))
            worst = max(worst, float(np.max(np.abs(rep.density.values - 1.0))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(2, "uniform density is exactly stationary for homogeneous torus noise", ok,
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_selection_by_noise():
    start = time.perf_counter()
    target = Trig("cos", 1, 1, 0.5, 1.0, 1.0)
    errors = {}
    for n in (64, 128):
        g = build_grid(Torus2(), (n, n))
        sys = builtin_catalog("torus-shear", g)
        nf = construct_selecting_noise(target, g)
        per_eps = []
        for eps in (0.5, 0.1):
            rep = solve_stationary(assemble_for(sys, nf, eps))
            tv = target(g.cell_centers())
            tv /= np.sum(tv) * g.cell_volume
            per_eps.append(float(np.max(np.abs(rep.density.values - tv))))
        errors[n] = per_eps
    coarse = errors[64]
    ratio = max(coarse) / max(errors[128])
    eps_spread = (max(coarse) - min(coarse)) / min(coarse)
    elapsed = time.perf_counter() - start
    ok = (max(coarse) <= 5e-3 and 3.0 <= ratio <= 5.0 and eps_spread <= 0.10
          and elapsed < 30.0)
    report(3, "selecting noise pins the target density at every eps", ok,
           f"err={max(coarse):.2e}, refine ratio {ratio:.2f}, eps spread {eps_spread:.1e}, {elapsed:.1f}s")


def test_criterion_4_zero_noise_limit():
    start = time.perf_counter()
    g = build_grid(Circle(), 1024)
    sys = builtin_catalog("circle-positive", g)
    eps_list = (0.4, 0.2, 0.1, 0.05)
    nf = coordinate_noise(g)
    l1s, max_us, min_us = [], [], []
    for eps in eps_list:
        rep = solve_stationary(assemble_for(sys, nf, eps))
        l1s.append(float(np.sum(np.abs(rep.density.values - sys.u0)) * g.cell_volume))
        max_us.append(rep.density.values.max())
        min_us.append(rep.density.values.min())
    strictly_decreasing = all(b < a for a, b in zip(l1s, l1s[1:]))
    bounds_ok = (max(max_us) <= 2.0 * sys.u0.max()
                 and max(1.0 / m for m in min_us) <= 2.0 / sys.u0.min())
    elapsed = time.perf_counter() - start
    ok = strictly_decreasing and l1s[-1] <= 0.02 and bounds_ok and elapsed < 20.0
    report(4, "stationary densities converge to the invariant density in L1", ok,
           f"l1={['%.3g' % v for v in l1s]}, {elapsed:.1f}s")


def test_criterion_5_chi2_decay_rate():
    start = time.perf_counter()
    g = build_grid(Circle(), 256)
    sys = builtin_catalog("zero-drift", g)
    eps = 0.5
    nf = coordinate_noise(g)
    op = assemble_for(sys, nf, eps)
    stationary = solve_stationary(op).density
    rate_true = 4.0 * math.pi ** 2 * eps ** 2
    v0 = perturbed_initial(stationary, mode=1, amplitude=1.0)  # 1 + cos(2 pi x)
    block, _ = evolve(op, [v0], horizon=5.0 / rate_true, dt=5e-3 / rate_true,
                      stationary=stationary)
    trace = block[0]
    fit = fit_decay_rate(trace)
    rel = abs(fit.rate - rate_true) / rate_true
    monotone = bool(np.all(np.diff(trace.chi2) <= 1e-12))
    drift = float(np.max(trace.mass_drift))
    elapsed = time.perf_counter() - start
    ok = rel <= 0.02 and monotone and drift <= 1e-12 and elapsed < 30.0
    report(5, "chi^2 decays at the pure-diffusion Fourier rate", ok,
           f"rate={fit.rate:.4f} vs {rate_true:.4f} ({100 * rel:.2f}%), drift={drift:.1e}, {elapsed:.1f}s")


def test_criterion_6_eps2_rate_scaling():
    start = time.perf_counter()
    cfg = SweepConfig(
        kind="decay", domain=Circle(), n=(1024,), epsilons=(0.4, 0.2, 0.1),
        system=SystemSpec(catalog="circle-positive"),
        dt_factor=2e-3, scheme="crank-nicolson",
    )
    rep = run_decay_study(cfg)
    overs = [r["rate_over_eps2"] for r in rep.rows]
    spread = (max(overs) - min(overs)) / min(overs)
    floors = all(r["rate"] >= 1.0 * r["eps"] ** 2 for r in rep.rows)
    elapsed = time.perf_counter() - start
    ok = spread <= 0.5 and floors and elapsed < 120.0
    report(6, "fitted decay rates scale like eps^2 across the sweep", ok,
           f"rate/eps^2={['%.1f' % v for v in overs]}, spread {100 * spread:.0f}%, {elapsed:.1f}s")


def test_criterion_7_transform_consistency(transform_mismatch):
    start = time.perf_counter()
    sups = {n: transform_mismatch(Circle(), n, "circle-positive", 0.3) for n in (256, 512)}
    ratio = sups[256] / sups[512]
    elapsed = time.perf_counter() - start
    ok = sups[512] <= 5e-3 and 3.0 <= ratio <= 5.0 and elapsed < 10.0
    report(7, "divergence-free transform reproduces u_eps/u0", ok,
           f"sup={sups[512]:.2e}, refine ratio {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_8_bounded_domains():
    start = time.perf_counter()
    g = build_grid(Interval(), 512)
    tilt_noise = Noise(VectorField([Const(1.0)]), (VectorField([Const(1.0)]),))
    tilt = solve_stationary(assemble_for(builtin_catalog("zero-drift", g), tilt_noise, 0.3))
    x = g.cell_centers()[:, 0]
    exact = 2.0 * np.exp(2.0 * x) / (math.e ** 2 - 1.0)
    tilt_err = float(np.max(np.abs(tilt.density.values - exact)) / exact.max())

    rect_cfg = SweepConfig(kind="stability", domain=Rectangle(), n=(64, 64), epsilons=(0.5, 0.1))
    rect = run_stability_sweep(rect_cfg)
    rect_dev = max(float(np.max(np.abs(r["report"].density.values - 1.0))) for r in rect.rows)
    elapsed = time.perf_counter() - start
    ok = tilt_err <= 1e-3 and rect_dev <= 1e-10 and rect.passed() and elapsed < 10.0
    report(8, "zero-flux stationary solves match the exponential tilt and uniformity", ok,
           f"tilt err {tilt_err:.2e}, rectangle dev {rect_dev:.2e}, {elapsed:.1f}s")


def test_criterion_9_structural_invariants(tmp_path):
    start = time.perf_counter()

    def roster():
        out = []
        g1 = build_grid(Circle(), 512)
        s1 = builtin_catalog("circle-positive", g1)
        out.append(assemble_for(s1, coordinate_noise(g1), 0.3))
        g2 = build_grid(Torus2(), (64, 64))
        for name in ("torus-rotation", "torus-shear", "hamiltonian-cellular"):
            out.append(assemble_for(builtin_catalog(name, g2), coordinate_noise(g2), 0.1))
        target = Trig("cos", 1, 1, 0.5, 1.0, 1.0)
        out.append(assemble_for(builtin_catalog("torus-shear", g2),
                                construct_selecting_noise(target, g2), 0.1))
        g3 = build_grid(Interval(), 256)
        out.append(assemble_for(builtin_catalog("zero-drift", g3), coordinate_noise(g3), 0.5))
        g4 = build_grid(Rectangle(), (32, 32))
        out.append(assemble_for(builtin_catalog("zero-drift", g4), coordinate_noise(g4), 0.5))
        return out

    first, second = roster(), roster()
    colsums_ok = all(np.max(np.abs(op.matrix.sum(axis=0))) <= 1e-13 * op.inf_norm() for op in first)
    irreducible_ok = all(op.is_irreducible() for op in first)
    positivity_ok = all(solve_stationary(op).density.values.min() > 0.0 for op in first)
    identical = all(
        np.array_equal(a.matrix.data, b.matrix.data)
        and np.array_equal(a.matrix.indices, b.matrix.indices)
        and np.array_equal(a.matrix.indptr, b.matrix.indptr)
        for a, b in zip(first, second)
    )
    cfg = SweepConfig(
        kind="stability", domain=Circle(), n=(256,), epsilons=(0.4, 0.2),
        system=SystemSpec(catalog="circle-positive"), out_dir=str(tmp_path),
    )
    run_stability_sweep(cfg)
    blob = (tmp_path / "stability.csv").read_bytes()
    run_stability_sweep(cfg)
    rerun_identical = (tmp_path / "stability.csv").read_bytes() == blob
    elapsed = time.perf_counter() - start
    ok = colsums_ok and irreducible_ok and positivity_ok and identical and rerun_identical
    report(9, "structural invariants hold on every assembled operator", ok,
           f"{len(first)} operators, rerun identical: {rerun_identical}, {elapsed:.1f}s")
