import numpy as np
import pytest

import noisyflow.experiments as experiments
from noisyflow.errors import BoundaryError, FitError
from noisyflow.evolution import fit_decay_rate, perturbed_initial
from noisyflow.experiments import (
    NoiseSpec,
    SweepConfig,
    SystemSpec,
    Thresholds,
    run_bounded_domain,
    run_decay_study,
    run_selection,
    run,
    run_stability_sweep,
    run_transform_consistency,
)
from noisyflow.fields import Const, Trig
from noisyflow.geometry import Circle, Interval, Rectangle, Torus2
from noisyflow.operator import assemble_for
from noisyflow.reporting import write_csv
from noisyflow.stationary import solve_stationary


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(kind="stability", domain=Circle(), n=(64,), epsilons=())
    with pytest.raises(ValueError):
        SweepConfig(kind="stability", domain=Circle(), n=(64,), epsilons=(0.1, 0.5))
    with pytest.raises(ValueError):
        SweepConfig(kind="stability", domain=Circle(), n=(2,), epsilons=(0.5,))


def test_stability_sweep_circle_positive():
    cfg = SweepConfig(
        kind="stability", domain=Circle(), n=(512,), epsilons=(0.4, 0.2, 0.1),
        system=SystemSpec(catalog="circle-positive"),
    )
    report = run_stability_sweep(cfg)
    l1s = [r.l1_to_u0 for r in report.rows]
    assert all(b < a for a, b in zip(l1s, l1s[1:]))
    assert report.passed()
    # verdicts recomputable from rows and thresholds
    assert report.verdicts["final l1 distance"] == (l1s[-1] <= report.thresholds.l1_final)


def test_stability_sweep_rotation_is_flat_and_tiny():
    cfg = SweepConfig(
        kind="stability", domain=Torus2(), n=(32, 32), epsilons=(0.5, 0.1),
        system=SystemSpec(catalog="torus-rotation"),
    )
    report = run_stability_sweep(cfg)
    assert all(r.l1_to_u0 <= 1e-10 for r in report.rows)
    assert report.passed()


def test_stability_sweep_cellular_reports_bounds_without_limit_claim():
    # the cellular drift is not ergodic: the sweep reports uniform bounds
    # but must not assert the zero-noise limit
    cfg = SweepConfig(
        kind="stability", domain=Torus2(), n=(32, 32), epsilons=(0.5, 0.25),
        system=SystemSpec(catalog="hamiltonian-cellular"),
        assert_l1_limit=False,
    )
    report = run_stability_sweep(cfg)
    assert "final l1 distance" not in report.verdicts
    assert (np.isfinite(max(r.report.max_u for r in report.rows))
            and np.isfinite(max(1.0 / r.report.min_u for r in report.rows)))
    assert report.passed()


def test_selection_torus_shear(tmp_path):
    cfg = SweepConfig(
        kind="selection", domain=Torus2(), n=(32, 32), epsilons=(0.5, 0.1),
        system=SystemSpec(catalog="torus-shear"),
        target=Trig("cos", 1, 1, 0.5, 1.0, 1.0),
        out_dir=str(tmp_path),
    )
    report = run_selection(cfg)
    assert report.passed()
    for row in report.rows:
        assert 3.0 <= row.ratio <= 5.0
    assert (tmp_path / "selection.csv").exists()
    assert (tmp_path / "summary.txt").exists()


def test_selection_circle_zero_drift():
    # the 1D family keeps the target flux identically zero in the
    # continuum; the discrete two-point flux leaves an O(h^2),
    # eps-uniform residual
    cfg = SweepConfig(
        kind="selection", domain=Circle(), n=(64,), epsilons=(0.5, 0.1),
        system=SystemSpec(catalog="zero-drift"),
        target=Trig("cos", 0, 1, 0.5, 1.0, 1.0),
    )
    report = run_selection(cfg)
    assert report.passed()
    errs = [r.err_sup for r in report.rows]
    assert max(errs) <= 5e-3
    assert abs(errs[0] - errs[1]) <= 1e-10 * errs[0]  # identical across eps


def test_selection_uniform_target_any_divfree_drift():
    cfg = SweepConfig(
        kind="selection", domain=Torus2(), n=(16, 16), epsilons=(0.5,),
        system=SystemSpec(catalog="torus-rotation"),
        target=Const(1.0),
        thresholds=Thresholds(selection_sup=1e-10),
    )
    report = run_selection(cfg)
    assert report.verdicts["sup error within tolerance"]


def test_selection_rejects_invalid_target():
    # an x-dependent target against the y-shear makes div(u* B) != 0
    cfg = SweepConfig(
        kind="selection", domain=Torus2(), n=(16, 16), epsilons=(0.5,),
        system=SystemSpec(catalog="torus-shear"),
        target=Trig("cos", 0, 1, 0.5, 1.0, 1.0),
    )
    with pytest.raises(BoundaryError):
        run_selection(cfg)


def test_selection_bounded_rectangle():
    # separable Neumann-compatible target with zero drift:
    # 1 + cos(2 pi x)/8 has vanishing normal derivative at x = 0, 1
    cfg = SweepConfig(
        kind="selection", domain=Rectangle(), n=(24, 24), epsilons=(0.5, 0.25),
        system=SystemSpec(catalog="zero-drift"),
        target=Trig("cos", 0, 1, 0.125, 1.125, 1.0),
    )
    report = run_selection(cfg)
    assert report.verdicts["sup error within tolerance"]
    assert report.verdicts["h^2 refinement ratio"]


def test_transform_consistency_circle():
    cfg = SweepConfig(
        kind="transform", domain=Circle(), n=(256,), epsilons=(0.3,),
        system=SystemSpec(catalog="circle-positive"),
    )
    report = run_transform_consistency(cfg)
    assert report.passed()
    assert report.rows[0].sup_diff <= 5e-3


def test_transform_identity_for_uniform_density():
    # u0 = 1: the transform leaves the operator unchanged entry by entry
    from noisyflow.fields import ConservativeSystem, transform_div_free, builtin_catalog, coordinate_noise
    from noisyflow.geometry import build_grid
    from noisyflow.operator import assemble_for

    g = build_grid(Torus2(), (16, 16))
    sys = builtin_catalog("torus-rotation", g)
    nf = coordinate_noise(g, [0.5])
    drift2, nf2 = transform_div_free(sys, nf)
    sys2 = ConservativeSystem(drift2, Const(1.0), g)
    m1 = assemble_for(sys, nf, 0.5).matrix
    m2 = assemble_for(sys2, nf2, 0.5).matrix
    assert np.array_equal(m1.data, m2.data)
    assert np.array_equal(m1.indices, m2.indices)


def test_transform_consistency_refines_at_second_order():
    sups = {}
    for n in (128, 256):
        cfg = SweepConfig(
            kind="transform", domain=Circle(), n=(n,), epsilons=(0.3,),
            system=SystemSpec(catalog="circle-positive"),
        )
        sups[n] = run_transform_consistency(cfg).rows[0].sup_diff
    assert 3.0 <= sups[128] / sups[256] <= 5.0


def test_decay_study_zero_drift(tmp_path):
    cfg = SweepConfig(
        kind="decay", domain=Circle(), n=(128,), epsilons=(0.5,),
        system=SystemSpec(catalog="zero-drift"),
        out_dir=str(tmp_path),
    )
    report = run_decay_study(cfg)
    assert report.passed()
    row = report.rows[0]
    assert abs(row.fit.rate - np.pi ** 2) <= 0.02 * np.pi ** 2
    assert row.fits_by_mode[2].rate > row.fits_by_mode[1].rate  # slower mode wins
    assert row.fit.rate == row.fits_by_mode[1].rate
    assert (tmp_path / "decay.csv").exists()
    assert (tmp_path / "trace_eps0.5_mode1.csv").exists()


def test_decay_study_bounded_interval():
    # zero-flux decay: the slowest Neumann mode cos(pi x) relaxes chi^2
    # at eps^2 pi^2, a quarter of the periodic guess
    cfg = SweepConfig(
        kind="decay", domain=Interval(), n=(128,), epsilons=(0.5,),
        system=SystemSpec(catalog="zero-drift"),
    )
    report = run_decay_study(cfg)
    assert report.passed()
    rate = report.rows[0].fit.rate
    expected = np.pi ** 2 * 0.25
    assert abs(rate - expected) <= 0.02 * expected


def test_bounded_interval_uniform():
    cfg = SweepConfig(kind="bounded", domain=Interval(), n=(64,), epsilons=(0.5,))
    report = run_bounded_domain(cfg)
    assert report.passed()
    assert np.max(np.abs(report.rows[0].report.density.values - 1.0)) <= 1e-10


def test_bounded_interval_exponential_tilt():
    cfg = SweepConfig(
        kind="bounded", domain=Interval(), n=(256,), epsilons=(0.5, 0.1),
        noise=NoiseSpec(kind="explicit", a0_forms=(Const(1.0),), ai_forms=((Const(1.0),),)),
    )
    report = run_bounded_domain(cfg)
    assert report.passed()
    for row in report.rows:
        assert row.oracle_sup <= 1e-3


def test_bounded_rejects_nonzero_normal_drift():
    cfg = SweepConfig(
        kind="bounded", domain=Interval(), n=(32,), epsilons=(0.5,),
        system=SystemSpec(drift_forms=(Const(1.0),), u0_form=Const(1.0)),
    )
    with pytest.raises(BoundaryError):
        run_bounded_domain(cfg)


def test_bounded_requires_bounded_domain():
    cfg = SweepConfig(kind="bounded", domain=Circle(), n=(32,), epsilons=(0.5,))
    with pytest.raises(ValueError):
        run_bounded_domain(cfg)


def test_sweep_rerun_bit_identical(tmp_path):
    cfg = SweepConfig(
        kind="stability", domain=Circle(), n=(128,), epsilons=(0.4, 0.2),
        system=SystemSpec(catalog="circle-positive"),
        out_dir=str(tmp_path),
    )
    run_stability_sweep(cfg)
    first = (tmp_path / "stability.csv").read_bytes()
    run_stability_sweep(cfg)
    assert (tmp_path / "stability.csv").read_bytes() == first


def test_summary_supremum_monotone_in_sweep_size():
    base = SweepConfig(
        kind="stability", domain=Circle(), n=(128,), epsilons=(0.4, 0.2),
        system=SystemSpec(catalog="circle-positive"),
    )
    wider = SweepConfig(
        kind="stability", domain=Circle(), n=(128,), epsilons=(0.4, 0.2, 0.1),
        system=SystemSpec(catalog="circle-positive"),
    )
    r1, r2 = run_stability_sweep(base), run_stability_sweep(wider)
    assert max(r.report.max_u for r in r2.rows) >= max(r.report.max_u for r in r1.rows)
    assert (max(1.0 / r.report.min_u for r in r2.rows)
            >= max(1.0 / r.report.min_u for r in r1.rows))
    assert (max(r.report.w12_seminorm for r in r2.rows)
            >= max(r.report.w12_seminorm for r in r1.rows))


WORKER_CASES = {
    "stability": dict(domain=Torus2(), n=(12, 12), epsilons=(0.5, 0.25),
                      system=SystemSpec(catalog="hamiltonian-cellular"), assert_l1_limit=False),
    "transform": dict(domain=Circle(), n=(64,), epsilons=(0.4, 0.3),
                      system=SystemSpec(catalog="circle-positive")),
    "decay": dict(domain=Circle(), n=(64,), epsilons=(0.4, 0.2),
                  system=SystemSpec(catalog="circle-positive"), scheme="crank-nicolson"),
    "bounded": dict(domain=Interval(), n=(48,), epsilons=(0.5, 0.1),
                    noise=NoiseSpec(kind="explicit", a0_forms=(Const(1.0),), ai_forms=((Const(1.0),),))),
}


@pytest.mark.parametrize("kind", sorted(WORKER_CASES))
def test_worker_count_leaves_artifacts_byte_identical(kind, tmp_path):
    artifacts = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        run(SweepConfig(kind=kind, out_dir=str(out), workers=workers, **WORKER_CASES[kind]))
        artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert f"{kind}.csv" in artifacts[0]
    assert artifacts[0] == artifacts[1]


def test_run_dispatches_on_kind_and_rejects_unknown_kinds():
    cfg = SweepConfig(kind="bounded", domain=Interval(), n=(32,), epsilons=(0.5,))
    assert run(cfg).verdicts == run_bounded_domain(cfg).verdicts
    with pytest.raises(ValueError, match="unknown experiment kind 'sweep'"):
        run(SweepConfig(kind="sweep", domain=Circle(), n=(32,), epsilons=(0.5,)))


def test_decay_retry_refits_the_prefix_without_reintegrating(tmp_path, monkeypatch):
    # at horizon_factor 40 the mode-2 chi^2 underflows the fit floor across
    # the full window, so each epsilon retries mode 2 at half the horizon
    cfg = SweepConfig(kind="decay", domain=Circle(), n=(16,), epsilons=(0.5, 0.25),
                      system=SystemSpec(catalog="zero-drift"), horizon_factor=40.0,
                      dt_factor=0.02, out_dir=str(tmp_path / "study"))
    calls = []
    evolve = experiments.evolve

    def counting_evolve(*args, **kwargs):
        calls.append(args[2])
        return evolve(*args, **kwargs)

    monkeypatch.setattr(experiments, "evolve", counting_evolve)
    report = run_decay_study(cfg)
    assert len(calls) == len(cfg.epsilons)  # one block of both modes per eps, no re-integration
    assert report.verdicts == {"rates above the eps^2 floor": True, "rate/eps^2 spread": True,
                               "chi^2 monotone": True, "mass conserved": True}

    # reference: re-integrate to half the horizon whenever the full fit fails
    grid, system, family = cfg.build()
    retried = 0
    for row in report.rows:
        op = assemble_for(system, family, row.eps)
        stationary = solve_stationary(op).density
        scale = 1.0 / (row.eps ** 2 * cfg.rate_guess)
        for mode in (1, 2):
            v0 = perturbed_initial(stationary, mode=mode)
            horizon = cfg.horizon_factor * scale
            trace, _ = evolve(op, v0, horizon, cfg.dt_factor * scale, stationary=stationary)
            try:
                fit = fit_decay_rate(trace)
            except FitError:
                retried += 1
                trace, _ = evolve(op, v0, 0.5 * horizon, cfg.dt_factor * scale,
                                  stationary=stationary)
                fit = fit_decay_rate(trace)
            assert row.fits_by_mode[mode] == fit
            name = f"trace_eps{row.eps:g}_mode{mode}.csv"
            write_csv(str(tmp_path / name), experiments.TRACE_HEADER, experiments.trace_cells(trace))
            assert (tmp_path / "study" / name).read_bytes() == (tmp_path / name).read_bytes()
    assert retried == len(cfg.epsilons)
