import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisyflow.experiments as experiments
from noisyflow.config import parse_config
from noisyflow.errors import BoundaryError, FitError
from noisyflow.evolution import fit_decay_rate, perturbed_initial
from noisyflow.experiments import (
    FOUR_PI_SQ,
    NoiseSpec,
    SweepConfig,
    SystemSpec,
    Thresholds,
    run_decay_study,
    run_selection,
    run,
    run_stability_sweep,
)
from noisyflow.fields import Const, Trig, construct_selecting_noise, mul
from noisyflow.geometry import Circle, Interval, Rectangle, Torus2, build_grid
from noisyflow.operator import assemble_for
from noisyflow.reporting import write_csv
from noisyflow.stationary import solve_stationary


@pytest.mark.parametrize("epsilons, message", [
    ((0.1, 0.5), "descending"),
    ((0.5, 0.5), "descending"),
    ((), "at least one epsilon"),
    ((1.5,), r"lie in \(0, 1\)"),
    ((0.5, 0.0), r"lie in \(0, 1\)"),
    ((1.0, 0.5), r"lie in \(0, 1\)"),
    ((0.5000001, 0.5), "share the label 0.5 of their trace files"),
])
def test_sweep_config_eps_validation(epsilons, message):
    with pytest.raises(ValueError, match=message):
        SweepConfig(kind="stability", domain=Circle(), n=(64,), epsilons=epsilons)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(kind="stability", domain=Circle(), n=(64,), epsilons=())
    with pytest.raises(ValueError):
        SweepConfig(kind="stability", domain=Circle(), n=(64,), epsilons=(0.1, 0.5))
    with pytest.raises(ValueError):
        SweepConfig(kind="stability", domain=Circle(), n=(2,), epsilons=(0.5,))


@pytest.mark.parametrize("field, value, message", [
    ("workers", 0, "workers: must be at least 1, got 0"),
    ("scheme", "bogus", "scheme: unknown scheme 'bogus'"),
    ("kind", "bogus", "kind: unknown experiment kind 'bogus'"),
    ("noise", NoiseSpec(kind="bogus"), "noise.kind: unknown noise kind 'bogus'"),
    ("noise", NoiseSpec(kind="explicit"), "noise.ai_forms: explicit noise needs at least one diffusion field"),
    ("noise", NoiseSpec(ai_forms=((Const(1.0),),)), re.escape("noise.ai_forms: not read by [noise] kind = "
                                                              "coordinate")),
    ("system", SystemSpec(catalog="torus-rotaton"), re.escape("system.catalog: unknown catalog system "
                                                              "'torus-rotaton' (nearest: torus-rotation)")),
    # build used the catalog and dropped the forms, so the file form lost them
    ("system", SystemSpec(catalog="zero-drift", drift_forms=(Const(1.0),), u0_form=Const(1.0)),
     "^system.drift_forms: not read beside catalog; system.u0_form: not read beside catalog$"),
], ids=["workers", "scheme", "kind", "noise-kind", "explicit-without-diffusion-field",
        "coordinate-with-diffusion-fields", "catalog", "forms-beside-catalog"])
def test_sweep_config_rejects_what_would_not_parse_back(field, value, message):
    base = dict(kind="stability", domain=Circle(), n=(16,), epsilons=(0.5,))
    with pytest.raises(ValueError, match=message):
        SweepConfig(**{**base, field: value})


TORUS_FIELD = (Const(1.0), Const(0.0))


@pytest.mark.parametrize("spec, message", [
    (dict(system=SystemSpec(drift_forms=(Const(1.0),), u0_form=Const(1.0))),
     "system.drift_forms: need 2 forms, one per axis, got 1"),
    (dict(system=SystemSpec(drift_forms=TORUS_FIELD)),
     "system.u0_form: inline drift needs an explicit invariant density u0"),
    (dict(system=SystemSpec(u0_form=Const(1.0))), "system.drift_forms: inline u0 needs the drift components"),
    (dict(noise=NoiseSpec(kind="explicit", a0_forms=(Const(0.3),), ai_forms=(TORUS_FIELD, TORUS_FIELD[::-1]))),
     "noise.a0_forms: need 2 forms, one per axis, got 1"),
    (dict(noise=NoiseSpec(kind="explicit", ai_forms=((Const(1.0),), TORUS_FIELD[::-1]))),
     "noise.ai_forms: need 2 forms, one per axis, got 1"),
], ids=["one-drift-form", "drift-without-u0", "u0-without-drift", "one-a0-form", "one-a1-form"])
def test_sweep_config_needs_one_form_per_axis(spec, message):
    # each used to construct: the one-form drift then parsed back as (bx, const:0)
    # and failed in run, the drift without u0 failed only at build, and the
    # one-form a1 broadcast to a cross-diffusing a = [[1, 1], [1, 2]]
    with pytest.raises(ValueError, match=re.escape(message)):
        SweepConfig(kind="stability", domain=Torus2(), n=(16, 16), epsilons=(0.5,), **spec)


def test_sweep_config_builds_the_selecting_noise():
    target = Trig("cos", 0, 1, 0.5, 1.0, 1.0)
    base = dict(kind="selection", domain=Circle(), n=(32,), epsilons=(0.5,))
    grid, _, noise = SweepConfig(**base, target=target).build()
    expected = construct_selecting_noise(target, grid)
    x = grid.cell_centers()
    pairs = [(noise.a0_field, expected.a0_field), *zip(noise.ai_fields, expected.ai_fields)]
    assert len(pairs) == 2
    for built, direct in pairs:
        assert np.array_equal(built.at_points(x), direct.at_points(x))
    with pytest.raises(ValueError, match=re.escape("target: missing [experiment] target")):
        SweepConfig(**base)


@pytest.mark.parametrize("kind", experiments.NOISE_KINDS)
def test_every_noise_kind_builds(kind):
    grid = build_grid(Circle(), (16,))
    spec = NoiseSpec(kind=kind, ai_forms=((Const(1.0),),) if kind == "explicit" else None)
    noise = spec.build(grid)
    x = grid.cell_centers()
    # both kinds build the unit coordinate field with zero drift correction here
    assert np.array_equal(noise.a0_field.at_points(x), np.zeros_like(x))
    assert [np.array_equal(f.at_points(x), np.ones_like(x)) for f in noise.ai_fields] == [True]


def test_noise_spec_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown noise kind 'selection'"):
        NoiseSpec(kind="selection").build(build_grid(Circle(), (16,)))


def test_stability_sweep_circle_positive():
    cfg = SweepConfig(
        kind="stability", domain=Circle(), n=(512,), epsilons=(0.4, 0.2, 0.1),
        system=SystemSpec(catalog="circle-positive"),
    )
    report = run_stability_sweep(cfg)
    l1s = [r["l1_dist_to_u0"] for r in report.rows]
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
    assert all(r["l1_dist_to_u0"] <= 1e-10 for r in report.rows)
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
    assert (np.isfinite(max(r["max_u"] for r in report.rows))
            and np.isfinite(max(1.0 / r["min_u"] for r in report.rows)))
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
        assert 3.0 <= row["ratio"] <= 5.0
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
    errs = [r["err_sup"] for r in report.rows]
    assert max(errs) <= 5e-3
    assert abs(errs[0] - errs[1]) <= 1e-10 * errs[0]  # identical across eps


@pytest.mark.parametrize("domain, n, system, target", [
    (Torus2(), (16, 16), "torus-rotation", Const(1.0)),
    (Circle(), (16,), "zero-drift", Const(2.0)),
], ids=["torus-rotation", "zero-drift-circle"])
def test_exact_selection_passes_every_verdict(domain, n, system, target):
    # a uniform target under a divergence-free drift is selected to roundoff on
    # both grids, so the ratio and the spread over eps of the errors are noise
    cfg = SweepConfig(kind="selection", domain=domain, n=n, epsilons=(0.5, 0.1),
                      system=SystemSpec(catalog=system), target=target)
    report = run_selection(cfg)
    assert all(row["err_sup"] <= 1e-10 and row["err_sup_refined"] <= 1e-10 for row in report.rows)
    assert report.passed()


@pytest.mark.parametrize("shifts, ratio_passes", [
    ({256: (0.0, 0.0), 1024: (1e-6, 1e-6)}, False),  # roundoff on the coarse grid only
    ({256: (2e-10, 0.0), 1024: (0.0, 0.0)}, True),  # roundoff on both grids, spread 0.2 of the floor
], ids=["refined-error", "roundoff-spread"])
def test_selection_roundoff_is_read_on_both_grids_and_every_eps(monkeypatch, shifts, ratio_passes):
    # the exact torus selection, each solved density (coarse then refined, eps
    # in order) shifted in one cell by the next value for its cell count
    pending = {ncells: iter(values) for ncells, values in shifts.items()}

    def shifted(op):
        report = solve_stationary(op)
        report.density.values[0] += next(pending[op.grid.ncells])
        return report

    monkeypatch.setattr(experiments, "solve_stationary", shifted)
    cfg = SweepConfig(kind="selection", domain=Torus2(), n=(16, 16), epsilons=(0.5, 0.1),
                      system=SystemSpec(catalog="torus-rotation"), target=Const(1.0))
    verdicts = run_selection(cfg).verdicts
    assert verdicts == {"sup error within tolerance": True, "h^2 refinement ratio": ratio_passes,
                        "eps-uniform residual": True}


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


def test_transform_consistency_circle(transform_mismatch):
    assert transform_mismatch(Circle(), 256, "circle-positive", 0.3) <= 5e-3


def test_transform_identity_for_uniform_density():
    # u0 = 1: the transform leaves the operator unchanged entry by entry
    from noisyflow.fields import ConservativeSystem, transform_div_free, builtin_catalog, coordinate_noise
    from noisyflow.geometry import build_grid
    from noisyflow.operator import assemble_for

    g = build_grid(Torus2(), (16, 16))
    sys = builtin_catalog("torus-rotation", g)
    nf = coordinate_noise(g)
    drift2, nf2 = transform_div_free(sys, nf)
    sys2 = ConservativeSystem(drift2, Const(1.0), g)
    m1 = assemble_for(sys, nf, 0.5).matrix
    m2 = assemble_for(sys2, nf2, 0.5).matrix
    assert np.array_equal(m1.data, m2.data)
    assert np.array_equal(m1.indices, m2.indices)


def test_transform_consistency_refines_at_second_order(transform_mismatch):
    sups = {n: transform_mismatch(Circle(), n, "circle-positive", 0.3) for n in (128, 256)}
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
    assert abs(row["rate"] - np.pi ** 2) <= 0.02 * np.pi ** 2
    assert row["fits"][2].rate > row["fits"][1].rate  # slower mode wins
    assert row["rate"] == row["fits"][1].rate
    assert (tmp_path / "decay.csv").exists()
    assert (tmp_path / "trace_eps0.5_mode1.csv").exists()


def assert_long_horizon_mass(scheme):
    cfg = SweepConfig(kind="decay", domain=Circle(), n=(32,), epsilons=(0.5, 0.25),
                      system=SystemSpec(catalog="zero-drift"), horizon_factor=60.0,
                      scheme=scheme)
    report = run_decay_study(cfg)
    assert report.verdicts["mass conserved"]
    assert max(r["max_mass_drift"] for r in report.rows) <= 1e-13


def test_decay_study_conserves_mass_over_a_long_horizon():
    # 12000 implicit Euler steps per eps on a uniform diagonal: a per-step
    # mass error that every column shares would add up past the 1e-12 gate
    assert_long_horizon_mass("implicit-euler")


def test_decay_study_conserves_mass_over_a_long_horizon_crank_nicolson():
    # the same 12000 steps with the right-hand side carried from step to
    # step: a mass error it passes on would add up the same way
    assert_long_horizon_mass("crank-nicolson")


def test_decay_study_bounded_interval():
    # zero-flux decay: the slowest Neumann mode cos(pi x) relaxes chi^2
    # at eps^2 pi^2, a quarter of the periodic guess
    cfg = SweepConfig(
        kind="decay", domain=Interval(), n=(128,), epsilons=(0.5,),
        system=SystemSpec(catalog="zero-drift"),
    )
    report = run_decay_study(cfg)
    assert report.passed()
    rate = report.rows[0]["rate"]
    expected = np.pi ** 2 * 0.25
    assert abs(rate - expected) <= 0.02 * expected


#: B = e_x with u0 = 1 on the unit square: the drift crosses the walls x = 0 and x = 1
WALL_CROSSING = SystemSpec(drift_forms=(Const(1.0), Const(0.0)), u0_form=Const(1.0))


@pytest.mark.parametrize("kind", sorted(experiments.RUNNERS))
def test_every_kind_refuses_a_drift_through_a_wall(kind):
    # a stability sweep would pile the density against x = 1 and report it
    # as a failure of stability
    cfg = SweepConfig(kind=kind, domain=Rectangle(), n=(8, 8), epsilons=(0.5,), system=WALL_CROSSING,
                      target=Const(1.0) if kind == "selection" else None)
    with pytest.raises(BoundaryError, match=r"^drift normal component reaches 1\.0 on the axis-0 boundary$"):
        run(cfg)


@pytest.mark.parametrize("kind", sorted(experiments.RUNNERS))
def test_bounded_rejects_nonzero_normal_drift(kind):
    # on an interval the wall rule leaves only B = 0: a constant drift crosses both ends
    cfg = SweepConfig(kind=kind, domain=Interval(), n=(32,), epsilons=(0.5,),
                      system=SystemSpec(drift_forms=(Const(1.0),), u0_form=Const(1.0)),
                      target=Const(1.0) if kind == "selection" else None)
    with pytest.raises(BoundaryError, match=r"^drift normal component reaches 1\.0 on the axis-0 boundary$"):
        run(cfg)


def test_the_wall_rule_checks_only_bounded_axes_and_forgives_roundoff():
    # sin 2 pi x is -2.4e-16 at x = 1; on the torus the same e_x has no wall to cross
    along = SystemSpec(drift_forms=(Trig("sin", 0, 1, 1.0, 0.0, 1.0), Const(0.0)), u0_form=Const(1.0))
    grid, system, _ = SweepConfig(kind="stability", domain=Rectangle(), n=(8, 8), epsilons=(0.5,),
                                  system=along).build()
    assert 0.0 < abs(float(system.drift.normal_at_boundary(grid, 0)[1][0])) <= 1e-12
    SweepConfig(kind="stability", domain=Torus2(), n=(8, 8), epsilons=(0.5,), system=WALL_CROSSING).build()


#: the curl of the stream function sin(pi x) sin(pi y) / pi, tangent to every wall of the unit square
CELLULAR_IN_A_BOX = (mul(Trig("sin", 0, 1, 1.0, 0.0, 2.0), Trig("cos", 1, 1, 1.0, 0.0, 2.0)),
                     mul(Trig("cos", 0, 1, -1.0, 0.0, 2.0), Trig("sin", 1, 1, 1.0, 0.0, 2.0)))


@pytest.mark.parametrize("domain, drift, message", [
    pytest.param(Interval(), (Const(0.5),), "0.5 on the axis-0", id="interval-constant"),
    pytest.param(Interval(), (Trig("sin", 0, 1, 1.0, 0.0, 1.0),), None, id="interval-vanishing-at-the-ends"),
    pytest.param(Rectangle(), (Const(0.0), Const(2.0)), "2.0 on the axis-1", id="rectangle-through-y-walls"),
    pytest.param(Rectangle(), (Const(-3.0), Const(2.0)), "3.0 on the axis-0", id="rectangle-axis-0-first"),
    pytest.param(Rectangle(), CELLULAR_IN_A_BOX, None, id="rectangle-cellular-tangent"),
])
def test_the_wall_rule_names_the_first_crossed_axis_and_its_largest_normal_drift(domain, drift, message):
    # |B.n| is the reported value, so a drift into the wall counts as much as one out of it
    spec = SystemSpec(drift_forms=drift, u0_form=Const(1.0))
    cfg = SweepConfig(kind="stability", domain=domain, n=(8,) * len(drift), epsilons=(0.5,), system=spec)
    if message is None:
        grid, system, _ = cfg.build()
        for axis in range(grid.dim):
            assert all(np.max(np.abs(side)) <= 1e-12 for side in system.drift.normal_at_boundary(grid, axis))
    else:
        with pytest.raises(BoundaryError, match=rf"^drift normal component reaches {message} boundary$"):
            cfg.build()

@pytest.mark.parametrize("domain, n", [(Interval(), (32,)), (Rectangle(), (8, 8)), (Circle(), (32,)),
                                       (Torus2(), (8, 8))],
                         ids=["interval", "rectangle", "circle", "torus2"])
def test_bounded_is_an_unknown_kind(domain, n):
    # rectangles run the stability sweep; the interval oracle check is a test
    with pytest.raises(ValueError, match="^kind: unknown experiment kind 'bounded'$"):
        SweepConfig(kind="bounded", domain=domain, n=n, epsilons=(0.5,))


def test_bounded_interval_uniform():
    # zero drift with coordinate noise: u = 1 at every eps, so the sweep passes at the L1 floor
    report = run(SweepConfig(kind="stability", domain=Interval(), n=(64,), epsilons=(0.5, 0.1)))
    assert report.passed()
    assert all(np.max(np.abs(r["report"].density.values - 1.0)) <= 1e-10 for r in report.rows)


@pytest.mark.parametrize("drift", [(Const(0.0), Const(0.0)), CELLULAR_IN_A_BOX], ids=["zero", "cellular"])
def test_rectangle_runs_the_stability_sweep(drift):
    # a divergence-free drift tangent to the walls keeps u0 = 1 invariant, so the
    # sweep judges the L1 trend, the uniform bounds and the final L1 distance
    spec = SystemSpec(drift_forms=drift, u0_form=Const(1.0))
    report = run(SweepConfig(kind="stability", domain=Rectangle(), n=(16, 16), epsilons=(0.5, 0.25, 0.125),
                             system=spec))
    assert report.passed()
    assert len(report.verdicts) >= 3
    assert all(r["min_u"] > 0.0 for r in report.rows)


def test_rotation_torus_follows_the_eps_squared_law():
    # torus-rotation is uniquely ergodic, so u_eps -> u0 = 1; each halving of eps
    # divides the L1 distance by about four (3.6 and 4.0 at 32^2)
    text = (Path(__file__).resolve().parents[1] / "configs" / "rotation-torus-stability.ini").read_text()
    report = run(parse_config(text))
    assert report.passed()
    l1s = [r["l1_dist_to_u0"] for r in report.rows]
    assert all(3.0 <= a / b <= 5.0 for a, b in zip(l1s, l1s[1:]))


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
    assert max(r["max_u"] for r in r2.rows) >= max(r["max_u"] for r in r1.rows)
    assert (max(1.0 / r["min_u"] for r in r2.rows)
            >= max(1.0 / r["min_u"] for r in r1.rows))
    assert (max(r["w12"] for r in r2.rows)
            >= max(r["w12"] for r in r1.rows))


WORKER_CASES = {
    "stability": dict(kind="stability", domain=Torus2(), n=(12, 12), epsilons=(0.5, 0.25),
                      system=SystemSpec(catalog="hamiltonian-cellular"), assert_l1_limit=False),
    "decay": dict(kind="decay", domain=Circle(), n=(64,), epsilons=(0.4, 0.2),
                  system=SystemSpec(catalog="circle-positive"), scheme="crank-nicolson"),
    "stability-rectangle": dict(kind="stability", domain=Rectangle(), n=(12, 12), epsilons=(0.5, 0.25),
                                system=SystemSpec(drift_forms=CELLULAR_IN_A_BOX, u0_form=Const(1.0))),
    "decay-interval": dict(kind="decay", domain=Interval(), n=(48,), epsilons=(0.5, 0.25),
                           system=SystemSpec(catalog="zero-drift"), scheme="crank-nicolson"),
}


@pytest.mark.parametrize("case", sorted(WORKER_CASES))
def test_worker_count_leaves_artifacts_byte_identical(case, tmp_path):
    artifacts = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        run(SweepConfig(out_dir=str(out), workers=workers, **WORKER_CASES[case]))
        artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert f"{WORKER_CASES[case]['kind']}.csv" in artifacts[0]
    assert artifacts[0] == artifacts[1]


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=8, max_value=24),
    st.lists(st.sampled_from([0.5, 0.4, 0.3, 0.25]), min_size=2, max_size=3, unique=True),
    st.sampled_from(["circle-positive", "zero-drift"]),
    st.sampled_from(["implicit-euler", "crank-nicolson"]),
)
def test_decay_worker_count_leaves_artifacts_byte_identical_on_random_circles(
        n, epsilons, catalog, scheme):
    case = dict(kind="decay", domain=Circle(), n=(n,),
                epsilons=tuple(sorted(epsilons, reverse=True)),
                system=SystemSpec(catalog=catalog), scheme=scheme, dt_factor=0.02)
    artifacts = []
    with tempfile.TemporaryDirectory() as tmp:
        for workers in (1, 2):
            out = Path(tmp, f"workers{workers}")
            run(SweepConfig(out_dir=str(out), workers=workers, **case))
            artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert "decay.csv" in artifacts[0]
    assert artifacts[0] == artifacts[1]


def test_run_dispatches_on_kind_and_rejects_unknown_kinds():
    cfg = SweepConfig(kind="stability", domain=Interval(), n=(32,), epsilons=(0.5,))
    assert run(cfg).verdicts == run_stability_sweep(cfg).verdicts
    with pytest.raises(ValueError, match="unknown experiment kind 'sweep'"):
        run(SweepConfig(kind="sweep", domain=Circle(), n=(32,), epsilons=(0.5,)))


#: no runner reads oracle_sup: the finite-volume-vs-oracle tests and the
#: benchmark's oracle-circle gate do
ORACLE_READERS = "oracle tests and bench/workloads.py"

#: tolerance -> the kind whose runner reads it, or ORACLE_READERS
TOLERANCE_READERS = {
    "l1_final": "stability", "l1_floor": "stability", "bound_factor": "stability",
    "selection_sup": "selection", "selection_ratio_lo": "selection", "selection_ratio_hi": "selection",
    "selection_eps_spread": "selection", "selection_floor": "selection", "div_target_tol": "selection",
    "c_floor": "decay", "rate_spread": "decay",
    "oracle_sup": ORACLE_READERS,
}


@pytest.mark.parametrize("kind, domain, system, target", [
    ("stability", Circle(), "circle-positive", None),
    ("selection", Circle(), "zero-drift", Trig("cos", 0, 1, 0.5, 1.0, 1.0)),
    ("decay", Circle(), "zero-drift", None),
    ("stability", Rectangle(), "zero-drift", None),
    ("decay", Interval(), "zero-drift", None),
])
def test_each_kind_reads_exactly_its_thresholds(kind, domain, system, target):
    # every tolerance but oracle_sup is read by exactly one kind, and each kind reads some
    names = {f.name for f in fields(Thresholds)}
    assert set(TOLERANCE_READERS) == names
    assert set(TOLERANCE_READERS.values()) == set(experiments.RUNNERS) | {ORACLE_READERS}
    reads = set()

    class Recording(Thresholds):
        def __getattribute__(self, name):
            if name in names:
                reads.add(name)
            return super().__getattribute__(name)

    cfg = SweepConfig(kind=kind, domain=domain, n=(16,) * domain.dim, epsilons=(0.5, 0.25),
                      system=SystemSpec(catalog=system), target=target)
    object.__setattr__(cfg, "thresholds", Recording())
    report = run(cfg)
    assert reads == {key for key, reader in TOLERANCE_READERS.items() if reader == kind}
    assert report.thresholds is cfg.thresholds  # the report records the values its verdicts used


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
        op = assemble_for(system, family, row["eps"])
        stationary = solve_stationary(op).density
        scale = 1.0 / (row["eps"] ** 2 * FOUR_PI_SQ)
        for mode in (1, 2):
            v0 = perturbed_initial(stationary, mode=mode)
            horizon = cfg.horizon_factor * scale
            block, _ = evolve(op, [v0], horizon, cfg.dt_factor * scale, stationary=stationary)
            trace = block[0]
            try:
                fit = fit_decay_rate(trace)
            except FitError:
                retried += 1
                block, _ = evolve(op, [v0], 0.5 * horizon, cfg.dt_factor * scale,
                                  stationary=stationary)
                trace = block[0]
                fit = fit_decay_rate(trace)
            assert row["fits"][mode] == fit
            name = f"trace_eps{row['eps']:g}_mode{mode}.csv"
            write_csv(str(tmp_path / name), experiments.trace_columns(trace))
            assert (tmp_path / "study" / name).read_bytes() == (tmp_path / name).read_bytes()
    assert retried == len(cfg.epsilons)
