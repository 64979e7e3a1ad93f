import os

import pytest

from noisyflow.cli import main
from noisyflow.config import parse_config, parse_expression, serialize_config, serialize_expression
from noisyflow.errors import ConfigError
from noisyflow.evolution import evolve, perturbed_initial
from noisyflow.experiments import TRACE_HEADER, SweepConfig, SystemSpec, NoiseSpec, Thresholds, trace_cells
from noisyflow.fields import Affine, Const, Power, Product, Trig
from noisyflow.geometry import Circle, Interval, Rectangle, Torus2
from noisyflow.operator import assemble_for
from noisyflow.reporting import write_csv
from noisyflow.stationary import solve_stationary

MINIMAL = """\
[domain]
kind = circle
length = 1.0
n = 64

[drift]
catalog = circle-positive

[noise]
kind = coordinate
eps = 0.2

[experiment]
kind = stability
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.domain == Circle(1.0)
    assert cfg.n == (64,)
    assert cfg.epsilons == (0.2,)
    assert cfg.system.catalog == "circle-positive"
    assert cfg.kind == "stability"


def test_ascending_eps_is_an_error():
    text = MINIMAL.replace("eps = 0.2", "eps = 0.1, 0.5")
    with pytest.raises(ConfigError, match="descending"):
        parse_config(text)


def test_unknown_key_names_nearest():
    text = MINIMAL.replace("eps = 0.2", "epsilon = 0.2")
    with pytest.raises(ConfigError, match="nearest valid key: eps"):
        parse_config(text)


def test_unknown_section_is_an_error():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "\n[domian]\nkind = circle\n")


def test_removed_uniform_sup_threshold_is_an_unknown_key():
    text = MINIMAL.replace("kind = stability", "kind = stability\nuniform_sup = 1e-10")
    with pytest.raises(ConfigError, match=r"uniform_sup: unknown key in \[experiment\] \(nearest valid key"):
        parse_config(text)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_an_error(workers):
    text = MINIMAL + f"workers = {workers}\n"  # line 15
    with pytest.raises(ConfigError, match=f"must be at least 1, got {workers}") as info:
        parse_config(text)
    (line, key, _), = info.value.locations
    assert (line, key) == (15, "workers")


def test_duplicate_key_is_an_error():
    text = MINIMAL.replace("length = 1.0", "length = 1.0\nlength = 2.0")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(text)


def test_error_reports_line_numbers():
    text = MINIMAL.replace("eps = 0.2", "eps = 0.2, 0.9")  # ascending, on line 11
    try:
        parse_config(text)
        raise AssertionError("expected ConfigError")
    except ConfigError as exc:
        (line, key, _), = exc.locations
        assert key == "eps"
        assert line == 11


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


def test_expression_parsing_matches_forms():
    lengths = (1.0,)
    assert parse_expression("const:2.5", lengths) == Const(2.5)
    form = parse_expression("cos:axis=0,freq=2,amp=0.5,offset=1.0", lengths)
    assert form == Trig("cos", 0, 2, 0.5, 1.0, 1.0)
    nested = parse_expression("product(const:2.0; rsqrt(sin:axis=0,freq=1,offset=2.0))", lengths)
    assert nested == Product(Const(2.0), Power(Trig("sin", 0, 1, 1.0, 2.0, 1.0), -0.5))


def test_expression_round_trip():
    lengths = (1.0,)
    for text in (
        "const:1.5",
        "cos:axis=0,freq=1,amp=0.5,offset=1",
        "sum(const:1; sin:axis=0,freq=3,amp=0.25,offset=0)",
        "product(affine:axis=0,slope=2,intercept=1; const:3)",
        "rsqrt(cos:axis=0,freq=1,amp=0.5,offset=2)",
    ):
        form = parse_expression(text, lengths)
        assert parse_expression(serialize_expression(form), lengths) == form


def test_expression_errors():
    with pytest.raises(ValueError):
        parse_expression("cos:axis=5,freq=1", (1.0,))  # axis out of range
    with pytest.raises(ValueError):
        parse_expression("cos:axis=0,freq=1.5", (1.0,))  # fractional cycles
    with pytest.raises(ValueError):
        parse_expression("tan:axis=0", (1.0,))
    with pytest.raises(ValueError):
        parse_expression("cos:axis=0,zzz=1", (1.0,))
    with pytest.raises(ValueError, match="axis 1.7"):
        parse_expression("cos:axis=1.7,freq=1", (1.0, 1.0))  # fractional axis
    with pytest.raises(ValueError, match="axis 3"):
        parse_expression("affine:axis=3,slope=1", (1.0, 1.0))  # axis out of range


ROUND_TRIP_SETTINGS = dict(refine_factor=3, horizon_factor=7.5, rate_guess=12.25, assert_l1_limit=False)


@pytest.mark.parametrize("domain, n, system, settings", [
    pytest.param(Torus2(1.0, 1.0), (32, 32), SystemSpec(catalog="torus-shear"), {}, id="torus2"),
    pytest.param(Torus2(1.0, 0.5), (32, 24), SystemSpec(catalog="torus-shear"), ROUND_TRIP_SETTINGS,
                 id="torus2-settings"),
    pytest.param(Circle(2.0), (48,),
                 SystemSpec(drift_forms=(Trig("sin", 0, 1, 0.5, 2.0, 2.0),), u0_form=Const(0.5)),
                 ROUND_TRIP_SETTINGS, id="circle-settings"),
    pytest.param(Interval(-1.0, 0.5), (40,),
                 SystemSpec(drift_forms=(Const(0.0),), u0_form=Affine(0, 0.25, 1.0)),
                 ROUND_TRIP_SETTINGS, id="interval-settings"),
    pytest.param(Rectangle(0.0, 1.0, -0.5, 1.5), (16, 20), SystemSpec(catalog="zero-drift"),
                 ROUND_TRIP_SETTINGS, id="rectangle-settings"),
])
def test_config_round_trip_rich(domain, n, system, settings):
    axes = range(domain.dim)
    cfg = SweepConfig(
        kind="selection",
        domain=domain,
        n=n,
        epsilons=(0.5, 0.1),
        system=system,
        noise=NoiseSpec(kind="explicit",
                        a0_forms=tuple(Const(0.0) for _ in axes),
                        ai_forms=tuple(tuple(Const(float(i == j)) for j in axes) for i in axes)),
        target=Trig("cos", domain.dim - 1, 1, 0.5, 1.0, domain.lengths[-1]),
        out_dir="results",
        thresholds=Thresholds(selection_sup=1e-3),
        dt_factor=1e-3,
        scheme="crank-nicolson",
        workers=4,
        admissibility_p=3.5,
        **settings,
    )
    assert parse_config(serialize_config(cfg)) == cfg


# ---------------------------------------------------------------------------
# command-line entry
# ---------------------------------------------------------------------------


def write_config(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return str(path)


ROTATION = """\
[domain]
kind = torus2
lengths = 1.0, 1.0
n = 16, 16

[drift]
catalog = torus-rotation

[noise]
kind = coordinate
eps = 0.5, 0.1

[experiment]
kind = stability
"""


def test_cli_sweep_rotation_passes(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", "--config", write_config(tmp_path, ROTATION), "--out", str(out)])
    assert code == 0
    lines = (out / "stability.csv").read_text().splitlines()
    assert lines[0] == "eps,n,min_u,max_u,w12,residual,l1_dist_to_u0"
    for line in lines[1:]:
        assert float(line.split(",")[-1]) <= 1e-10


def test_cli_verdict_failure_exits_2(tmp_path, capsys):
    text = ROTATION.replace("kind = stability", "kind = stability\nbound_factor = 0.5")
    code = main(["sweep", "--config", write_config(tmp_path, text)])
    assert code == 2
    assert "verdict failure" in capsys.readouterr().err


def test_cli_evolve_rejects_bad_dt(tmp_path, capsys):
    code = main(["evolve", "--config", write_config(tmp_path, ROTATION), "--dt", "-0.5"])
    assert code == 1
    assert "dt must be positive" in capsys.readouterr().err


def test_cli_bad_config_exits_1(tmp_path, capsys):
    code = main(["sweep", "--config", write_config(tmp_path, ROTATION.replace("eps =", "epsilon ="))])
    assert code == 1
    assert "nearest valid key" in capsys.readouterr().err


def test_cli_oracle1d_artifacts(tmp_path):
    circle = MINIMAL.replace("n = 64", "n = 128")
    out = tmp_path / "out"
    code = main(["oracle1d", "--config", write_config(tmp_path, circle),
                 "--eps", "0.3", "--out", str(out), "--quiet"])
    assert code == 0
    lines = (out / "oracle.csv").read_text().splitlines()
    assert lines[0] == "x,u,u0"
    assert len(lines) == 129
    assert "C_eps" in (out / "oracle_summary.txt").read_text()
    # atomic writes leave no temporaries behind
    assert not [p for p in os.listdir(out) if p.startswith(".tmp-")]


def test_cli_check_degenerate_noise_fails(tmp_path):
    text = MINIMAL.replace(
        "kind = coordinate",
        "kind = explicit\na1 = sin:axis=0,freq=1,amp=1,offset=0",
    ).replace("n = 64", "n = 65")
    code = main(["check", "--config", write_config(tmp_path, text), "--quiet"])
    assert code == 2


def test_cli_check_passes_for_coordinate_noise(tmp_path):
    code = main(["check", "--config", write_config(tmp_path, MINIMAL), "--quiet"])
    assert code == 0


@pytest.mark.parametrize("text, old, new, line, key", [
    pytest.param(MINIMAL, "length = 1.0", "bounds = 0, 1", 3, "bounds", id="bounds-on-circle"),
    pytest.param(MINIMAL, "catalog = circle-positive", "catalog = circle-positive\nbx = const:1", 8, "bx",
                 id="bx-beside-catalog"),
    pytest.param(MINIMAL, "catalog = circle-positive", "catalog = circle-positive\nu0 = const:1", 8, "u0",
                 id="u0-beside-catalog"),
    pytest.param(MINIMAL, "kind = coordinate", "kind = coordinate\na1 = const:1", 11, "a1",
                 id="a1-under-coordinate-noise"),
    pytest.param(MINIMAL, "catalog = circle-positive", "bx = const:1\nby = const:1\nu0 = const:1", 8, "by",
                 id="by-on-circle"),
    pytest.param(ROTATION, "n = 16, 16", "n = 16.9, 8.2", 4, "n", id="fractional-n"),
    pytest.param(ROTATION, "catalog = torus-rotation", "bx = cos:axis=1.7,freq=1\nu0 = const:1", 7, "bx",
                 id="fractional-axis"),
    pytest.param(ROTATION, "catalog = torus-rotation", "bx = const:1\nu0 = affine:axis=3,slope=1", 8, "u0",
                 id="axis-out-of-range"),
    pytest.param(MINIMAL, "kind = coordinate", "kind = explicit\na1 = const:1\na3 = const:1", 12, "a3",
                 id="gap-in-diffusion-fields"),
])
def test_keys_read_other_than_written_are_errors(tmp_path, capsys, text, old, new, line, key):
    text = text.replace(old, new)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert [(ln, k) for ln, k, _ in info.value.locations] == [(line, key)]
    assert main(["stationary", "--config", write_config(tmp_path, text), "--quiet"]) == 1
    assert f"line {line}, {key}: " in capsys.readouterr().err


def test_gap_in_diffusion_fields_names_the_missing_key():
    text = MINIMAL.replace("kind = coordinate", "kind = explicit\na2 = const:1")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert [(line, key) for line, key, _ in info.value.locations] == [(11, "a2")]
    assert "a1 is missing" in str(info.value)


def test_bad_domain_kind_reports_only_the_domain_error():
    text = (ROTATION.replace("kind = torus2", "kind = toruss")
            .replace("catalog = torus-rotation", "bx = cos:axis=1,freq=1\nby = const:0\nu0 = const:1")
            .replace("kind = coordinate", "kind = explicit\na1 = const:1; const:0\na2 = const:0; const:1")
            .replace("kind = stability", "kind = stability\ntarget = cos:axis=1,freq=1,offset=2"))
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert [(line, key) for line, key, _ in info.value.locations] == [(2, "kind")]


def test_omitted_drift_component_is_zero_on_its_own_axis():
    cfg = parse_config(ROTATION.replace("catalog = torus-rotation", "by = const:1\nu0 = const:1"))
    assert cfg.system.drift_forms == (Const(0.0), Const(1.0))


def test_cli_n_is_read_like_the_file_key(tmp_path, capsys):
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL.replace("n = 64", "n = 8.5"))
    (line, key, message), = info.value.locations
    assert (line, key) == (4, "n")
    assert main(["stationary", "--config", write_config(tmp_path, MINIMAL), "--n", "8.5"]) == 1
    assert f"--n: {message}" in capsys.readouterr().err


def test_cli_n_and_eps_overrides(tmp_path, capsys):
    code = main(["stationary", "--config", write_config(tmp_path, MINIMAL),
                 "--n", "128", "--eps", "0.4,0.2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "eps=0.4" in out and "eps=0.2" in out


def test_cli_stationary_csv_equals_sweep_stability_csv(tmp_path):
    path = write_config(tmp_path, ROTATION)
    assert main(["stationary", "--config", path, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert (tmp_path / "a" / "stationary.csv").read_bytes() == (tmp_path / "b" / "stability.csv").read_bytes()


def test_cli_command_must_match_experiment_kind(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["select", "--config", write_config(tmp_path, ROTATION), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "'selection'" in err and "'stability'" in err
    assert not out.exists()  # no other study ran in its place


def test_cli_decay_writes_rates_and_traces(tmp_path):
    text = (MINIMAL.replace("catalog = circle-positive", "catalog = zero-drift")
            .replace("eps = 0.2", "eps = 0.5, 0.25").replace("kind = stability", "kind = decay"))
    out = tmp_path / "out"
    code = main(["decay", "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"])
    assert code == 0
    lines = (out / "decay.csv").read_text().splitlines()
    assert lines[0] == "eps,rate,rate_over_eps2,r2,t_lo,t_hi"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "0.25"]
    for eps in ("0.5", "0.25"):
        for mode in (1, 2):
            trace = (out / f"trace_eps{eps}_mode{mode}.csv").read_text().splitlines()
            assert trace[0] == "t,chi2,mass_drift,min_v" and len(trace) > 2
    assert "overall: PASS" in (out / "summary.txt").read_text()


def test_cli_evolve_steps_the_configured_scheme(tmp_path):
    text = MINIMAL.replace("kind = stability", "kind = decay\nscheme = crank-nicolson")
    out = tmp_path / "out"
    assert main(["evolve", "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    cfg = parse_config(text)
    _, system, family = cfg.build()
    eps = cfg.epsilons[0]
    scale = 1.0 / (eps * eps * cfg.rate_guess)
    op = assemble_for(system, family, eps)
    stationary = solve_stationary(op).density
    expected = {}
    for scheme in ("crank-nicolson", "implicit-euler"):
        trace, _ = evolve(op, perturbed_initial(stationary), cfg.horizon_factor * scale,
                          cfg.dt_factor * scale, scheme=scheme, stationary=stationary)
        path = tmp_path / f"{scheme}.csv"
        write_csv(str(path), TRACE_HEADER, trace_cells(trace))
        expected[scheme] = path.read_bytes()
    written = (out / "trace.csv").read_bytes()
    assert written == expected["crank-nicolson"]
    assert written != expected["implicit-euler"]
