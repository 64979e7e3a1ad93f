import fnmatch
import itertools
import math
import os
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from noisyflow.cli import COMMANDS, main
from noisyflow.config import parse_config, parse_expression, serialize_config, serialize_expression
from noisyflow.errors import ConfigError
from noisyflow.evolution import evolve, perturbed_initial
import noisyflow.experiments as experiments
from noisyflow.experiments import (FOUR_PI_SQ, KIND_KEYS, RUNNERS, SweepConfig, SystemSpec, NoiseSpec,
                                   Thresholds, trace_columns)
from noisyflow.fields import Affine, Const, Power, Product, Trig
from noisyflow.geometry import Circle, Interval, Rectangle, Torus2
from noisyflow.operator import assemble_for
from noisyflow.reporting import atomic_write_text, write_csv
import noisyflow.stationary as stationary
from noisyflow.stationary import Density, solve_stationary

EXPERIMENT_KINDS = tuple(RUNNERS)

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

# MINIMAL on the unit interval, line for line
INTERVAL = MINIMAL.replace("kind = circle\nlength = 1.0", "kind = interval\nbounds = 0.0, 1.0").replace(
    "circle-positive", "zero-drift")


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.domain == Circle(1.0)
    assert cfg.n == (64,)
    assert cfg.epsilons == (0.2,)
    assert cfg.system.catalog == "circle-positive"
    assert cfg.kind == "stability"


def test_epsilons_sharing_a_trace_label_are_an_error_at_the_eps_line():
    # both would write trace_eps0.5_mode1.csv in a decay study
    text = MINIMAL.replace("eps = 0.2", "eps = 0.5000001, 0.5")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.locations == [(11, "eps", "epsilons 0.5000001 and 0.5 share the label 0.5 of their "
                                                "trace files")]


def test_inline_drift_without_u0_is_an_error_at_line_0():
    text = ROTATION.replace("catalog = torus-rotation", "bx = const:0\nby = const:1")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.locations == [(0, "u0", "inline drift needs an explicit invariant density u0")]


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
    text = MINIMAL.replace("kind = stability", "kind = stability\nuniform_sup = 1e-10")  # line 15
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    # no [experiment] key is near enough to name as the nearest
    assert info.value.locations == [(15, "uniform_sup", "unknown key in [experiment]")]


@pytest.mark.parametrize("command", ["stationary", "evolve", "sweep", "check", "oracle1d"])
def test_removed_transform_kind_and_threshold_are_errors(tmp_path, capsys, command):
    # the transform check is a test now (conftest.transform_mismatch), not an experiment kind;
    # every command reads [experiment], so every command refuses both
    cases = [(MINIMAL.replace("kind = stability", "kind = transform"), 14, "kind",
              "unknown experiment kind 'transform'"),
             (MINIMAL + "transform_sup = 5e-3\n", 15, "transform_sup", "unknown key in [experiment]")]
    out = tmp_path / "out"
    for text, line, key, message in cases:
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert [(ln, k) for ln, k, _ in info.value.locations] == [(line, key)]
        assert main([command, "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]) == 1
        assert f"line {line}, {key}: {message}" in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(ValueError, match="kind: unknown experiment kind 'transform'"):
        SweepConfig(kind="transform", domain=Circle(), n=(16,), epsilons=(0.5,))


@pytest.mark.parametrize("command", ["stationary", "evolve", "sweep", "check", "oracle1d"])
def test_removed_bounded_kind_is_an_error_under_every_command(tmp_path, capsys, command):
    # rectangles run the stability sweep and the interval oracle check is a test, so
    # bounded is an unknown kind on every domain, an interval included
    assert_bounded_is_unknown(tmp_path, capsys, command, INTERVAL)


@pytest.mark.parametrize("command", ["stationary", "evolve", "sweep", "check", "oracle1d"])
def test_bounded_kind_on_a_circle_is_an_error_under_every_command(tmp_path, capsys, command):
    # the kind is unknown before any domain rule could name the circle
    assert_bounded_is_unknown(tmp_path, capsys, command, MINIMAL)


def assert_bounded_is_unknown(tmp_path, capsys, command, text):
    text = text.replace("kind = stability", "kind = bounded")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert [(ln, k) for ln, k, _ in info.value.locations] == [(14, "kind")]
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]) == 1
    assert "line 14, kind: unknown experiment kind 'bounded'\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["rate_guess", "refine_factor"])
def test_constant_settings_are_unknown_keys(key):
    # the decay time scale is 1/(4 pi^2 eps^2) and selection refines by 2
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL.replace("kind = stability", f"kind = selection\ntarget = const:1\n{key} = 3"))
    assert [(line, k) for line, k, _ in info.value.locations] == [(16, key)]
    assert f"line 16, {key}: unknown key in [experiment]" in str(info.value)


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
        "sin:axis=0,freq=2,amp=0.5,offset=1,phase=0.25",
    ):
        form = parse_expression(text, lengths)
        assert parse_expression(serialize_expression(form, lengths), lengths) == form


def test_a_trig_form_of_another_period_is_not_expressible():
    # the reader takes a trig period from its axis length, so a period-2
    # cosine on the unit circle would come back with period 1
    wave = Trig("cos", 0, 1, 0.5, 1.0, 2.0)
    for form in (wave, Product(Const(2.0), wave), Power(wave, -0.5)):
        with pytest.raises(ValueError, match="not expressible"):
            serialize_expression(form, (1.0,))
    assert serialize_expression(wave, (2.0,)) == "cos:axis=0,freq=1,amp=0.5,offset=1"
    cfg = SweepConfig(kind="selection", domain=Circle(), n=(16,), epsilons=(0.5,), target=wave)
    with pytest.raises(ValueError, match="not expressible"):
        serialize_config(cfg)


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


ROUND_TRIP_SETTINGS = dict(horizon_factor=7.5)


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
    common = dict(
        domain=domain,
        n=n,
        epsilons=(0.5, 0.1),
        system=system,
        out_dir="results",
        dt_factor=1e-3,
        scheme="crank-nicolson",
        workers=4,
        **settings,
    )
    explicit = SweepConfig(
        kind="stability",
        noise=NoiseSpec(kind="explicit",
                        a0_forms=tuple(Const(0.0) for _ in axes),
                        ai_forms=tuple(tuple(Const(float(i == j)) for j in axes) for i in axes)),
        assert_l1_limit=False,
        **common,
    )
    target = Trig("cos", domain.dim - 1, 1, 0.5, 1.0, domain.lengths[-1])
    selection = SweepConfig(kind="selection", target=target, **common)
    for cfg in (explicit, selection):
        assert parse_config(serialize_config(cfg)) == cfg


# ---------------------------------------------------------------------------
# command-line entry
# ---------------------------------------------------------------------------


def corpus(name):
    """The text of the audited configuration ``configs/<name>.ini``."""
    return (Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini").read_text()


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
    # torus-shear with noise across the streamlines only: the limit is
    # proportional to 1/(1 + cos(2 pi y)/2), not u0 = 1, so L1 stays near 0.34
    text = ROTATION.replace("torus-rotation", "torus-shear").replace(
        "kind = coordinate", "kind = explicit\na1 = const:1; const:0\n"
                             "a2 = const:0; cos:axis=1,freq=1,amp=0.5,offset=1.0")
    out = tmp_path / "out"
    code = main(["sweep", "--config", write_config(tmp_path, text), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "verdict failure" in err and "final l1 distance" in err
    assert "[FAIL] final l1 distance" in (out / "summary.txt").read_text()
    l1s = [float(line.split(",")[-1]) for line in (out / "stability.csv").read_text().splitlines()[1:]]
    assert min(l1s) > 0.3


def test_a_failed_factorization_exits_1(tmp_path, monkeypatch, capsys):
    # a solver error is an operational error: a message and exit 1, no traceback
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr("noisyflow.stationary.spla.splu", singular)
    assert main(["sweep", "--config", write_config(tmp_path, ROTATION), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: sparse LU failed: Factor is exactly singular\n"


@pytest.mark.parametrize("value", ["-0.5", "0", "nan", "inf"])
@pytest.mark.parametrize("key", ["dt_factor", "horizon_factor"])
def test_step_factors_must_be_positive_and_finite(tmp_path, capsys, key, value):
    text = ROTATION.replace("kind = stability", f"kind = decay\n{key} = {value}")  # line 15
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert [(line, k) for line, k, _ in info.value.locations] == [(15, key)]
    with pytest.raises(ValueError, match=re.escape(f"{key}: must be positive and finite, got {value}")):
        SweepConfig(kind="decay", domain=Circle(), n=(16,), epsilons=(0.5,), **{key: float(value)})
    path = write_config(tmp_path, text)
    for command in ("evolve", "sweep"):
        assert main([command, "--config", path, "--quiet"]) == 1
        assert f"line 15, {key}: must be positive and finite, got {value}" in capsys.readouterr().err


def test_an_empty_output_directory_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    text = ROTATION.replace("kind = stability", "kind = stability\nout =")  # line 15
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert [(line, key) for line, key, _ in info.value.locations] == [(15, "out")]
    with pytest.raises(ValueError, match=re.escape("out_dir: must not be empty")):
        SweepConfig(kind="stability", domain=Circle(), n=(16,), epsilons=(0.5,), out_dir="")
    with pytest.raises(ValueError, match=re.escape("out_dir: must not be empty")):
        replace(parse_config(ROTATION), out_dir="")
    assert main(["sweep", "--config", write_config(tmp_path, text), "--quiet"]) == 1
    assert "line 15, out: must not be empty" in capsys.readouterr().err
    assert main(["sweep", "--config", write_config(tmp_path, ROTATION), "--out", "", "--quiet"]) == 1
    assert capsys.readouterr().err == "error: out_dir: must not be empty\n"
    assert [p.name for p in tmp_path.iterdir()] == ["exp.ini"]  # nothing was written


@pytest.mark.parametrize("argv", [
    ["sweep"],
    ["bogus", "--config", "exp.ini"],
    ["sweep", "--config", "exp.ini", "--bogus", "1"],
    ["sweep", "--config", "exp.ini", "--eps", "0.3"],
    ["select", "--config", "exp.ini"],
    ["transform", "--config", "exp.ini"],
    ["bounded", "--config", "exp.ini"],
    ["decay", "--config", "exp.ini"],
], ids=["no-config", "unknown-command", "unknown-flag", "removed-flag", "removed-select",
        "removed-transform", "removed-bounded", "removed-decay"])
def test_usage_errors_exit_1(tmp_path, monkeypatch, capsys, argv):
    # 2 is the verdict-failure status, so a usage error must not exit with it
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, ROTATION)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: noisyflow") and not captured.out


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: noisyflow")
    assert "{stationary,evolve,oracle1d,check,sweep}" in out.split()
    assert [flag for flag in ("--config", "--out", "--quiet", "--eps", "--n", "--dt", "--horizon")
            if flag in out.split()] == ["--config", "--out", "--quiet"]


def test_cli_bad_config_exits_1(tmp_path, capsys):
    code = main(["sweep", "--config", write_config(tmp_path, ROTATION.replace("eps =", "epsilon ="))])
    assert code == 1
    assert "nearest valid key" in capsys.readouterr().err


def test_cli_oracle1d_artifacts(tmp_path):
    circle = MINIMAL.replace("n = 64", "n = 128")
    out = tmp_path / "out"
    code = main(["oracle1d", "--config", write_config(tmp_path, circle.replace("eps = 0.2", "eps = 0.3")),
                 "--out", str(out), "--quiet"])
    assert code == 0
    lines = (out / "oracle.csv").read_text().splitlines()
    assert lines[0] == "x,u,u0"
    assert len(lines) == 129
    assert "C_eps" in (out / "oracle_summary.txt").read_text()
    # atomic writes leave no temporaries behind
    assert not [p for p in os.listdir(out) if p.startswith(".tmp-")]


def test_cli_sweep_exits_1_when_the_solve_gives_nan(tmp_path, monkeypatch, capsys):
    # a factorization whose solve returns NaN: an error, not a row of NaN
    class NanLU:
        def solve(self, rhs):
            return np.full(rhs.shape, np.nan)

    monkeypatch.setattr(stationary, "factorize", lambda matrix, dim: NanLU())
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, ROTATION), "--out", str(out), "--quiet"]) == 1
    assert "stationary solve returned a non-finite component" in capsys.readouterr().err
    assert not (out / "stability.csv").exists()


def test_cli_oracle1d_non_finite_drift_exits_1(tmp_path, capsys):
    # the drift (1/2 + sin 2 pi x)^(-1/2) is NaN on an arc: an error, not an all-NaN oracle
    text = MINIMAL.replace("catalog = circle-positive",
                           "bx = rsqrt(sin:axis=0,freq=1,amp=1.0,offset=0.5)\nu0 = const:1").replace(
        "eps = 0.2", "eps = 0.4")
    out = tmp_path / "out"
    with np.errstate(invalid="ignore"):
        code = main(["oracle1d", "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"])
    assert code == 1
    assert "non-finite sample of the drift B" in capsys.readouterr().err
    assert not (out / "oracle.csv").exists()


def test_cli_oracle1d_unresolved_circle_exits_1(tmp_path, capsys):
    # 256 cells at eps = 0.025 give psi_max * delta = 4.7: an error, not a density 2% off
    text = MINIMAL.replace("n = 64", "n = 256").replace("eps = 0.2", "eps = 0.025")
    out = tmp_path / "out"
    code = main(["oracle1d", "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"])
    assert code == 1
    assert "circle oracle is unresolved: psi_max * delta = 4.69 exceeds 1" in capsys.readouterr().err
    assert not (out / "oracle.csv").exists()


# a drift through the walls of the unit square: B = e_x with u0 = 1
WALL_CROSSING = corpus("wall-crossing-rectangle")


@pytest.mark.parametrize("command", ["stationary", "evolve", "sweep", "check", "oracle1d"])
def test_a_drift_through_a_wall_is_an_error_for_every_command(tmp_path, capsys, command):
    # the reflecting walls need a zero normal flux; without that rule the stationary
    # density piles up against x = 1 and the sweep blames stability for it
    out = tmp_path / "out"
    code = main([command, "--config", write_config(tmp_path, WALL_CROSSING), "--out", str(out), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err == "error: drift normal component reaches 1.0 on the axis-0 boundary\n"
    assert not out.exists()


def test_cli_check_degenerate_noise_fails(tmp_path, capsys):
    text = MINIMAL.replace(
        "kind = coordinate",
        "kind = explicit\na1 = sin:axis=0,freq=1,amp=1,offset=0",
    ).replace("n = 64", "n = 65")
    code = main(["check", "--config", write_config(tmp_path, text), "--quiet"])
    assert code == 2
    # like sweep, check names the failing hypothesis on stderr
    assert capsys.readouterr().err == "verdict failure: (A2) ellipticity\n"


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
    pytest.param(ROTATION, "kind = stability", "kind = stability\ntarget = cos:axis=1,freq=1,offset=2", 15,
                 "target", id="target-under-stability"),
    pytest.param(MINIMAL, "kind = stability", "kind = decay\ntarget = const:1", 15, "target",
                 id="target-under-decay"),
    pytest.param(MINIMAL, "kind = stability", "kind = selection\ntarget = const:1\nassert_l1_limit = false", 16,
                 "assert_l1_limit", id="assert-l1-limit-under-selection"),
    pytest.param(INTERVAL, "kind = stability", "kind = decay\nassert_l1_limit = true", 15,
                 "assert_l1_limit", id="assert-l1-limit-under-decay"),
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


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_step_settings_are_legal_under_every_kind(kind):
    # `evolve` reads the scheme and the step factors from a config of any kind
    text = INTERVAL.replace("kind = stability", f"kind = {kind}\nscheme = crank-nicolson\ndt_factor = 0.01\n"
                                                "horizon_factor = 2")
    if kind == "selection":
        text += "target = const:1\n"
    cfg = parse_config(text)
    assert (cfg.kind, cfg.scheme, cfg.dt_factor, cfg.horizon_factor) == (kind, "crank-nicolson", 0.01, 2.0)


def test_kind_keys_round_trip_under_their_kind():
    stability = parse_config(MINIMAL + "assert_l1_limit = false\n")
    selection = parse_config(MINIMAL.replace("kind = stability", "kind = selection") + "target = const:1\n")
    assert (stability.assert_l1_limit, selection.target) == (False, Const(1.0))
    for cfg in (stability, selection):
        assert parse_config(serialize_config(cfg)) == cfg


# one non-default value for each field of KIND_KEYS
KIND_ONLY_VALUES = {"target": Const(1.0), "assert_l1_limit": False}


@pytest.mark.parametrize("key, value", KIND_ONLY_VALUES.items())
@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_sweep_config_rejects_another_kinds_field(kind, key, value):
    # a field the kind never reads would serialize to a file parse_config rejects
    base = dict(kind=kind, domain=Circle(), n=(16,), epsilons=(0.5,))
    if kind == KIND_KEYS[key]:
        assert getattr(SweepConfig(**base, **{key: value}), key) == value
    else:
        with pytest.raises(ValueError, match=re.escape(f"{key}: not read by [experiment] kind = {kind}")):
            SweepConfig(**base, **{key: value})


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_every_constructible_config_round_trips(kind):
    # every mix of default and non-default kind-only fields that SweepConfig
    # accepts comes back unchanged from its file form
    built = 0
    for chosen in itertools.product((False, True), repeat=len(KIND_ONLY_VALUES)):
        changes = {key: value for (key, value), on in zip(KIND_ONLY_VALUES.items(), chosen) if on}
        try:
            cfg = SweepConfig(kind=kind, domain=Interval(), n=(16,), epsilons=(0.5, 0.25),
                              scheme="crank-nicolson", **changes)
        except ValueError:
            # another kind's field, or a selection experiment without its target
            assert (any(kind != KIND_KEYS[key] for key in changes)
                    or (kind == "selection" and "target" not in changes))
            continue
        built += 1
        assert parse_config(serialize_config(cfg)) == cfg
    readable = sum(kind == KIND_KEYS[key] for key in KIND_ONLY_VALUES)
    # the selection experiment always needs its target
    assert built == 2 ** readable // (2 if kind == "selection" else 1)


THRESHOLD_NAMES = [f.name for f in fields(Thresholds)]


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
@pytest.mark.parametrize("key", THRESHOLD_NAMES)
def test_tolerances_are_not_keys(tmp_path, capsys, key, kind):
    # the tolerances are one fixed record, SweepConfig.thresholds: no file and no caller sets one
    target = "\ntarget = const:1" if kind == "selection" else ""
    text = INTERVAL.replace("kind = stability", f"kind = {kind}{target}") + f"{key} = 0.25\n"
    line = len(text.splitlines())
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    (ln, k, message), = info.value.locations
    assert (ln, k) == (line, key)
    assert message.startswith("unknown key in [experiment]")
    path, out = write_config(tmp_path, text), tmp_path / "out"
    for command in COMMANDS:
        assert main([command, "--config", path, "--out", str(out), "--quiet"]) == 1
        assert f"line {line}, {key}: unknown key in [experiment]" in capsys.readouterr().err
        assert not out.exists()
    with pytest.raises(TypeError, match="thresholds"):
        SweepConfig(kind=kind, domain=Interval(), n=(16,), epsilons=(0.5,), thresholds=Thresholds(**{key: 0.25}))


@pytest.mark.parametrize("scheme, code", [("implicit-euler", 1), ("crank-nicolson", 0)])
def test_decay_underflow_names_the_scheme(tmp_path, capsys, scheme, code):
    # circle-positive at n = 256, eps = 0.025: implicit Euler damps the advected
    # modes, so chi^2 reaches the floor within the first steps and no fit window
    # is left even at half the horizon; Crank-Nicolson keeps them and fits
    text = MINIMAL.replace("n = 64", "n = 256").replace("eps = 0.2", "eps = 0.025").replace(
        "kind = stability", f"kind = decay\nscheme = {scheme}")
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("error: chi^2 underflowed the floor across the window; shorten the horizon, or set "
                       "scheme = crank-nicolson if implicit Euler's damping is the cause\n")
    else:
        assert err == ""
        assert "overall: PASS" in (out / "summary.txt").read_text()


def test_selection_experiment_needs_its_target(tmp_path, capsys):
    text = SELECTION.replace("target = cos:axis=0,freq=1,amp=0.5,offset=1.0\n", "")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert [(line, key) for line, key, _ in info.value.locations] == [(0, "target")]
    assert "missing [experiment] target" in str(info.value)
    with pytest.raises(ValueError, match=re.escape("target: missing [experiment] target")):
        SweepConfig(kind="selection", domain=Circle(), n=(16,), epsilons=(0.5,))
    path = write_config(tmp_path, text)
    for command in ("sweep", "check"):
        assert main([command, "--config", path, "--quiet"]) == 1
        assert "line 0, target: missing [experiment] target" in capsys.readouterr().err


#: a form on axis 1, which a circle lacks, and its registry text
OFF_AXIS = Trig("cos", 1, 1, 0.5, 1.0, 1.0)
OFF_AXIS_TEXT = "cos:axis=1,freq=1,amp=0.5,offset=1"

#: MINIMAL as SweepConfig fields
MINIMAL_FIELDS = dict(kind="stability", domain=Circle(), n=(64,), epsilons=(0.2,),
                      system=SystemSpec(catalog="circle-positive"))


# one case per rule of experiments.config_problems: (old, new) edits MINIMAL,
# (line, key) is where the file reports it, and changes give SweepConfig the same value
@pytest.mark.parametrize("old, new, line, key, changes", [
    pytest.param("kind = stability", "kind = stabilty", 14, "kind", dict(kind="stabilty"), id="experiment-kind"),
    pytest.param("kind = stability", "kind = stability\nscheme = crank-nicholson", 15, "scheme",
                 dict(scheme="crank-nicholson"), id="scheme"),
    pytest.param("kind = coordinate", "kind = coordinates", 10, "kind", dict(noise=NoiseSpec(kind="coordinates")),
                 id="noise-kind"),
    pytest.param("catalog = circle-positive", "catalog = circle-positve", 7, "catalog",
                 dict(system=SystemSpec(catalog="circle-positve")), id="catalog"),
    pytest.param("eps = 0.2", "eps = 0.2, 0.5", 11, "eps", dict(epsilons=(0.2, 0.5)), id="eps-ascending"),
    pytest.param("eps = 0.2", "eps = 1.5", 11, "eps", dict(epsilons=(1.5,)), id="eps-range"),
    pytest.param("n = 64", "n = 2", 4, "n", dict(n=(2,)), id="cells-below-minimum"),
    pytest.param("n = 64", "n = 64, 64", 4, "n", dict(n=(64, 64)), id="cells-per-axis"),
    pytest.param("n = 64", "n = 20000000", 4, "n", dict(n=(20000000,)), id="cells-above-cap"),
    pytest.param("kind = stability", "kind = stability\ndt_factor = 0", 15, "dt_factor", dict(dt_factor=0.0),
                 id="dt-factor"),
    pytest.param("kind = stability", "kind = stability\nhorizon_factor = -inf", 15, "horizon_factor",
                 dict(horizon_factor=-math.inf), id="horizon-factor"),
    pytest.param("kind = stability", "kind = stability\nworkers = 0", 15, "workers", dict(workers=0),
                 id="workers"),
    pytest.param("kind = stability", "kind = stability\ntarget = const:1", 15, "target",
                 dict(target=Const(1.0)), id="target-of-another-kind"),
    pytest.param("kind = stability", "kind = selection\ntarget = const:1\nassert_l1_limit = false", 16,
                 "assert_l1_limit", dict(kind="selection", target=Const(1.0), assert_l1_limit=False),
                 id="setting-of-another-kind"),
    pytest.param("kind = coordinate", "kind = selection", 10, "kind", dict(noise=NoiseSpec(kind="selection")),
                 id="removed-selection-noise-kind"),
    pytest.param("kind = coordinate\neps = 0.2\n\n[experiment]\nkind = stability",
                 "kind = explicit\na1 = const:2\neps = 0.2\n\n[experiment]\nkind = selection\ntarget = const:1", 10,
                 "kind", dict(kind="selection", target=Const(1.0), noise=NoiseSpec(kind="explicit",
                                                                                   ai_forms=((Const(2.0),),))),
                 id="explicit-noise-under-selection"),
    pytest.param("kind = stability", "kind = selection", 0, "target", dict(kind="selection"),
                 id="selection-without-target"),
    pytest.param("kind = coordinate", "kind = explicit", 0, "a1", dict(noise=NoiseSpec(kind="explicit")),
                 id="explicit-without-diffusion-field"),
    pytest.param("kind = coordinate", "kind = coordinate\na1 = const:1", 11, "a1",
                 dict(noise=NoiseSpec(ai_forms=((Const(1.0),),))), id="diffusion-field-of-coordinate-noise"),
    pytest.param("kind = coordinate", "kind = coordinate\na0 = const:1", 11, "a0",
                 dict(noise=NoiseSpec(a0_forms=(Const(1.0),))), id="drift-correction-of-coordinate-noise"),
    pytest.param("catalog = circle-positive", "catalog = circle-positive\nu0 = const:1", 8, "u0",
                 dict(system=SystemSpec(catalog="circle-positive", u0_form=Const(1.0))), id="u0-beside-catalog"),
    # a form on an axis the circle lacks, in each field that holds forms
    pytest.param("kind = stability", f"kind = selection\ntarget = {OFF_AXIS_TEXT}", 15, "target",
                 dict(kind="selection", target=OFF_AXIS), id="target-off-axis"),
    pytest.param("catalog = circle-positive", f"bx = {OFF_AXIS_TEXT}\nu0 = const:1", 7, "bx",
                 dict(system=SystemSpec(drift_forms=(OFF_AXIS,), u0_form=Const(1.0))), id="drift-off-axis"),
    pytest.param("catalog = circle-positive", f"bx = const:1\nu0 = {OFF_AXIS_TEXT}", 8, "u0",
                 dict(system=SystemSpec(drift_forms=(Const(1.0),), u0_form=OFF_AXIS)), id="u0-off-axis"),
    pytest.param("kind = coordinate", f"kind = explicit\na0 = {OFF_AXIS_TEXT}\na1 = const:1", 11, "a0",
                 dict(noise=NoiseSpec(kind="explicit", a0_forms=(OFF_AXIS,), ai_forms=((Const(1.0),),))),
                 id="a0-off-axis"),
    pytest.param("kind = coordinate", f"kind = explicit\na1 = {OFF_AXIS_TEXT}", 11, "a1",
                 dict(noise=NoiseSpec(kind="explicit", ai_forms=((OFF_AXIS,),))), id="a1-off-axis"),
])
def test_file_and_sweep_config_refuse_alike(tmp_path, capsys, old, new, line, key, changes):
    assert parse_config(MINIMAL) == SweepConfig(**MINIMAL_FIELDS)
    text = MINIMAL.replace(old, new)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    (ln, k, message), = info.value.locations
    assert (ln, k) == (line, key)
    assert str(info.value) == f"invalid configuration: line {line}, {key}: {message}"
    assert main(["stationary", "--config", write_config(tmp_path, text), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"
    with pytest.raises(ValueError) as raised:
        SweepConfig(**{**MINIMAL_FIELDS, **changes})
    assert str(raised.value).endswith(": " + message)


def test_catalog_on_another_domain_gets_its_line(tmp_path, capsys):
    # the catalog's domain is a field rule: the file names the catalog line, not the build
    text = MINIMAL.replace("kind = circle\nlength = 1.0", "kind = torus2\nlengths = 1.0, 1.0")
    message = "circle-positive requires a Circle domain, got Torus2"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.locations == [(7, "catalog", message)]
    assert str(info.value) == f"invalid configuration: line 7, catalog: {message}"
    with pytest.raises(ValueError) as raised:
        SweepConfig(**{**MINIMAL_FIELDS, "domain": Torus2(), "n": (64, 64)})
    assert str(raised.value) == f"system.catalog: {message}"
    assert main(["sweep", "--config", write_config(tmp_path, text), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_problems_are_reported_in_file_order():
    # syntax problems and field rules come from two passes; the report merges them by line
    text = (MINIMAL.replace("n = 64", "n = 2").replace("eps = 0.2", "eps = x")
            .replace("kind = stability", "kind = selection\nworkers = 0"))
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert [(line, key) for line, key, _ in info.value.locations] == [(0, "target"), (4, "n"), (11, "eps"),
                                                                      (15, "workers")]


@pytest.mark.parametrize("domain, n, message", [
    (Torus2(), (16,), "Torus2 needs 2 cell counts, got 1"),
    (Circle(), (16, 16), "Circle needs 1 cell counts, got 2"),
    (Rectangle(), (16, 3), "cells per axis must be >= 4, got 3"),
    (Torus2(), (8192, 4096), "total cell count 33554432 exceeds cap"),
])
def test_sweep_config_checks_cell_counts_like_the_grid(domain, n, message):
    # each of these would otherwise construct and then not parse back or not build
    with pytest.raises(ValueError, match="n: " + message):
        SweepConfig(kind="stability", domain=domain, n=n, epsilons=(0.5,))


def test_p_is_an_unknown_noise_key():
    # check uses the integrability exponent p = d + 2
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL.replace("eps = 0.2", "eps = 0.2\np = 3"))
    assert [(line, key) for line, key, _ in info.value.locations] == [(12, "p")]
    assert "line 12, p: unknown key in [noise]" in str(info.value)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_selection_is_an_unknown_noise_kind(tmp_path, capsys, kind):
    # the selection experiment builds its own noise, so no [noise] kind names it
    text = INTERVAL.replace("kind = coordinate", "kind = selection").replace("kind = stability",
                                                                             f"kind = {kind}")
    base = dict(kind=kind, domain=Interval(), n=(16,), epsilons=(0.5,), noise=NoiseSpec(kind="selection"))
    if kind == "selection":
        text += "target = const:1\n"
        base["target"] = Const(1.0)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.locations == [(10, "kind", "unknown noise kind 'selection'")]
    with pytest.raises(ValueError) as raised:
        SweepConfig(**base)
    assert str(raised.value) == "noise.kind: unknown noise kind 'selection'"
    path = write_config(tmp_path, text)
    for command in ("check", "stationary"):
        assert main([command, "--config", path, "--quiet"]) == 1
        assert "line 10, kind: unknown noise kind 'selection'" in capsys.readouterr().err


def test_bad_domain_kind_reports_only_the_domain_error():
    base = (ROTATION.replace("kind = torus2", "kind = toruss")
            .replace("catalog = torus-rotation", "bx = cos:axis=1,freq=1\nby = const:0\nu0 = const:1"))
    # explicit noise fields, and a selection target (whose experiment builds its own noise)
    texts = [base.replace("kind = coordinate", "kind = explicit\na1 = const:1; const:0\na2 = const:0; const:1"),
             base.replace("kind = stability", "kind = selection\ntarget = cos:axis=1,freq=1,offset=2")]
    for text in texts:
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert [(line, key) for line, key, _ in info.value.locations] == [(2, "kind")]


def test_omitted_drift_component_is_zero_on_its_own_axis():
    cfg = parse_config(ROTATION.replace("catalog = torus-rotation", "by = const:1\nu0 = const:1"))
    assert cfg.system.drift_forms == (Const(0.0), Const(1.0))


def test_cli_stationary_csv_equals_sweep_stability_csv(tmp_path):
    path = write_config(tmp_path, ROTATION)
    assert main(["stationary", "--config", path, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert (tmp_path / "a" / "stationary.csv").read_bytes() == (tmp_path / "b" / "stability.csv").read_bytes()


def test_cli_decay_writes_rates_and_traces(tmp_path):
    text = (MINIMAL.replace("catalog = circle-positive", "catalog = zero-drift")
            .replace("eps = 0.2", "eps = 0.5, 0.25").replace("kind = stability", "kind = decay"))
    out = tmp_path / "out"
    code = main(["sweep", "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"])
    assert code == 0
    lines = (out / "decay.csv").read_text().splitlines()
    assert lines[0] == "eps,rate,rate_over_eps2,r2,t_lo,t_hi"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "0.25"]
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert all(over == rate / eps ** 2 for eps, rate, over, *_ in rows)
    for eps in ("0.5", "0.25"):
        for mode in (1, 2):
            trace = (out / f"trace_eps{eps}_mode{mode}.csv").read_text().splitlines()
            assert trace[0] == "t,chi2,mass_drift,min_v" and len(trace) > 2
    assert "overall: PASS" in (out / "summary.txt").read_text()


def test_write_csv_gives_the_same_bytes_for_arrays_numpy_scalars_and_floats(tmp_path):
    # an array column goes out through tolist(); lists of numpy scalars and of
    # Python floats must read exactly the same, and the header follows the dict order
    values = np.array([1.0 / 3.0, 1e-300, -0.0, 2.0])
    for name, column in [("array", values), ("numpy", list(values)), ("python", values.tolist())]:
        write_csv(str(tmp_path / f"{name}.csv"), dict(value=column, n=["4"] * 4, eps=column[::-1],
                                                      oracle_sup=[""] * 4))
    expected = ("value,n,eps,oracle_sup\n"
                "0.33333333333333331,4,2,\n"
                "1e-300,4,-0,\n"
                "-0,4,1e-300,\n"
                "2,4,0.33333333333333331,\n")
    for name in ("array", "numpy", "python"):
        assert (tmp_path / f"{name}.csv").read_text() == expected
    # columns of unequal length are an error, not a silently shortened file
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "ragged.csv"), dict(t=values, chi2=values[:3]))
    assert not (tmp_path / "ragged.csv").exists()


def test_atomic_write_leaves_nothing_when_the_text_cannot_be_encoded(tmp_path):
    # a lone surrogate fails in the write to the temporary file
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(str(tmp_path / "summary.txt"), "\ud800")
    assert list(tmp_path.iterdir()) == []  # neither the target nor a .tmp-*.part file


CROSS_DIFFUSION_RECTANGLE = """\
[domain]
kind = rectangle
bounds = 0.0, 1.0, 0.0, 1.0
n = 8

[drift]
catalog = zero-drift

[noise]
kind = explicit
a1 = const:1; const:0.5
a2 = const:0; const:1
eps = 0.5

[experiment]
kind = stability
"""


@pytest.mark.parametrize("command", ["stationary", "evolve", "sweep"])
def test_cross_diffusion_on_a_rectangle_exits_1(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, CROSS_DIFFUSION_RECTANGLE), "--out", str(out),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == "error: cross-diffusion terms are only supported on periodic domains\n"
    assert not out.exists()


def test_cli_evolve_steps_the_configured_scheme(tmp_path):
    text = MINIMAL.replace("kind = stability", "kind = decay\nscheme = crank-nicolson")
    out = tmp_path / "out"
    assert main(["evolve", "--config", write_config(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    cfg = parse_config(text)
    _, system, family = cfg.build()
    eps = cfg.epsilons[0]
    scale = 1.0 / (eps * eps * FOUR_PI_SQ)
    op = assemble_for(system, family, eps)
    stationary = solve_stationary(op).density
    expected = {}
    for scheme in ("crank-nicolson", "implicit-euler"):
        block, _ = evolve(op, [perturbed_initial(stationary)], cfg.horizon_factor * scale,
                          cfg.dt_factor * scale, scheme=scheme, stationary=stationary)
        path = tmp_path / f"{scheme}.csv"
        write_csv(str(path), trace_columns(block[0]))
        expected[scheme] = path.read_bytes()
    written = (out / "trace.csv").read_bytes()
    assert written == expected["crank-nicolson"]
    assert written != expected["implicit-euler"]


EXPLICIT_TORUS_DECAY = corpus("explicit-torus-decay")


def test_evolve_trace_is_the_sweeps_first_mode_1_trace(tmp_path):
    config = write_config(tmp_path, EXPLICIT_TORUS_DECAY)
    assert main(["evolve", "--config", config, "--out", str(tmp_path / "evolve"), "--quiet"]) == 0
    # the sweep writes its traces before its verdicts, whichever way they go
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "sweep"), "--quiet"]) in (0, 2)
    written = (tmp_path / "evolve" / "trace.csv").read_bytes()
    assert written == (tmp_path / "sweep" / "trace_eps0.4_mode1.csv").read_bytes()
    assert written != (tmp_path / "sweep" / "trace_eps0.4_mode2.csv").read_bytes()


# a zero-drift circle decay whose chi^2 underflows the fit floor over the full
# horizon at eps 0.5 under implicit Euler, so the fit needs the first half
RETRY = MINIMAL.replace("circle-positive", "zero-drift").replace("n = 64", "n = 32").replace(
    "eps = 0.2", "eps = 0.5, 0.25").replace("kind = stability", "kind = decay\nhorizon_factor = 185")


def test_evolve_retries_the_fit_on_the_half_horizon(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["evolve", "--config", write_config(tmp_path, RETRY), "--out", str(out)]) == 0
    # 37000 steps to the horizon, so the half-horizon prefix holds 18500 steps
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 18501
    rate = float(re.search(r"fitted rate (\S+)", capsys.readouterr().out).group(1))
    assert abs(rate - FOUR_PI_SQ * 0.25) <= 0.01 * FOUR_PI_SQ * 0.25


# zero drift, noise that selects u* = 1 + cos(2 pi x) / 2
SELECTION = corpus("selection-circle")


def test_stationary_runs_a_selection_config(tmp_path):
    out = tmp_path / "out"
    assert main(["stationary", "--config", write_config(tmp_path, SELECTION), "--out", str(out),
                 "--quiet"]) == 0
    header, *rows = [line.split(",") for line in (out / "stationary.csv").read_text().splitlines()]
    assert len(rows) == 2
    for row in rows:
        cells = dict(zip(header, row))
        assert abs(float(cells["min_u"]) - 0.5) <= 5e-3 and abs(float(cells["max_u"]) - 1.5) <= 5e-3


def test_evolve_runs_a_selection_config(tmp_path):
    out = tmp_path / "out"
    assert main(["evolve", "--config", write_config(tmp_path, SELECTION), "--out", str(out),
                 "--quiet"]) == 0
    header, *rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()]
    chi2 = [float(row[header.index("chi2")]) for row in rows]
    # implicit Euler against the discrete stationary density: chi^2 never rises
    assert len(chi2) > 100 and all(b <= a for a, b in zip(chi2, chi2[1:]))
    assert 0.0 < chi2[-1] < 1e-2 * chi2[0]


def test_oracle1d_runs_a_selection_config(tmp_path, capsys):
    interval = SELECTION.replace("kind = circle\nlength = 1.0", "kind = interval\nbounds = 0.0, 1.0")
    out = tmp_path / "out"
    assert main(["oracle1d", "--config", write_config(tmp_path, interval), "--out", str(out),
                 "--quiet"]) == 0
    header, *rows = [line.split(",") for line in (out / "oracle.csv").read_text().splitlines()]
    x = [float(row[header.index("x")]) for row in rows]
    u = [float(row[header.index("u")]) for row in rows]
    assert len(u) == 64
    assert max(abs(ui - (1.0 + 0.5 * math.cos(2 * math.pi * xi))) for xi, ui in zip(x, u)) <= 1e-3
    # on the circle the noise builds; the zero drift is what the oracle refuses
    assert main(["oracle1d", "--config", write_config(tmp_path, SELECTION), "--quiet"]) == 1
    assert "circle oracle requires B > 0 everywhere" in capsys.readouterr().err


def test_check_runs_a_selection_config(tmp_path, capsys):
    assert main(["check", "--config", write_config(tmp_path, SELECTION)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the selecting noise is elliptic with constant 1 / max u* = 2/3
    lam = float(lines[1].split()[2])
    assert abs(lam - 2.0 / 3.0) <= 1e-3
    assert lines[2:] == ["(A1) integrability: PASS", "(A2) ellipticity:  PASS"]


def test_selection_experiment_always_builds_the_selecting_noise():
    # the selection experiment reads no other noise: the default noise of the
    # file, spelt out as kind = coordinate, is the corpus config, whose noise
    # every command builds as the selecting one (test_stationary_runs_a_selection_config)
    text = SELECTION.replace("[noise]\n", "[noise]\nkind = coordinate\n")
    cfg = parse_config(text)
    assert cfg == parse_config(SELECTION) and cfg.noise == NoiseSpec()
    assert parse_config(serialize_config(cfg)) == cfg


def test_explicit_noise_is_not_read_by_the_selection_experiment(tmp_path, capsys):
    text = SELECTION.replace("[noise]\n", "[noise]\nkind = explicit\na1 = const:2\n")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert [(line, key) for line, key, _ in info.value.locations] == [(10, "kind")]
    assert "[noise] kind = explicit is not read by [experiment] kind = selection" in str(info.value)
    with pytest.raises(ValueError, match=re.escape("noise.kind: [noise] kind = explicit is not read by "
                                                   "[experiment] kind = selection")):
        SweepConfig(kind="selection", domain=Circle(), n=(16,), epsilons=(0.5,), target=Const(1.0),
                    noise=NoiseSpec(kind="explicit", ai_forms=((Const(2.0),),)))
    path = write_config(tmp_path, text)
    for command in ("sweep", "stationary"):
        assert main([command, "--config", path, "--quiet"]) == 1
        assert "line 10, kind: [noise] kind = explicit" in capsys.readouterr().err


def test_zero_min_u_fails_the_uniform_lower_bound(tmp_path, monkeypatch, capsys):
    # the solve clips undershoots to exactly 0; the verdict fails instead of dividing by it
    solve = experiments.solve_stationary
    calls = []

    def solve_with_a_zero(op):
        rep = solve(op)
        calls.append(op)
        # each run solves ROTATION's two eps once, in order: zero the first eps
        # only, so the l1 trend stays non-increasing
        if len(calls) % 2 == 0:
            return rep
        values = rep.density.values.copy()
        values[0] = 0.0
        return replace(rep, density=Density.normalized(values, op.grid))

    monkeypatch.setattr(experiments, "solve_stationary", solve_with_a_zero)
    report = experiments.run_stability_sweep(parse_config(ROTATION))
    assert report.verdicts["uniform lower bound"] is False
    assert main(["sweep", "--config", write_config(tmp_path, ROTATION), "--quiet"]) == 2
    assert "verdict failure: uniform lower bound" in capsys.readouterr().err


def readme_csv_schemas() -> dict[str, str]:
    """README's "CSV schemas" table: file name (or glob) -> the CSV's header line."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("### CSV schemas", 1)[1].split("\n\n")[1]
    schemas = {}
    for line in table.splitlines()[2:]:
        files, columns = line.strip().strip("|").split("|")
        for name in re.findall(r"`([^`]+)`", files):
            schemas[name] = re.search(r"`([^`]+)`", columns).group(1)
    return schemas


def test_every_csv_header_matches_the_readme_schema_table(tmp_path):
    # the column names live only in the runners' rows; this ties them to the README
    tiny = MINIMAL.replace("n = 64", "n = 16")
    # run name -> (command, configuration); sweep runs once per [experiment] kind
    runs = {
        "stability": ("sweep", tiny),
        "selection": ("sweep", SELECTION.replace("n = 64", "n = 16")),
        "decay": ("sweep", tiny.replace("circle-positive", "zero-drift").replace("eps = 0.2", "eps = 0.5")
                               .replace("kind = stability", "kind = decay")),
        "stationary": ("stationary", tiny),
        "evolve": ("evolve", tiny),
        # 16 cells would leave the oracle's panels too coarse at eps = 0.2
        "oracle1d": ("oracle1d", tiny.replace("n = 16", "n = 32")),
    }
    for name, (command, text) in runs.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(text)
        assert main([command, "--config", str(path), "--out", str(tmp_path / name), "--quiet"]) in (0, 2)
    schemas = readme_csv_schemas()
    matched = set()
    for csv in sorted(tmp_path.glob("*/*.csv")):
        pattern, = [name for name in schemas if fnmatch.fnmatch(csv.name, name)]
        matched.add(pattern)
        assert csv.read_text().splitlines()[0] == schemas[pattern], csv
    assert matched == set(schemas)
