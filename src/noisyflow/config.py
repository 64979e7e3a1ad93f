"""Experiment configuration files.

The format is a strict INI dialect with four sections: [domain],
[drift], [noise], [experiment].  Keys are validated against a whitelist
and unknown keys are hard errors (naming the nearest valid key), because
silently ignored configuration is the classic failure mode of experiment
harnesses.  Parse and validation problems are aggregated and reported
with line numbers.

Field expressions use the closed-form registry::

    const:VALUE
    cos:axis=0,freq=1,amp=0.5,offset=1.0[,phase=0.0]
    sin:...                         (same arguments)
    affine:axis=0,slope=1.0[,intercept=0.0]
    sum(EXPR; EXPR)
    product(EXPR; EXPR)
    rsqrt(EXPR)                     reciprocal square root

Trigonometric frequencies are integer cycles per domain period; the
period is filled in from the axis length.  Vector-valued keys (drift
components, noise fields) take one expression per axis separated by
semicolons at the top level.
"""

from __future__ import annotations

import difflib
import re

from .errors import ConfigError
from .fields import Affine, Const, Power, Product, ScalarForm, Sum, Trig
from .geometry import Circle, DomainKind, Interval, Rectangle, Torus2
from .experiments import NoiseSpec, SweepConfig, SystemSpec, Thresholds

SECTION_KEYS = {
    "domain": {"kind", "length", "lengths", "bounds", "n"},
    "drift": {"catalog", "bx", "by", "u0"},
    "noise": {"kind", "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "eps", "p"},
    "experiment": {
        "kind", "out", "target", "dt_factor", "horizon_factor", "rate_guess",
        "refine_factor", "assert_l1_limit", "scheme", "workers",
        "l1_final", "l1_floor", "bound_factor",
        "selection_sup", "selection_ratio_lo", "selection_ratio_hi", "selection_eps_spread",
        "transform_sup", "c_floor", "rate_spread", "oracle_sup", "div_target_tol",
    },
}

EXPERIMENT_KINDS = ("stability", "selection", "transform", "decay", "bounded")

_THRESHOLD_KEYS = (
    "l1_final", "l1_floor", "bound_factor", "selection_sup",
    "selection_ratio_lo", "selection_ratio_hi", "selection_eps_spread",
    "transform_sup", "c_floor", "rate_spread", "oracle_sup", "div_target_tol",
)


class _Problems:
    def __init__(self):
        self.items = []

    def add(self, line, key, message):
        self.items.append((line, key, message))

    def raise_if_any(self):
        if self.items:
            details = "; ".join(f"line {ln}, {key}: {msg}" for ln, key, msg in self.items)
            raise ConfigError(f"invalid configuration: {details}", self.items)


def _split_sections(text: str, problems: _Problems):
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in SECTION_KEYS:
                near = difflib.get_close_matches(name, SECTION_KEYS, n=1)
                hint = f" (did you mean [{near[0]}]?)" if near else ""
                problems.add(lineno, name, f"unknown section{hint}")
                current = None
            else:
                current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            problems.add(lineno, line, "expected 'key = value'")
            continue
        if current is None:
            problems.add(lineno, line.split("=", 1)[0].strip(), "key outside a valid section")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        section_name = next(name for name, sec in sections.items() if sec is current)
        if key not in SECTION_KEYS[section_name]:
            near = difflib.get_close_matches(key, SECTION_KEYS[section_name], n=1)
            hint = f" (nearest valid key: {near[0]})" if near else ""
            problems.add(lineno, key, f"unknown key in [{section_name}]{hint}")
            continue
        if key in current:
            problems.add(lineno, key, "duplicate key")
            continue
        current[key] = (value, lineno)
    return sections


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

_FUNCS = ("sum", "product", "rsqrt")


def parse_expression(text: str, lengths: tuple[float, ...]) -> ScalarForm:
    """Parse a registry expression; raises ValueError on malformed input."""
    text = text.strip()
    for func in _FUNCS:
        if text.startswith(func + "(") and text.endswith(")"):
            inner = text[len(func) + 1:-1]
            parts = _split_top(inner)
            if func == "rsqrt":
                if len(parts) != 1:
                    raise ValueError(f"rsqrt takes one argument, got {len(parts)}")
                return Power(parse_expression(parts[0], lengths), -0.5)
            if len(parts) != 2:
                raise ValueError(f"{func} takes two arguments, got {len(parts)}")
            cls = Sum if func == "sum" else Product
            return cls(parse_expression(parts[0], lengths), parse_expression(parts[1], lengths))
    if ":" not in text:
        raise ValueError(f"malformed expression {text!r}")
    kind, args = text.split(":", 1)
    kind = kind.strip().lower()
    if kind == "const":
        return Const(float(args))
    params = {}
    for item in args.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ValueError(f"expected name=value in {text!r}")
        name, val = item.split("=", 1)
        params[name.strip().lower()] = float(val)
    if kind in ("cos", "sin"):
        axis = int(params.pop("axis", 0))
        if axis >= len(lengths):
            raise ValueError(f"axis {axis} out of range for a {len(lengths)}-dimensional domain")
        freq = params.pop("freq", 1.0)
        if freq != int(freq):
            raise ValueError(f"freq must be an integer number of cycles, got {freq}")
        form = Trig(kind, axis, int(freq), params.pop("amp", 1.0), params.pop("offset", 0.0),
                    lengths[axis], params.pop("phase", 0.0))
    elif kind == "affine":
        axis = int(params.pop("axis", 0))
        form = Affine(axis, params.pop("slope", 1.0), params.pop("intercept", 0.0))
    else:
        near = difflib.get_close_matches(kind, ("const", "cos", "sin", "affine"), n=1)
        hint = f" (nearest: {near[0]})" if near else ""
        raise ValueError(f"unknown expression kind {kind!r}{hint}")
    if params:
        raise ValueError(f"unknown arguments {sorted(params)} in {text!r}")
    return form


def _split_top(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts if p.strip()]


def serialize_expression(form: ScalarForm) -> str:
    if isinstance(form, Const):
        return f"const:{form.value:.17g}"
    if isinstance(form, Trig):
        out = f"{form.fn}:axis={form.axis},freq={form.freq},amp={form.amplitude:.17g},offset={form.offset:.17g}"
        if form.phase != 0.0:
            out += f",phase={form.phase:.17g}"
        return out
    if isinstance(form, Affine):
        return f"affine:axis={form.axis},slope={form.slope:.17g},intercept={form.intercept:.17g}"
    if isinstance(form, Sum):
        return f"sum({serialize_expression(form.left)}; {serialize_expression(form.right)})"
    if isinstance(form, Product):
        return f"product({serialize_expression(form.left)}; {serialize_expression(form.right)})"
    if isinstance(form, Power) and form.exponent == -0.5:
        return f"rsqrt({serialize_expression(form.base)})"
    raise ValueError(f"form {form!r} is not expressible in the configuration registry")


# ---------------------------------------------------------------------------
# sections -> SweepConfig
# ---------------------------------------------------------------------------


def _floats(value: str) -> list[float]:
    return [float(part) for part in re.split(r"[,\s]+", value.strip()) if part]


def _parse_domain(section, problems) -> tuple[DomainKind | None, tuple[int, ...]]:
    kind_value, kind_line = section.get("kind", (None, 0))
    if kind_value is None:
        problems.add(0, "kind", "missing [domain] kind")
        return None, ()
    kind_value = kind_value.lower()
    domain = None
    try:
        if kind_value == "circle":
            length = float(section.get("length", ("1.0", 0))[0])
            domain = Circle(length)
        elif kind_value == "torus2":
            ls = _floats(section.get("lengths", ("1.0, 1.0", 0))[0])
            domain = Torus2(*ls)
        elif kind_value == "interval":
            a, b = _floats(section.get("bounds", ("0.0, 1.0", 0))[0])
            domain = Interval(a, b)
        elif kind_value == "rectangle":
            ax, bx, ay, by = _floats(section.get("bounds", ("0.0, 1.0, 0.0, 1.0", 0))[0])
            domain = Rectangle(ax, bx, ay, by)
        else:
            near = difflib.get_close_matches(kind_value, ("circle", "torus2", "interval", "rectangle"), n=1)
            hint = f" (nearest: {near[0]})" if near else ""
            problems.add(kind_line, "kind", f"unknown domain kind {kind_value!r}{hint}")
    except (TypeError, ValueError) as exc:
        problems.add(kind_line, "kind", f"bad domain parameters: {exc}")
    n_value, n_line = section.get("n", (None, 0))
    if n_value is None:
        problems.add(0, "n", "missing [domain] n")
        return domain, ()
    try:
        counts = tuple(int(v) for v in _floats(n_value))
    except ValueError as exc:
        problems.add(n_line, "n", str(exc))
        return domain, ()
    if domain is not None and len(counts) == 1 and domain.dim == 2:
        counts = (counts[0], counts[0])
    return domain, counts


def _parse_drift(section, lengths, problems) -> SystemSpec:
    if "catalog" in section:
        return SystemSpec(catalog=section["catalog"][0].strip())
    forms = []
    for key in ("bx", "by"):
        if key in section:
            value, line = section[key]
            try:
                forms.append(parse_expression(value, lengths))
            except ValueError as exc:
                problems.add(line, key, str(exc))
    if "u0" not in section:
        if forms:
            problems.add(0, "u0", "inline drift needs an explicit invariant density u0")
        return SystemSpec(catalog="zero-drift")
    value, line = section["u0"]
    try:
        u0 = parse_expression(value, lengths)
    except ValueError as exc:
        problems.add(line, "u0", str(exc))
        return SystemSpec(catalog="zero-drift")
    while len(forms) < len(lengths):
        forms.append(Const(0.0))
    return SystemSpec(drift_forms=tuple(forms), u0_form=u0)


def _parse_vector(value, lengths, line, key, problems):
    parts = _split_top(value)
    if len(parts) == 1 and len(lengths) > 1:
        problems.add(line, key, f"need {len(lengths)} components separated by ';'")
        return None
    if len(parts) != len(lengths):
        problems.add(line, key, f"need {len(lengths)} components, got {len(parts)}")
        return None
    try:
        return tuple(parse_expression(p, lengths) for p in parts)
    except ValueError as exc:
        problems.add(line, key, str(exc))
        return None


def _parse_noise(section, lengths, problems) -> tuple[NoiseSpec, tuple[float, ...]]:
    kind = section.get("kind", ("coordinate", 0))[0].strip().lower()
    eps_value, eps_line = section.get("eps", (None, 0))
    epsilons: tuple[float, ...] = ()
    if eps_value is None:
        problems.add(0, "eps", "missing [noise] eps list")
    else:
        try:
            eps = _floats(eps_value)
            if any(not (0.0 < e < 1.0) for e in eps):
                problems.add(eps_line, "eps", "all epsilons must lie in (0, 1)")
            elif any(a <= b for a, b in zip(eps, eps[1:])):
                problems.add(eps_line, "eps", "epsilons must be descending")
            else:
                epsilons = tuple(eps)
        except ValueError as exc:
            problems.add(eps_line, "eps", str(exc))
    if kind == "coordinate":
        return NoiseSpec(), epsilons
    if kind == "selection":
        return NoiseSpec(kind="selection"), epsilons
    if kind != "explicit":
        problems.add(0, "kind", f"unknown noise kind {kind!r}")
        return NoiseSpec(), epsilons
    a0 = None
    if "a0" in section:
        a0 = _parse_vector(section["a0"][0], lengths, section["a0"][1], "a0", problems)
    ai = []
    for idx in range(1, 9):
        key = f"a{idx}"
        if key in section:
            vec = _parse_vector(section[key][0], lengths, section[key][1], key, problems)
            if vec is not None:
                ai.append(vec)
    if not ai:
        problems.add(0, "a1", "explicit noise needs at least one diffusion field")
    return NoiseSpec(kind="explicit", a0_forms=a0, ai_forms=tuple(ai)), epsilons


def parse_config(text: str) -> SweepConfig:
    """Parse and validate a configuration document into a SweepConfig."""
    problems = _Problems()
    sections = _split_sections(text, problems)
    domain_sec = sections.get("domain", {})
    if not domain_sec:
        problems.add(0, "domain", "missing [domain] section")
    domain, counts = _parse_domain(domain_sec, problems) if domain_sec else (None, ())
    lengths = domain.lengths if domain is not None else (1.0,)

    system = _parse_drift(sections.get("drift", {}), lengths, problems)
    noise, epsilons = _parse_noise(sections.get("noise", {}), lengths, problems)

    exp = sections.get("experiment", {})
    kind = exp.get("kind", ("stability", 0))[0].strip().lower()
    if kind not in EXPERIMENT_KINDS:
        near = difflib.get_close_matches(kind, EXPERIMENT_KINDS, n=1)
        hint = f" (nearest: {near[0]})" if near else ""
        problems.add(exp.get("kind", ("", 0))[1], "kind", f"unknown experiment kind {kind!r}{hint}")
        kind = "stability"
    target = None
    if "target" in exp:
        value, line = exp["target"]
        try:
            target = parse_expression(value, lengths)
        except ValueError as exc:
            problems.add(line, "target", str(exc))
    thresholds = {}
    for key in _THRESHOLD_KEYS:
        if key in exp:
            value, line = exp[key]
            try:
                thresholds[key] = float(value)
            except ValueError as exc:
                problems.add(line, key, str(exc))
    extras = {}
    for key in ("dt_factor", "horizon_factor", "rate_guess"):
        if key in exp:
            value, line = exp[key]
            try:
                extras[key] = float(value)
            except ValueError as exc:
                problems.add(line, key, str(exc))
    if "refine_factor" in exp:
        value, line = exp["refine_factor"]
        try:
            extras["refine_factor"] = int(value)
        except ValueError as exc:
            problems.add(line, "refine_factor", str(exc))
    if "scheme" in exp:
        value, line = exp["scheme"]
        scheme = value.strip().lower()
        if scheme not in ("implicit-euler", "crank-nicolson"):
            problems.add(line, "scheme", f"unknown scheme {scheme!r}")
        else:
            extras["scheme"] = scheme
    if "workers" in exp:
        value, line = exp["workers"]
        try:
            workers = int(value)
            if workers < 1:
                raise ValueError(f"must be at least 1, got {workers}")
            extras["workers"] = workers
        except ValueError as exc:
            problems.add(line, "workers", str(exc))
    noise_sec = sections.get("noise", {})
    if "p" in noise_sec:
        value, line = noise_sec["p"]
        try:
            extras["admissibility_p"] = float(value)
        except ValueError as exc:
            problems.add(line, "p", str(exc))
    if "assert_l1_limit" in exp:
        value, line = exp["assert_l1_limit"]
        lowered = value.strip().lower()
        if lowered in ("true", "yes", "1"):
            extras["assert_l1_limit"] = True
        elif lowered in ("false", "no", "0"):
            extras["assert_l1_limit"] = False
        else:
            problems.add(line, "assert_l1_limit", f"expected a boolean, got {value!r}")

    problems.raise_if_any()
    if domain is None or not counts or not epsilons:
        raise ConfigError("configuration is incomplete", problems.items)
    try:
        return SweepConfig(
            kind=kind,
            domain=domain,
            n=counts,
            epsilons=epsilons,
            system=system,
            noise=noise,
            target=target,
            out_dir=exp.get("out", (None, 0))[0],
            thresholds=Thresholds(**thresholds),
            **extras,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def serialize_config(cfg: SweepConfig) -> str:
    """Render a SweepConfig back to its file form (inverse of parse_config)."""
    lines = ["[domain]"]
    d = cfg.domain
    if isinstance(d, Circle):
        lines += ["kind = circle", f"length = {d.length:.17g}"]
    elif isinstance(d, Torus2):
        lines += ["kind = torus2", f"lengths = {d.lx:.17g}, {d.ly:.17g}"]
    elif isinstance(d, Interval):
        lines += ["kind = interval", f"bounds = {d.a:.17g}, {d.b:.17g}"]
    else:
        lines += ["kind = rectangle", f"bounds = {d.ax:.17g}, {d.bx:.17g}, {d.ay:.17g}, {d.by:.17g}"]
    lines.append(f"n = {', '.join(str(k) for k in cfg.n)}")

    lines.append("")
    lines.append("[drift]")
    if cfg.system.catalog:
        lines.append(f"catalog = {cfg.system.catalog}")
    else:
        for key, form in zip(("bx", "by"), cfg.system.drift_forms):
            lines.append(f"{key} = {serialize_expression(form)}")
        lines.append(f"u0 = {serialize_expression(cfg.system.u0_form)}")

    lines.append("")
    lines.append("[noise]")
    lines.append(f"kind = {cfg.noise.kind}")
    if cfg.noise.kind == "explicit":
        if cfg.noise.a0_forms:
            lines.append("a0 = " + "; ".join(serialize_expression(f) for f in cfg.noise.a0_forms))
        for idx, vec in enumerate(cfg.noise.ai_forms or (), start=1):
            lines.append(f"a{idx} = " + "; ".join(serialize_expression(f) for f in vec))
    lines.append("eps = " + ", ".join(f"{e:.17g}" for e in cfg.epsilons))
    if cfg.admissibility_p is not None:
        lines.append(f"p = {cfg.admissibility_p:.17g}")

    lines.append("")
    lines.append("[experiment]")
    lines.append(f"kind = {cfg.kind}")
    if cfg.out_dir:
        lines.append(f"out = {cfg.out_dir}")
    if cfg.target is not None:
        lines.append(f"target = {serialize_expression(cfg.target)}")
    defaults = Thresholds()
    for key in _THRESHOLD_KEYS:
        value = getattr(cfg.thresholds, key)
        if value != getattr(defaults, key):
            lines.append(f"{key} = {value:.17g}")
    base = SweepConfig(kind=cfg.kind, domain=cfg.domain, n=cfg.n, epsilons=cfg.epsilons)
    for key in ("dt_factor", "horizon_factor", "rate_guess", "refine_factor", "workers"):
        if getattr(cfg, key) != getattr(base, key):
            value = getattr(cfg, key)
            lines.append(f"{key} = {value:.17g}" if isinstance(value, float) else f"{key} = {value}")
    if cfg.assert_l1_limit != base.assert_l1_limit:
        lines.append(f"assert_l1_limit = {'true' if cfg.assert_l1_limit else 'false'}")
    if cfg.scheme != base.scheme:
        lines.append(f"scheme = {cfg.scheme}")
    return "\n".join(lines) + "\n"
