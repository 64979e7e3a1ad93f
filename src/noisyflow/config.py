"""Experiment configuration files.

The format is a strict INI dialect with four sections: [domain],
[drift], [noise], [experiment].  The tables below (``DOMAINS``,
``DRIFT_AXES``, ``NOISE_FIELDS`` and ``SETTINGS``) are the one list of
keys: ``SECTION_KEYS``, ``parse_config`` and ``serialize_config`` all
iterate them.  The verdict tolerances are not keys: they are the fixed
record ``SweepConfig.thresholds``, so no file can loosen a gate.

This module reads syntax: numbers, booleans, expressions, and unknown
(naming the nearest valid key), duplicate and unread keys.  The field
rules live in ``experiments.config_problems``, which ``SweepConfig``
checks too; the reader only attaches each of its problems to the line
of its key (line 0 for a missing key), so a file and a SweepConfig
refuse the same things.  Silently ignored configuration is the classic
failure mode of experiment harnesses, so every problem is an error, and
all of them are reported at once.

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
from dataclasses import fields

from .errors import ConfigError, DomainError
from .fields import Affine, Const, Power, Product, ScalarForm, Sum, Trig
from .geometry import Circle, Interval, Rectangle, Torus2
from .experiments import NoiseSpec, SweepConfig, SystemSpec, check_name, config_problems


def _name(text: str) -> str:
    return text.strip().lower()


def _list(text: str) -> list[str]:
    return [part for part in re.split(r"[,\s]+", text.strip()) if part]


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in _list(text))


def _boolean(text: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def read_counts(text: str, dim: int) -> tuple[int, ...]:
    """Cells per axis: integers, one integer standing for all ``dim`` axes."""
    counts = tuple(int(part) for part in _list(text))
    return counts * dim if len(counts) == 1 else counts


#: [domain] kind -> (domain class, the one key that lists its fields in order)
DOMAINS = {
    "circle": (Circle, "length"),
    "torus2": (Torus2, "lengths"),
    "interval": (Interval, "bounds"),
    "rectangle": (Rectangle, "bounds"),
}
#: inline drift: one expression per axis
DRIFT_AXES = ("bx", "by")
#: explicit noise: a0 is the drift correction, a1..a8 the diffusion fields
NOISE_FIELDS = tuple(f"a{i}" for i in range(9))
#: [experiment] key -> reader, for the keys that set a SweepConfig field
SETTINGS = {
    "dt_factor": float,
    "horizon_factor": float,
    "workers": int,
    "assert_l1_limit": _boolean,
    "scheme": _name,
}

SECTION_KEYS = {
    "domain": {"kind", "n", *(key for _, key in DOMAINS.values())},
    "drift": {"catalog", "u0", *DRIFT_AXES},
    "noise": {"kind", "eps", *NOISE_FIELDS},
    "experiment": {"kind", "out", "target", *SETTINGS},
}
#: field named by ``experiments.config_problems`` -> its section and the keys
#: that state it (a problem goes to each one the file holds); default: [experiment]
FIELD_KEYS = {
    "n": ("domain", ("n",)),
    "epsilons": ("noise", ("eps",)),
    "noise.kind": ("noise", ("kind",)),
    "noise.a0_forms": ("noise", ("a0",)),
    "noise.ai_forms": ("noise", NOISE_FIELDS[1:]),
    "system.catalog": ("drift", ("catalog",)),
    "system.drift_forms": ("drift", DRIFT_AXES),
    "system.u0_form": ("drift", ("u0",)),
    "out_dir": ("experiment", ("out",)),
}


def _split_sections(text: str, problems: list):
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
                problems.append((lineno, name, f"unknown section{hint}"))
                current = None
            else:
                current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            problems.append((lineno, line, "expected 'key = value'"))
            continue
        if current is None:
            problems.append((lineno, line.split("=", 1)[0].strip(), "key outside a valid section"))
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        section_name = next(name for name, sec in sections.items() if sec is current)
        if key not in SECTION_KEYS[section_name]:
            near = difflib.get_close_matches(key, SECTION_KEYS[section_name], n=1)
            hint = f" (nearest valid key: {near[0]})" if near else ""
            problems.append((lineno, key, f"unknown key in [{section_name}]{hint}"))
            continue
        if key in current:
            problems.append((lineno, key, "duplicate key"))
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
    kind = check_name("expression kind", kind.strip().lower(), ("const", "cos", "sin", "affine"))
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
    axis = params.pop("axis", 0.0)
    if not (axis.is_integer() and 0 <= axis < len(lengths)):
        raise ValueError(f"axis {axis:g} is not an axis of a {len(lengths)}-dimensional domain")
    axis = int(axis)
    if kind == "affine":
        form = Affine(axis, params.pop("slope", 1.0), params.pop("intercept", 0.0))
    else:
        freq = params.pop("freq", 1.0)
        if not freq.is_integer():
            raise ValueError(f"freq must be an integer number of cycles, got {freq}")
        form = Trig(kind, axis, int(freq), params.pop("amp", 1.0), params.pop("offset", 0.0),
                    lengths[axis], params.pop("phase", 0.0))
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


def serialize_expression(form: ScalarForm, lengths: tuple[float, ...]) -> str:
    """The registry text of ``form`` on a domain with axis ``lengths``; inverse of parse_expression.

    A trigonometric form is written without its period, which the reader
    takes from the axis length; one of another period is not expressible.
    """
    if isinstance(form, Const):
        return f"const:{form.value:.17g}"
    if isinstance(form, Trig) and form.period == lengths[form.axis]:
        out = f"{form.fn}:axis={form.axis},freq={form.freq},amp={form.amplitude:.17g},offset={form.offset:.17g}"
        if form.phase != 0.0:
            out += f",phase={form.phase:.17g}"
        return out
    if isinstance(form, Affine):
        return f"affine:axis={form.axis},slope={form.slope:.17g},intercept={form.intercept:.17g}"
    if isinstance(form, (Sum, Product)):
        left, right = (serialize_expression(part, lengths) for part in (form.left, form.right))
        return f"{'sum' if isinstance(form, Sum) else 'product'}({left}; {right})"
    if isinstance(form, Power) and form.exponent == -0.5:
        return f"rsqrt({serialize_expression(form.base, lengths)})"
    raise ValueError(f"form {form!r} is not expressible in the configuration registry")


def _vector(text: str, lengths: tuple[float, ...]) -> tuple[ScalarForm, ...]:
    parts = _split_top(text)
    if len(parts) != len(lengths):
        raise ValueError(f"need {len(lengths)} components separated by ';', got {len(parts)}")
    return tuple(parse_expression(p, lengths) for p in parts)


# ---------------------------------------------------------------------------
# sections -> SweepConfig
# ---------------------------------------------------------------------------


def _read(section, key, reader, problems, default=None):
    """``reader`` applied to the key's value, None if it fails, ``default`` if absent."""
    if key not in section:
        return default
    value, line = section[key]
    try:
        return reader(value)
    except (ValueError, DomainError) as exc:
        problems.append((line, key, str(exc)))
        return None


def _read_table(section, table, problems) -> dict:
    """The keys of ``table`` present in ``section``, each through its reader."""
    return {key: _read(section, key, reader, problems) for key, reader in table.items() if key in section}


def _unread(section, read, reason, problems):
    """Record every key of ``section`` outside ``read`` as not read."""
    for key, (_, line) in section.items():
        if key not in read:
            problems.append((line, key, f"not read {reason}"))


def _domain(cls, text: str):
    values = _floats(text)
    if len(values) != len(fields(cls)):
        raise ValueError(f"expected {len(fields(cls))} numbers, got {len(values)}")
    return cls(*values)


def _parse_domain(section, problems):
    if "kind" not in section:
        problems.append((0, "kind", "missing [domain] kind"))
        return None, None
    name = _read(section, "kind", lambda text: check_name("domain kind", _name(text), DOMAINS), problems)
    if name is None:
        return None, None
    cls, key = DOMAINS[name]
    _unread(section, {"kind", "n", key}, f"by [domain] kind = {name} (it reads {key})", problems)
    domain = _read(section, key, lambda text: _domain(cls, text), problems, cls())
    if "n" not in section:
        problems.append((0, "n", "missing [domain] n"))
    dim = cls.dim
    return domain, _read(section, "n", lambda text: read_counts(text, dim), problems)


def _parse_drift(section, lengths, problems) -> SystemSpec | None:
    if "catalog" in section:
        _unread(section, {"catalog"}, "beside catalog", problems)
        return SystemSpec(catalog=section["catalog"][0].strip())
    if lengths is None:  # an inline drift is read against the domain's axes
        return SystemSpec(catalog="zero-drift")
    axes = DRIFT_AXES[:len(lengths)]
    _unread(section, {"u0", *axes}, f"on a {len(lengths)}D domain", problems)

    def expression(text):
        return parse_expression(text, lengths)

    if not any(key in section for key in ("u0", *axes)):
        return SystemSpec(catalog="zero-drift")
    forms = tuple(_read(section, key, expression, problems, Const(0.0)) for key in axes)
    u0 = _read(section, "u0", expression, problems)
    if "u0" in section and u0 is None:
        return None  # u0 could not be read: its problem is recorded
    return SystemSpec(drift_forms=forms, u0_form=u0)


def _parse_noise(section, lengths, problems) -> tuple[NoiseSpec, tuple[float, ...]]:
    if "eps" not in section:
        problems.append((0, "eps", "missing [noise] eps list"))
    epsilons = _read(section, "eps", _floats, problems)
    kind = _read(section, "kind", _name, problems, "coordinate")

    def vector(text):
        return _vector(text, lengths) if lengths else None

    vectors = _read_table(section, dict.fromkeys(NOISE_FIELDS, vector), problems)
    a0 = vectors.pop("a0", None)
    # explicit noise reads the diffusion fields, so only there are they numbered
    for expected, key in zip(NOISE_FIELDS[1:], vectors if kind == "explicit" else ()):
        if key != expected:
            problems.append((section[key][1], key, f"{expected} is missing: diffusion fields are a1..ak "
                                                   "without gaps"))
            break
    return NoiseSpec(kind=kind, a0_forms=a0, ai_forms=tuple(vectors.values()) or None), epsilons


def _locate(sections, field) -> list[tuple[int, str]]:
    """(line, key) of each key that states ``field``; line 0 and its first key when the file holds none."""
    name, keys = FIELD_KEYS.get(field, ("experiment", (field,)))
    section = sections.get(name, {})
    return [(section[key][1], key) for key in keys if key in section] or [(0, keys[0])]


def parse_config(text: str) -> SweepConfig:
    """Parse and validate a configuration document into a SweepConfig."""
    problems = []
    sections = _split_sections(text, problems)
    domain_sec = sections.get("domain", {})
    if not domain_sec:
        problems.append((0, "domain", "missing [domain] section"))
    domain, counts = _parse_domain(domain_sec, problems) if domain_sec else (None, None)
    # unknown without a domain: then the keys read against its axes are not checked
    lengths = domain.lengths if domain is not None else None

    system = _parse_drift(sections.get("drift", {}), lengths, problems)
    noise, epsilons = _parse_noise(sections.get("noise", {}), lengths, problems)
    exp = sections.get("experiment", {})

    def target(value):
        return parse_expression(value, lengths) if lengths else None

    values = dict(kind=_read(exp, "kind", _name, problems, "stability"), domain=domain, n=counts,
                  epsilons=epsilons, system=system, noise=noise, out_dir=_read(exp, "out", str, problems),
                  **_read_table(exp, {"target": target, **SETTINGS}, problems))
    problems += [(line, key, message) for field, message in config_problems(values)
                 for line, key in _locate(sections, field)]
    problems.sort(key=lambda problem: problem[0])  # in file order, missing keys first
    if problems:
        details = "; ".join(f"line {ln}, {key}: {msg}" for ln, key, msg in problems)
        raise ConfigError(f"invalid configuration: {details}", problems)
    return SweepConfig(**values)


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def serialize_config(cfg: SweepConfig) -> str:
    """Render a SweepConfig back to its file form (inverse of parse_config)."""
    name = next(kind for kind, (cls, _) in DOMAINS.items() if type(cfg.domain) is cls)

    def expression(form):
        return serialize_expression(form, cfg.domain.lengths)

    cls, key = DOMAINS[name]
    values = ", ".join(_format(getattr(cfg.domain, f.name)) for f in fields(cls))
    lines = ["[domain]", f"kind = {name}", f"{key} = {values}", f"n = {', '.join(map(str, cfg.n))}",
             "", "[drift]"]
    if cfg.system.catalog:
        lines.append(f"catalog = {cfg.system.catalog}")
    else:
        lines += [f"{k} = {expression(f)}" for k, f in zip(DRIFT_AXES, cfg.system.drift_forms)]
        lines.append(f"u0 = {expression(cfg.system.u0_form)}")

    lines += ["", "[noise]", f"kind = {cfg.noise.kind}"]
    if cfg.noise.kind == "explicit":
        for k, vector in zip(NOISE_FIELDS, (cfg.noise.a0_forms, *(cfg.noise.ai_forms or ()))):
            if vector:
                lines.append(f"{k} = " + "; ".join(map(expression, vector)))
    lines.append("eps = " + ", ".join(map(_format, cfg.epsilons)))

    lines += ["", "[experiment]", f"kind = {cfg.kind}"]
    if cfg.out_dir:
        lines.append(f"out = {cfg.out_dir}")
    if cfg.target is not None:
        lines.append(f"target = {expression(cfg.target)}")
    defaults = {f.name: f.default for f in fields(cfg)}
    lines += [f"{key} = {_format(getattr(cfg, key))}" for key in SETTINGS if getattr(cfg, key) != defaults[key]]
    return "\n".join(lines) + "\n"
