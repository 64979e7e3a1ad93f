"""Outside-in tracing: wrap the package's public calls, aggregate per layer.

The tracer lives only in the traced child process.  It replaces the
public functions and methods listed in ``TARGETS`` (in every
``noisyflow`` module namespace that holds them) and
``scipy.sparse.linalg.splu`` with wrappers that record spans in memory.
Nothing under the package is edited.  The spans are written out once,
when the child ends, and the parent turns them into per-layer metrics.

A span is (id, parent, run, layer, name, start, end, attrs).  Self time
is a span's duration minus the durations of its direct children; the run
is single-threaded, so children nest strictly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

_clock = time.perf_counter

# (layer, module, attribute path, attrs-from-(args, result) or None)
TARGETS = [
    ("config", "noisyflow.config", "parse_config", None),
    ("fields", "noisyflow.fields", "VectorField.at_centers", None),
    ("fields", "noisyflow.fields", "VectorField.normal_at_faces", None),
    ("fields", "noisyflow.fields", "VectorField.at_points", None),
    ("operator", "noisyflow.operator", "derive_drift_diffusion", None),
    ("operator", "noisyflow.operator", "assemble_fp_operator",
     lambda args, res: {"nnz": int(res.matrix.nnz)}),
    ("operator", "noisyflow.operator", "FokkerPlanckOperator.is_irreducible", None),
    ("stationary", "noisyflow.stationary", "solve_stationary",
     lambda args, res: {"fallback": int(res.method != "direct")}),
    ("stationary", "noisyflow.stationary", "discrete_w12_seminorm", None),
    ("stationary", "noisyflow.stationary", "oracle_1d_circle", None),
    ("evolution", "noisyflow.evolution", "evolve",
     lambda args, res: {"steps": len(res[0].times) - 1}),
    ("evolution", "noisyflow.evolution", "fit_decay_rate", None),
    ("evolution", "noisyflow.evolution", "poincare_quotient", None),
    ("reporting", "noisyflow.reporting", "write_csv", None),
    ("reporting", "noisyflow.reporting", "atomic_write_text",
     lambda args, res: {"bytes": len(args[1].encode())}),
]

# Bytes one triangular solve reads per stored factor entry: an 8-byte value
# and a 4-byte index.  A computed figure, not a measured bandwidth.
BYTES_PER_FACTOR_ENTRY = 12


class Tracer:
    def __init__(self, run: str):
        self.run = run
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        attrs = {}
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [sid, parent, self.run, layer, name, 0.0, 0.0, attrs]
        self.spans.append(record)
        self._stack.append(sid)
        record[5] = _clock()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            record[6] = _clock()
            self._stack.pop()

    def wrap(self, layer: str, name: str, fn, attrs_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer, name) as attrs:
                result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs.update(attrs_of(args, result))
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class _TracedLU:
    """SuperLU proxy whose ``solve`` is timed; everything else forwards."""

    def __init__(self, lu, tracer: Tracer, fill: int):
        self._lu = lu
        self._tracer = tracer
        self._fill = fill

    def solve(self, *args, **kwargs):
        with self._tracer.span("lu", "trisolve") as attrs:
            attrs["fill"] = self._fill
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer) -> None:
    """Wrap every target in all loaded ``noisyflow`` namespaces, plus splu."""
    import scipy.sparse.linalg as spla

    modules = [m for name, m in sys.modules.items()
               if name == "noisyflow" or name.startswith("noisyflow.")]
    for layer, module, path, attrs_of in TARGETS:
        owner = sys.modules[module]
        *cls_path, attr = path.split(".")
        if cls_path:
            cls = getattr(owner, cls_path[0])
            setattr(cls, attr, tracer.wrap(layer, path, getattr(cls, attr), attrs_of))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(layer, path, original, attrs_of)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    splu = spla.splu

    def traced_splu(*args, **kwargs):
        with tracer.span("lu", "splu") as attrs:
            lu = splu(*args, **kwargs)
        # reading the factors builds L and U; keep that cost out of every layer
        with tracer.span("trace", "fill"):
            fill = int(lu.L.nnz + lu.U.nnz)
        attrs["fill"] = fill
        return _TracedLU(lu, tracer, fill)

    spla.splu = traced_splu


# ---------------------------------------------------------------------------
# aggregation (parent side)
# ---------------------------------------------------------------------------

PER_LAYER = {
    "config.parse_s": "s",
    "fields.sample_s": "s",
    "fields.sample_calls": "count",
    "operator.derive_s": "s",
    "operator.assemble_s": "s",
    "operator.irreducible_s": "s",
    "operator.matrix_nnz": "count",
    "stationary.solve_s": "s",
    "stationary.solves": "count",
    "stationary.fallbacks": "count",
    "stationary.factorize_s": "s",
    "stationary.factorize_calls": "count",
    "stationary.fill_nnz": "count",
    "stationary.trisolve_s": "s",
    "stationary.oracle_s": "s",
    "evolution.step_s": "s",
    "evolution.traces": "count",
    "evolution.trace_retries": "count",
    "evolution.steps": "count",
    "evolution.factorize_s": "s",
    "evolution.factorize_calls": "count",
    "evolution.fill_nnz": "count",
    "evolution.trisolve_s": "s",
    "evolution.trisolve_calls": "count",
    "evolution.solves_per_step": "solves/step",
    "evolution.trisolve_gbps_computed": "GB/s",
    "evolution.fit_s": "s",
    "evolution.poincare_s": "s",
    "reporting.write_s": "s",
    "reporting.files": "count",
    "reporting.bytes": "B",
    "experiments.self_s": "s",
}

# Counts that must repeat exactly across reruns of one seed.
INVARIANT_COUNTS = [name for name, unit in PER_LAYER.items() if unit == "count"]
# The LU fill depends on the drift's values (pivot row choice, threshold
# pivoting), so only the other counts must also repeat across seeds.
SEED_INVARIANT_COUNTS = [name for name in INVARIANT_COUNTS if not name.endswith(".fill_nnz")]


def load(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced child from its spans."""
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[6] - s[5])

    def self_time(s):
        return (s[6] - s[5]) - child_time.get(s[0], 0.0)

    def owner(s):
        """The nearest enclosing stationary or evolution span's layer."""
        parent = s[1]
        while parent >= 0:
            p = by_id[parent]
            if p[3] in ("stationary", "evolution"):
                return p[3]
            parent = p[1]
        return None

    m = {name: 0 for name in PER_LAYER}
    for s in spans:
        layer, name, attrs = s[3], s[4], s[7]
        t = self_time(s)
        if layer == "config":
            m["config.parse_s"] += t
        elif layer == "fields":
            m["fields.sample_s"] += t
            m["fields.sample_calls"] += 1
        elif layer == "operator":
            key = {"derive_drift_diffusion": "derive_s",
                   "assemble_fp_operator": "assemble_s"}.get(name, "irreducible_s")
            m[f"operator.{key}"] += t
            m["operator.matrix_nnz"] += attrs.get("nnz", 0)
        elif layer == "stationary":
            if name == "oracle_1d_circle":
                m["stationary.oracle_s"] += t
            else:
                m["stationary.solve_s"] += t
            if name == "solve_stationary":
                m["stationary.solves"] += 1
                m["stationary.fallbacks"] += attrs.get("fallback", 0)
        elif layer == "evolution":
            if name == "evolve":
                m["evolution.step_s"] += t
                m["evolution.traces"] += 1
                m["evolution.steps"] += attrs.get("steps", 0)
            elif name == "fit_decay_rate":
                m["evolution.fit_s"] += t
                # a failed fit is what triggers a halved-horizon re-integration
                m["evolution.trace_retries"] += int("error" in attrs)
            else:
                m["evolution.poincare_s"] += t
        elif layer == "reporting":
            m["reporting.write_s"] += t
            if name == "atomic_write_text":
                m["reporting.files"] += 1
                m["reporting.bytes"] += attrs.get("bytes", 0)
        elif layer == "lu":
            where = owner(s)
            if where is None:
                continue
            if name == "splu":
                m[f"{where}.factorize_s"] += t
                m[f"{where}.factorize_calls"] += 1
                m[f"{where}.fill_nnz"] += attrs["fill"]
            else:
                m[f"{where}.trisolve_s"] += t
                if where == "evolution":
                    m["evolution.trisolve_calls"] += 1
                    m["evolution.trisolve_gbps_computed"] += BYTES_PER_FACTOR_ENTRY * attrs["fill"]
        elif layer == "experiments":
            m["experiments.self_s"] += t
    moved = m["evolution.trisolve_gbps_computed"]
    m["evolution.trisolve_gbps_computed"] = (
        moved / m["evolution.trisolve_s"] / 1e9 if m["evolution.trisolve_s"] > 0 else 0.0)
    steps = m["evolution.steps"]
    m["evolution.solves_per_step"] = m["evolution.trisolve_calls"] / steps if steps else 0.0
    return m
