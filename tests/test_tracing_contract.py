"""The benchmark's tracer (``bench/tracing.py``) still fits the package.

The tracer wraps the package's calls by name and reads attributes off
their results.  A renamed or deleted name would only show in a traced
benchmark run; these tests load the tracer as it is, without installing
it, and check every name it uses.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from noisyflow.fields import builtin_catalog, coordinate_noise
from noisyflow.geometry import Circle, Interval, build_grid
from noisyflow.operator import derive_drift_diffusion

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("noisyflow_bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


def resolve(module, path):
    """The object ``module.path`` names, as the tracer's ``install`` looks it up."""
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, path", [(module, path) for _, module, path, _ in TARGETS],
                         ids=[path for _, _, path, _ in TARGETS])
def test_every_tracer_target_resolves_in_the_package(module, path):
    assert module == "noisyflow" or module.startswith("noisyflow.")
    assert path.count(".") <= 1  # install wraps a module function or a method of a module class
    assert callable(resolve(module, path))


def real_calls(tmp_path, kind):
    """path -> (args, kwargs) of one real call of each target whose result the tracer reads."""
    grid = build_grid(kind, 16)
    system = builtin_catalog("circle-positive" if isinstance(kind, Circle) else "zero-drift", grid)
    data = derive_drift_diffusion(system, coordinate_noise(grid), 0.5)
    op = resolve("noisyflow.operator", "assemble_fp_operator")(data)
    stationary = resolve("noisyflow.stationary", "solve_stationary")(op).density
    initial = resolve("noisyflow.evolution", "perturbed_initial")(stationary)
    return {
        "assemble_fp_operator": ((data,), {}),
        "solve_stationary": ((op,), {}),
        "evolve": ((op, [initial], 0.05, 0.01), {"stationary": stationary}),
        "atomic_write_text": ((str(tmp_path / "summary.txt"), "overall: PASS\n"), {}),
    }


def test_the_tracer_reads_attributes_the_results_still_have(tmp_path):
    # .matrix of the operator, StationaryReport.method, EvolutionTrace.times and the written text,
    # on 1D operators assembled as their bands, whose nnz the reader forms the CSR to count
    readers = {path: (module, attrs_of) for _, module, path, attrs_of in TARGETS if attrs_of is not None}
    for kind, nnz in ((Circle(), 48), (Interval(), 46)):
        calls = real_calls(tmp_path, kind)
        assert readers.keys() == calls.keys()
        assert "matrix" not in vars(calls["solve_stationary"][0][0])  # the solve's reader sees a band-only operator
        results = {}
        for path, (module, attrs_of) in readers.items():
            args, kwargs = calls[path]
            attrs = attrs_of(args, resolve(module, path)(*args, **kwargs))
            assert attrs and all(isinstance(value, int) for value in attrs.values())
            results[path] = attrs
        assert results["assemble_fp_operator"]["nnz"] == nnz
        assert results["solve_stationary"]["fallback"] == 0
