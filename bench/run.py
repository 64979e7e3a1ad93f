"""noisyflow benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload, end-to-end table

Each repetition runs in a fresh child process (``child.py``) with
BLAS/OpenMP threads capped at 1, importing noisyflow from ``src`` of the
checkout this file sits in.  Repetitions run one at a time (closed loop)
for about ``--seconds``, each on its own inputs drawn from the seed and
its index; each metric is the median over them.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (process start
until noisyflow is imported and the config parsed), ``run_s`` (the
entry-point call including its artifacts), ``peak_rss_mb`` (the child's
ru_maxrss).  The two times are the child's CPU seconds, which leave out
hypervisor steal, scaled by a calibration kernel that the child runs on
its own core around the call (``calibrate.py``), so that the core's
speed drift cancels; the unscaled CPU and wall times are printed beside
them.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones plus ``trace.overhead_s`` (traced
minus untraced median run_s).  One operation is one epsilon; the counts of
attempted and failed operations give ``op_fail_share``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct``
requires no failed operation and, when tracing, that each traced child's
result digest equals its untraced rerun's (byte-identical artifacts) and
that the counts in ``tracing.SEED_INVARIANT_COUNTS`` repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "bench", ".work")
CHILD = os.path.join(ROOT, "bench", "child.py")

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# unscaled times of each repetition, printed for reference
RAW_TIMES = ("setup_cpu_s", "setup_wall_s", "run_cpu_s", "run_wall_s")
# the CPU every child is pinned to
CPU = max(os.sched_getaffinity(0))
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

# A run must end well inside the 180 s a caller allows it.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def _pin() -> None:
    # one core for the child and its forked calibration kernel: the cores of
    # a shared host drift independently, so the kernel must share the call's
    os.sched_setaffinity(0, {CPU})


def _spawn(args: list, deadline: float, log: str) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    with open(log, "w") as err:
        try:
            proc = subprocess.run(args, env=_child_env(), stdout=subprocess.DEVNULL,
                                  stderr=err, timeout=remaining, check=False,
                                  preexec_fn=_pin)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child exceeded the time budget: {args}") from exc
    if proc.returncode != 0:
        with open(log) as fh:
            raise BenchError(f"child exited with {proc.returncode}:\n{fh.read()}")


def _repetition(workload: str, ini: str, rep_dir: str, trace: bool, deadline: float,
                inject: float) -> dict:
    os.makedirs(rep_dir)
    ini_path = os.path.join(rep_dir, "config.ini")
    with open(ini_path, "w") as fh:
        fh.write(ini)
    spec = {
        "workload": workload,
        "src": SRC,
        "ini_path": ini_path,
        "out_dir": os.path.join(rep_dir, "out"),
        "trace": trace,
        "run_id": os.path.basename(rep_dir),
        "inject": inject,
    }
    spec_path = os.path.join(rep_dir, "job.json")
    result_path = os.path.join(rep_dir, "result.json")
    spec["spawned_at"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    _spawn([sys.executable, CHILD, spec_path, result_path], deadline,
           os.path.join(rep_dir, "stderr.txt"))
    with open(result_path) as fh:
        result = json.load(fh)
    if trace:
        result["layers"] = tracing.layer_metrics(tracing.load(os.path.join(rep_dir, "spans.jsonl")))
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool,
            n: int | None = None, inject: float = 0.0) -> dict:
    """Repeat the workload for about ``seconds``; return the raw repetitions.

    Repetition i runs the inputs ``make_ini(workload, seed, i)``; when
    tracing, an untraced and a traced child run the same inputs back to back.
    """
    if not os.path.isfile(os.path.join(SRC, "noisyflow", "__init__.py")):
        raise BenchError(f"no noisyflow package under {SRC}")
    start = time.monotonic()
    deadline = start + BUDGET_S
    run_dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    plain, traced = [], []
    try:
        # compile bytecode and warm the file cache; users pay neither per run
        _spawn([sys.executable, "-c", "import noisyflow, scipy.sparse.linalg"], deadline,
               os.path.join(run_dir, "warmup.txt"))
        first = time.monotonic()
        while True:
            rep = len(plain)
            ini = workloads.make_ini(workload, seed, rep, n)
            plain.append(_repetition(workload, ini, os.path.join(run_dir, f"r{rep}"), False,
                                     deadline, inject))
            if trace:
                traced.append(_repetition(workload, ini, os.path.join(run_dir, f"t{rep}"), True,
                                          deadline, inject))
            # start another repetition only if it should end within the run length
            now = time.monotonic()
            if now - start + (now - first) / len(plain) > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"workload": workload, "seed": seed, "plain": plain, "traced": traced}


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(raw: dict, trace: bool) -> tuple[dict, list[str]]:
    """Result object and human-readable lines for one measured run."""
    plain, traced = raw["plain"], raw["traced"]
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    if any(p["digest"] != t["digest"] for p, t in zip(plain, traced)):
        problems.append("traced results differ from the untraced rerun of the same inputs")
    lines = [f"workload {raw['workload']} seed {raw['seed']}: "
             f"{len(plain)} untraced, {len(traced)} traced repetitions",
             "env " + json.dumps(plain[0]["env"], sort_keys=True)]
    stats = {}
    for name, unit in END_TO_END.items():
        q1, med, q3 = _quartiles([r[name] for r in plain])
        stats[name] = med
        lines.append(f"  {name:<14} {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(plain)})")
    for name in RAW_TIMES:
        q1, med, q3 = _quartiles([r[name] for r in plain])
        lines.append(f"    {name:<12} {med:.6g} s  (q1 {q1:.6g}, q3 {q3:.6g})")
    q1, med, q3 = _quartiles([t for r in plain for t in r["kernel_s"]])
    lines.append(f"    {'kernel_s':<12} {med:.6g} s  (q1 {q1:.6g}, q3 {q3:.6g}; "
                 f"scale {calibrate.NOMINAL_S} s, cpu {CPU})")
    lines.append(f"  {'op_fail_share':<14} {failed / attempted:.6g}  "
                 f"({failed} failed / {attempted} attempted)")
    if trace:
        layers = [r["layers"] for r in traced]
        for name in tracing.SEED_INVARIANT_COUNTS:
            if len({m[name] for m in layers}) != 1:
                problems.append(f"count {name} differs between repetitions")
        metrics = {name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
        overhead = statistics.median(r["run_s"] for r in traced) - stats["run_s"]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, entry in metrics.items():
            lines.append(f"  {name:<34} {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {name: {"value": stats[name], "unit": unit} for name, unit in END_TO_END.items()}
    lines += [f"  CHECK FAILED: {p}" for p in problems]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            raw = measure(name, args.seed, args.seconds, bool(args.trace))
            results[name], lines = summarize(raw, bool(args.trace))
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
