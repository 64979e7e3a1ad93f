"""One measured repetition of one workload, run in a fresh process.

    python3 bench/child.py JOB.json RESULT.json

JOB.json holds the generated INI path, the artifact directory, the
parent's monotonic clock reading taken just before spawning this process,
and whether to trace.  The child imports noisyflow from the checkout's
``src``, parses the config (set-up ends here), runs the calibration
kernel, runs the workload's entry point once (the timed run), runs the
kernel again, checks the results and writes one JSON result.  With
tracing on, the spans go to ``spans.jsonl`` beside it.

``setup_s`` and ``run_s`` start from CPU times of this process (user +
system, all threads): the CPU seconds from its start until the config is
parsed, and those of the entry-point call.  On a virtual machine CPU
time leaves out the time the hypervisor gives the core to other guests
(steal), which wall time counts.  Each is then scaled by
``calibrate.NOMINAL_S`` over the kernel's CPU time (see ``calibrate``).
The unscaled CPU and wall times are kept beside them.
"""

import contextlib
import json
import os
import resource
import sys
import time


def _environment(src: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caps = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": caps,
        "src": src,
    }


def main(job_path: str, result_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    src = job["src"]
    import noisyflow  # importing the package is part of the measured set-up
    from noisyflow import config

    if not os.path.abspath(noisyflow.__file__).startswith(src + os.sep):
        raise SystemExit(f"noisyflow was imported from {noisyflow.__file__}, not from {src}")
    import calibrate  # binds the real splu before tracing wraps it
    import workloads

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer(job["run_id"])
        tracing.install(tracer)
    with open(job["ini_path"]) as fh:
        ini = fh.read()
    cfg = config.parse_config(ini)
    # CLOCK_MONOTONIC is system-wide, so it compares with the parent's reading
    setup_wall_s = time.clock_gettime(time.CLOCK_MONOTONIC) - job["spawned_at"]
    setup_cpu_s = time.process_time()

    kernel_before_s = calibrate.measure()
    out_dir = job["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    root = tracer.span("experiments", job["workload"]) if tracer else contextlib.nullcontext()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with root:
            outcome = workloads.run_entry(job["workload"], cfg, job["ini_path"], out_dir,
                                          job["inject"])
    except Exception as exc:  # every operation of this call fails
        print(f"entry point raised {type(exc).__name__}: {exc}", file=sys.stderr)
        outcome = exc
    run_wall_s, run_cpu_s = time.perf_counter() - t0, time.process_time() - c0
    kernel_after_s = calibrate.measure()
    # set-up is scaled by the kernel run right after it, the call by the
    # mean of the two runs around it
    setup_s = setup_cpu_s * calibrate.NOMINAL_S / kernel_before_s
    run_s = run_cpu_s * calibrate.NOMINAL_S / (0.5 * (kernel_before_s + kernel_after_s))

    ok, digest = workloads.check(job["workload"], cfg, outcome, out_dir)
    if tracer is not None:
        tracer.dump(os.path.join(os.path.dirname(result_path), "spans.jsonl"))
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "setup_cpu_s": setup_cpu_s,
        "setup_wall_s": setup_wall_s,
        "run_cpu_s": run_cpu_s,
        "run_wall_s": run_wall_s,
        "kernel_s": [kernel_before_s, kernel_after_s],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ok),
        "failed": ok.count(False),
        "digest": digest,
        "env": _environment(src),
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
