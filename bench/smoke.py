"""Smoke test of the benchmark itself at tiny sizes (about a minute).

    python3 bench/smoke.py

Checks that every end-to-end and per-layer metric is printed with its
unit, that traced results are byte-identical to untraced ones, that the
work counts repeat exactly across reruns and (all but the LU fill) across
seeds, and that an injected oracle mismatch is counted as failed
operations.  The fill's change between seeds is printed.
"""

import sys

import run
import tracing
import workloads

# decay-torus fails its rate/eps^2 spread verdict below 24^2 (numerical diffusion)
TINY = {"stationary-torus": 16, "decay-torus": 32, "oracle-circle": 1024}

FILL_COUNTS = [k for k in tracing.INVARIANT_COUNTS if k not in tracing.SEED_INVARIANT_COUNTS]


def main() -> int:
    failures = []

    def expect(ok: bool, message: str) -> None:
        print(f"  [{'PASS' if ok else 'FAIL'}] {message}")
        if not ok:
            failures.append(message)

    for name in workloads.WORKLOADS:
        print(name)
        n = TINY[name]
        result, lines = run.summarize(run.measure(name, 1, 0, False, n=n), False)
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               "untraced run is correct with no failed operations")
        expect(set(result["metrics"]) == set(run.END_TO_END), "end-to-end metric names")
        text = "\n".join(lines)
        expect(all(f" {m} " in text for m in (*run.END_TO_END, "op_fail_share")),
               "every end-to-end metric is printed")

        counts = []
        for seed in (1, 1, 2):
            result, lines = run.summarize(run.measure(name, seed, 0, True, n=n), True)
            expect(result["correct"], f"traced run (seed {seed}) is correct and byte-identical")
            counts.append({k: result["metrics"][k]["value"] for k in tracing.INVARIANT_COUNTS})
        expect(set(result["metrics"]) == {*tracing.PER_LAYER, "trace.overhead_s"},
               "per-layer metric names")
        text = "\n".join(lines)
        expect(all(f" {m} " in text for m in result["metrics"]), "every per-layer metric is printed")
        expect(counts[0] == counts[1], "counts repeat across reruns")
        expect(all(counts[0][k] == counts[2][k] for k in tracing.SEED_INVARIANT_COUNTS),
               "counts other than the LU fill repeat across seeds")
        for k in FILL_COUNTS:
            print(f"  {k}: seed 1 {counts[0][k]}, seed 2 {counts[2][k]}")

    print("oracle-circle with an injected 1% oracle mismatch")
    result, _ = run.summarize(run.measure("oracle-circle", 1, 0, False, n=TINY["oracle-circle"],
                                          inject=0.01), False)
    expect(not result["correct"] and result["failed"] == result["attempted"] > 0,
           "every oracle comparison fails, so op_fail_share is 1")
    print("smoke:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
