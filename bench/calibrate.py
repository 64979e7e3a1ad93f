"""Fixed calibration kernel: the speed of the child's core at the moment.

On a shared host the speed of one core drifts: on a 2-vCPU Xeon VM a
fixed pure-Python loop took 37 ms for a minute and 25-31 ms the next,
in CPU time, as other tenants came and went, and the two vCPUs drifted
independently of each other.  No median over one run removes a drift
that outlasts it.  So each child is pinned to one CPU and runs this
kernel right before and right after its timed entry-point call, and the
call's CPU time is scaled by ``NOMINAL_S`` over the kernel's, which
cancels the drift the two share.  The kernel mixes the three kinds of
work the workloads do, in about equal parts: SuperLU factorizations,
triangular solves driven from a Python loop, and a pure-Python
recurrence.  It uses only numpy and scipy, never noisyflow, so a change
to the program cannot move it.  It runs in a forked copy of the child,
which inherits the pinning, so it adds nothing to the child's peak
memory or heap.

    python3 bench/calibrate.py      # print a few kernel times
"""

from __future__ import annotations

import os
import struct
import time

from scipy.sparse.linalg import splu

# Times are reported in CPU seconds of a core on which one kernel call
# takes this long (about its median on the VM above).  A fixed scale, not
# a measurement.
NOMINAL_S = 0.12

# a small grid, factorized several times, keeps the kernel's memory small
_GRID = 44
_FACTORIZATIONS = 5
_SOLVES = 150
_RECURRENCE = 280_000


def _system():
    import numpy as np
    import scipy.sparse as sp

    n = _GRID
    eye = sp.identity(n, format="csr")
    shift = sp.diags([np.ones(n - 1), np.ones(1)], [1, -(n - 1)], format="csr")
    lap1 = 2.0 * eye - shift - shift.T
    drift1 = 0.3 * (shift - shift.T)
    matrix = (sp.kron(lap1, eye) + sp.kron(eye, lap1) + sp.kron(drift1, eye)
              + 0.01 * sp.identity(n * n)).tocsc()
    rhs = np.cos(np.arange(n * n) * 0.01)
    return matrix, rhs


class Kernel:
    """Builds the fixed inputs once; ``__call__`` times one kernel run."""

    def __init__(self):
        self.matrix, self.rhs = _system()

    def __call__(self) -> float:
        c0 = time.process_time()
        for _ in range(_FACTORIZATIONS):
            lu = splu(self.matrix, permc_spec="COLAMD")
        x = self.rhs
        for _ in range(_SOLVES):
            x = lu.solve(x)
            x = x / abs(x).max() + 0.5 * self.rhs
        acc = 0.0
        for i in range(_RECURRENCE):
            acc = 0.5 * acc + (i % 7) * 1e-3
        if not (acc > 0.0 and float(x[0]) == float(x[0])):
            raise RuntimeError("calibration kernel produced a bad result")
        return time.process_time() - c0


def measure() -> float:
    """CPU seconds of one kernel call in a forked copy of this process.

    The copy builds the inputs and calls the kernel once to pay one-time
    costs before the timed call; the parent waits for it to end.  The
    caller forks while single-threaded: BLAS is capped at one thread and
    the entry point's executor has shut down.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            kernel = Kernel()
            kernel()
            os.write(write_fd, struct.pack("d", kernel()))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or len(data) != 8:
        raise RuntimeError(f"calibration kernel failed (wait status {status})")
    return struct.unpack("d", data)[0]


if __name__ == "__main__":
    print(" ".join(f"{measure():.4f}" for _ in range(10)))
