"""How fast the host runs right now, timed by a ruler process that runs no qcsa code.

On a shared 2-vCPU VM the same Python code runs up to 1.8 times slower for
stretches of a second to minutes, with no steal time shown to the guest: a
100-trial ``simulate`` at N = 64 took 110 ms in one minute and 220 ms in
the next, with the same CPU time, page faults and context switches.  Raw
wall times of the sim workloads then spread 0.10-0.42 (quartile distance
over median) across five to ten 40-second runs, and build-256's 0.29-0.40
when a fast spell began halfway through ten runs.  The benchmark therefore
also gives each invocation in reference seconds: its time multiplied by a
kernel's ``REFERENCE_S`` over the kernel's mean time in the sample taken
just before it and the one taken just after it.

The two kinds of work slow down by different amounts in the same spell
(in one, the N = 256 builds ran 1.45 times faster while interpreted code
ran 1.85 times faster), so there are two kernels.  ``interpreter`` is
interpreted integer arithmetic, JSON and many small numpy calls, like the
trial engine and the CLI; ``arrays`` is two in-place elimination steps on
a 1 MiB int64 array, like the N = 256 inverse, rank and products.  Each
workload uses the kernel of the layers predicted to dominate it
(``PREDICTIONS`` in run.py).  The kernel runs in a child process of its own (``Ruler``), pinned to
the same CPU as the benchmark.  It shares no heap, allocator, garbage
collector or imports with the program, so a change to the program can
reach it only through the CPU's caches; a sample is the median of nine
back-to-back calls, which leaves out the cold first one.

    python3 perfbench/hostspeed.py interpreter   # the child: a time per input line
"""

import bisect
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

MIN_INTERVAL_S = 0.1
# Each kernel's time in a slow spell of a 2-vCPU Xeon VM.  They fix the unit
# ref_s, and must not change once baselines exist.
REFERENCE_S = {"interpreter": 0.00024, "arrays": 0.0018}
P = 65521


def interpreter() -> int:
    acc = 0
    for i in range(300):
        acc = (acc * 31 + i) % 2147483647
    json.loads(json.dumps(list(range(150))))
    col = np.arange(32, dtype=np.int64).reshape(32, 1)
    out = np.zeros((64, 1), dtype=np.int64)
    for k in range(0, 32, 2):
        out += _ARRAYS["tall"][:, k:k + 2] @ col[k:k + 2]
        out %= 65521
    return acc + int(out[0, 0])


def arrays() -> int:
    wide, outer = _ARRAYS["wide"], _ARRAYS["outer"]
    for k in range(2):
        np.multiply.outer(wide[1:, k], wide[k], out=outer[1:])
        np.subtract(wide[1:], outer[1:], out=wide[1:])
        np.remainder(wide[1:], P, out=wide[1:])
    return int(wide[-1, -1])


KERNELS = {"interpreter": interpreter, "arrays": arrays}
# The kernels' operands, made in the child only, so that the benchmark's own
# process, whose peak memory is a metric, never holds them.
_ARRAYS = {}


class Ruler:
    """A child process that times one kernel on request, and the samples it gave.

    Each sample is the kernel's median over nine back-to-back calls, with
    the time it finished.
    """

    def __init__(self, kernel: str):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})  # the child inherits the same single CPU
        self.proc = subprocess.Popen([sys.executable, __file__, kernel], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.kernel = kernel
        self.reference_s = REFERENCE_S[kernel]
        self.cpu = cpu
        self.times = []
        self.samples = []

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)

    def sample(self, force: bool = False) -> None:
        """Time the kernel in the child, unless the last sample is recent."""
        if not force and self.times and time.perf_counter() - self.times[-1] < MIN_INTERVAL_S:
            return
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(float(self.proc.stdout.readline()))
        self.times.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the kernel's time around an operation that ran from start to end."""
        before = self.samples[bisect.bisect_right(self.times, start) - 1]
        after = self.samples[bisect.bisect_left(self.times, end)]
        return self.reference_s / ((before + after) / 2)

    def summary(self, start: float, end: float) -> dict:
        """The samples taken from start to end: their count and quartiles."""
        lo, hi = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        window = sorted(self.samples[lo:hi])
        q = statistics.quantiles(window, n=4) if len(window) >= 2 else window * 3
        return {"kernel": self.kernel, "n": len(window), "p25_s": q[0], "p50_s": q[1],
                "p75_s": q[2], "factor_at_p50": self.reference_s / q[1]}


def serve(kernel) -> None:
    """Answer each line on stdin with the kernel's median time over nine calls."""
    _ARRAYS["tall"] = np.arange(64 * 32, dtype=np.int64).reshape(64, 32)
    _ARRAYS["wide"] = np.arange(256 * 512, dtype=np.int64).reshape(256, 512) * 40503 % P
    _ARRAYS["outer"] = np.empty_like(_ARRAYS["wide"])
    for _ in sys.stdin:
        times = []
        for _ in range(9):
            start = time.perf_counter_ns()
            kernel()
            times.append((time.perf_counter_ns() - start) / 1e9)
        print(statistics.median(times), flush=True)


if __name__ == "__main__":
    serve(KERNELS[sys.argv[1]])
