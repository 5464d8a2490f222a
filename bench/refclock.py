"""A fixed reference kernel, timed between ops, that factors host speed out.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes (and by up to 2.5x over half an hour), while
runs of the same code must agree to within a few percent.  So every run
also times this kernel, interleaved with its ops, and scales its times by

    speed = REF_NOMINAL_S / median(kernel times in that phase of the run)

A reported time is then "seconds at reference host speed": the raw time
when the host runs the kernel in REF_NOMINAL_S.  The kernel is fixed code
in the benchmark, not in the program, so a change to the program moves the
scaled times and leaves the factor alone.  Raw times and the factor are kept
in the run record.

The kernel spends about a quarter of its time in interpreted Python, a
quarter in numpy math on a quadrature-sized float grid, and half streaming
XOR over 1 MiB bit arrays.  Under the host's drift the first two slow down
about twice as much as dlsec's ops do, and the stream hardly at all, so
this mix moves about as much as the workloads.  Its arrays are allocated
once, so it adds a fixed amount to peak RSS.
"""

from __future__ import annotations

import statistics
import time

# CPU time of this process: the clock of every timed op, set-up launch and
# kernel run, so that time the host spends on other tenants is not counted
CLOCK = time.process_time
REF_NOMINAL_S = 0.012  # about the kernel's time on a 2-vCPU x86-64 host
SHARE = 0.08           # kernel time per second of timed op time
WARM_RUNS = 5


class RefClock:
    def __init__(self):
        # numpy loads here, not at import: set-up launches import this
        # module and time numpy's import as part of dlsec's
        import numpy as np

        self._np = np
        rng = np.random.default_rng(20090116)
        self._grid = rng.random(200 * 200) * 8.0
        self._tmp = np.empty_like(self._grid)
        self._bits = rng.integers(0, 2, 1 << 20, dtype=np.uint8)
        self._key = rng.integers(0, 2, 1 << 20, dtype=np.uint8)
        self._cipher = np.empty_like(self._bits)
        self._plain = np.empty_like(self._bits)
        self.times: list[float] = []
        self._owed = 0.0  # kernel time still due for op time already spent

    def _kernel(self) -> float:
        np = self._np
        acc, table = 0, {}
        for i in range(24000):
            acc += (i * i) % 7
            table[i & 255] = acc
        s = 0.0
        for _ in range(20):
            np.multiply(self._grid, -0.5, out=self._tmp)
            np.exp(self._tmp, out=self._tmp)
            np.log1p(self._tmp, out=self._tmp)
            s += float(self._tmp.sum())
        for _ in range(20):
            np.bitwise_xor(self._bits, self._key, out=self._cipher)
            np.bitwise_xor(self._cipher, self._key, out=self._plain)
        if not np.array_equal(self._plain, self._bits):
            raise AssertionError("reference kernel XOR did not round-trip")
        return s + acc

    def tick(self) -> float:
        """Run the kernel once; returns and records its time in seconds."""
        t0 = CLOCK()
        self._kernel()
        elapsed = CLOCK() - t0
        self.times.append(elapsed)
        return elapsed

    def warm(self) -> None:
        """Untimed kernel runs, to load caches before the first recorded one."""
        for _ in range(WARM_RUNS):
            self._kernel()

    def keep_up(self, busy_s: float) -> None:
        """Account ``busy_s`` of op time and run the kernel for its share."""
        self._owed += SHARE * busy_s
        while self._owed > 0.0:
            self._owed -= self.tick()

    def speed(self, first: int = 0) -> float:
        """Factor from raw seconds to seconds at reference host speed, from
        the kernel runs recorded since the ``first``-th."""
        times = self.times[first:]
        if not times:
            raise RuntimeError("the reference kernel has not run")
        return REF_NOMINAL_S / statistics.median(times)

    def summary(self, first: int = 0) -> dict:
        times = self.times[first:]
        return {"nominal_s": REF_NOMINAL_S, "runs": len(times),
                "median_s": statistics.median(times) if times else None,
                "speed": self.speed(first) if times else None}
