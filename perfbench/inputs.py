"""Seeded workload inputs for the qcsa benchmark.

Every workload is a list of points.  A point fixes one (N, L, p) operating
point, its random evaluation points alpha and f, its nonzero multipliers
u, the simulate seed and the trial count.  The same benchmark seed always
gives the same points.  Nothing here calls into qcsa: the benchmark works
out the server reduction and the primes itself, so that a change to the
program cannot change its own inputs.
"""

from dataclasses import dataclass

import numpy as np

P31 = 2**31 - 1

# Trials per simulate call, taken from the repo's documented traffic: the
# CLI's default of 100, and the 1000 per point of acceptance criterion 4.
# sim-wide runs 1000.  sim-grid runs 100, because 1000 at each of its 264
# points would take over a minute a round; build-256 runs 100, because its
# simulate is there for the metric, not the trial engine.
CLI_DEFAULT_TRIALS = 100
CRITERION_4_TRIALS = 1000


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def smallest_prime_at_least(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def distinct_residues(rng: np.random.Generator, p: int, k: int) -> list:
    """k distinct elements of [0, p) in random order, in O(k) time and memory.

    Floyd's sampling without replacement, then a shuffle of the k picks.
    ``rng.permutation(p)`` would need O(p) memory, about 16 GiB at
    p = 2^31 - 1.
    """
    if not 0 <= k <= p:
        raise ValueError(f"cannot draw {k} distinct residues mod {p}")
    chosen = set()
    picks = []
    for j in range(p - k, p):
        t = int(rng.integers(0, j + 1))
        pick = j if t in chosen else t
        chosen.add(pick)
        picks.append(pick)
    return [picks[i] for i in rng.permutation(k)]


def reduced_point(n: int, l: int) -> tuple:
    """(N', L') that simulate runs: 2N - 2L servers and N - L symbols when L > N/2."""
    return (n, l) if 2 * l <= n else (2 * n - 2 * l, n - l)


@dataclass(frozen=True)
class Point:
    """One operating point and the flags every command gets for it."""

    n: int
    l: int
    p: int
    alpha: tuple
    f: tuple
    u: tuple
    seed: int
    trials: int

    @property
    def key(self) -> str:
        return f"N={self.n},L={self.l},p={self.p}"

    @property
    def reduced(self) -> tuple:
        return reduced_point(self.n, self.l)

    @staticmethod
    def _csv(values) -> str:
        return ",".join(str(v) for v in values)

    def construct_argv(self, out: str) -> list:
        """construct at the point simulate runs, on the prefixes simulate keeps."""
        n2, l2 = self.reduced
        return ["construct", "--p", str(self.p), "--N", str(n2), "--L", str(l2),
                "--alpha", self._csv(self.alpha[:n2]), "--f", self._csv(self.f[:l2]),
                "--u", self._csv(self.u[:n2]), "--seed", str(self.seed), "--out", out]

    def simulate_argv(self, out: str) -> list:
        return ["simulate", "--p", str(self.p), "--N", str(self.n), "--L", str(self.l),
                "--alpha", self._csv(self.alpha), "--f", self._csv(self.f),
                "--u", self._csv(self.u), "--seed", str(self.seed),
                "--trials", str(self.trials), "--out", out]


def draw_point(rng: np.random.Generator, n: int, l: int, p: int, trials: int) -> Point:
    points = distinct_residues(rng, p, n + l)
    u = tuple(int(x) for x in rng.integers(1, p, size=n))
    seed = int(rng.integers(0, 2**31))
    return Point(n, l, p, tuple(points[:n]), tuple(points[n:]), u, seed, trials)


def sim_grid(rng: np.random.Generator) -> list:
    """Every 2 <= N <= 12 and 1 <= L <= N - 1 at four moduli, in seeded order."""
    pts = []
    for n in range(2, 13):
        for l in range(1, n):
            for p in (smallest_prime_at_least(n + l), 101, 65521, P31):
                pts.append(draw_point(rng, n, l, p, trials=CLI_DEFAULT_TRIALS))
    return [pts[i] for i in rng.permutation(len(pts))]


def sim_wide(rng: np.random.Generator) -> list:
    return [draw_point(rng, 64, l, P31, trials=CRITERION_4_TRIALS) for l in (16, 32)]


def build_256(rng: np.random.Generator) -> list:
    return [draw_point(rng, 256, 64, 65521, trials=CLI_DEFAULT_TRIALS),
            draw_point(rng, 255, 64, P31, trials=CLI_DEFAULT_TRIALS)]


WORKLOADS = {
    "sim-grid": sim_grid,
    "sim-wide": sim_wide,
    "build-256": build_256,
}


def workload_points(name: str, seed: int) -> list:
    return WORKLOADS[name](np.random.default_rng(seed))
