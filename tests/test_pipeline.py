"""One property over the whole pipeline: construct, write, read, verify, simulate.

For random parameters over a fixed list of primes, the bundle ``construct``
writes must read back through the strict parser and pass every check, its
M_Q must equal the brute-force construction of ``tests/oracles.py`` at
small N, and trials through the read-back system must equal the oracle's.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qcsa.cli import main
from qcsa.nsumbox import QcsaSystem, verify_system
from qcsa.scheme import run_trials

from oracles import adjugate_inverse, dual_mult, qcsa_entries, qcsa_trials

# 2 is left out: no N + L >= 3 distinct points fit in GF(2).
PRIMES = (3, 5, 7, 13, 31, 101, 257, 65521, 2147483647)
MAX_N = 12
ORACLE_MAX_N = 6  # the cofactor inverse grows as N!
TRIALS = 3


@st.composite
def points(draw):
    """(p, N, L, alpha, f, u) with 2L <= N and N + L distinct residues."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(2, min(MAX_N, p - 1)))
    l = draw(st.integers(1, min(n // 2, p - n)))
    residues = draw(st.lists(st.integers(0, p - 1), min_size=n + l, max_size=n + l,
                             unique=True))
    u = draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
    return p, n, l, residues[:n], residues[n:], u


def oracle_channel(p, n, l, alpha, f, u):
    """M_Q as selected rows of the cofactor inverses of Qu and Qv, zero-padded.

    Instance 1 forwards coordinates 1..L and its last floor(N/2) - L, instance
    2 coordinates 1..L and its last ceil(N/2) - L.
    """
    def forwarded(tail):
        return list(range(l)) + list(range(n - tail, n))

    pad = [0] * n
    top = adjugate_inverse(qcsa_entries(alpha, u, f, p), p)
    bottom = adjugate_inverse(qcsa_entries(alpha, dual_mult(alpha, u, p), f, p), p)
    return ([top[r] + pad for r in forwarded(n // 2 - l)]
            + [pad + bottom[r] for r in forwarded((n + 1) // 2 - l)])


def _csv(values) -> str:
    return ",".join(map(str, values))


@settings(max_examples=150, deadline=None)
@given(points(), st.integers(0, 2**32))
@example((7, 4, 2, [0, 1, 2, 3], [4, 5], [1, 1, 1, 1]), 0)
@example((13, 7, 3, [1, 2, 3, 4, 5, 6, 7], [8, 9, 10], [3, 1, 4, 1, 5, 9, 2]), 1)
@example((2147483647, 6, 3, [5, 2**31 - 2, 7, 11, 0, 1], [2, 3, 4], [2**31 - 2] * 6), 2)
def test_construct_read_verify_simulate(point, seed):
    p, n, l, alpha, f, u = point
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bundle.json")
        rc = main(["construct", "--p", str(p), "--N", str(n), "--L", str(l), "--alpha", _csv(alpha),
                   "--f", _csv(f), "--u", _csv(u), "--seed", str(seed), "--out", path])
        assert rc == 0
        with open(path, encoding="utf-8") as fh:
            system = QcsaSystem.from_dict(json.load(fh))

    checks = verify_system(system)
    assert len(checks) == 14 and all(checks.values()), checks

    m_rows = system.box.M.array.tolist()
    if n <= ORACLE_MAX_N:
        assert m_rows == oracle_channel(p, n, l, alpha, f, u)

    summary = run_trials(system.params, seed, TRIALS, system)
    draws = [np.random.default_rng((seed, t)).integers(0, p, size=2 * n).tolist()
             for t in range(TRIALS)]
    referee = qcsa_trials(alpha, f, u, m_rows, draws, p)
    assert summary["passed"] == TRIALS
    assert [row["y"] for row in summary["reports"]] == [r["y"] for r in referee]
    assert [row["expected"] for row in summary["reports"]] == [r["expected"] for r in referee]
    assert all(r["passed"] for r in referee)
