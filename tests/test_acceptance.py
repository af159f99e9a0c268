"""Acceptance suite: the exit criteria for this artifact, one per test.

Each test prints a single ``[acceptance] <name>: PASS/FAIL`` line (run
pytest with ``-s`` to see them as they happen) and enforces its stated
runtime budget where one exists.  All checks are exact; there are no
tolerances anywhere.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from qcsa.codes import (
    GrsSpec,
    ParameterError,
    QcsaParams,
    csa_matrix,
    dual_multipliers,
    grs_generator,
    qcsa_matrix,
)
from qcsa.field import PrimeField, next_prime
from qcsa.matrix import FieldMatrix, block_diag, hstack
from qcsa.nsumbox import (
    SingularGHError,
    build_qcsa_system,
    channel_from_gh,
    gh_column_permutation,
    is_sso,
    selector_matrix,
)
from qcsa.scheme import classical_decode, qcsa_roundtrip, rate_report, reduce_servers

from oracles import (
    adjugate_inverse,
    dual_mult,
    matmul,
    permutation_entries,
    qcsa_entries,
    symplectic_entries,
)

# (N, L) pairs with 2 <= N <= 12, 1 <= L <= floor(N/2); each runs at the
# smallest usable prime and at q = 101.
PAIR_GRID = [(n, l) for n in range(2, 13) for l in range(1, n // 2 + 1)]
GRID = [(n, l, q) for (n, l) in PAIR_GRID for q in (next_prime(n + l), 101)]


def _report(name: str, ok: bool, elapsed: float | None = None, budget: float | None = None):
    stamp = f" [{elapsed:.2f}s < {budget:.0f}s]" if elapsed is not None else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"acceptance criterion failed: {name}"


def test_criterion_1_grs_duality_suite():
    start = time.perf_counter()
    ok = True
    for p in (13, 31):
        field = PrimeField(p)
        rng = np.random.default_rng((1001, p))
        for n in range(2, 13):
            for k in range(1, n):
                for _ in range(50):
                    alpha = tuple(int(x) for x in rng.permutation(p)[:n])
                    u = tuple(int(x) for x in rng.integers(1, p, size=n))
                    v = dual_multipliers(field, alpha, u)
                    gk = grs_generator(GrsSpec(field, n, k, alpha, u))
                    gnk = grs_generator(GrsSpec(field, n, n - k, alpha, v))
                    product = gk.T @ gnk
                    if product.shape != (k, n - k) or not product.is_zero():
                        ok = False
    elapsed = time.perf_counter() - start
    _report("criterion-1 grs-duality 6600 draws", ok and elapsed < 5.0, elapsed, 5.0)


def test_criterion_2_channel_construction_suite():
    start = time.perf_counter()
    ok = True
    for n, l, q in GRID:
        field = PrimeField(q)
        rng = np.random.default_rng((1002, n, l, q))
        for draw in range(11):
            if draw == 0:
                params = QcsaParams.default(field, n, l)
            else:
                params = QcsaParams.random(field, n, l, rng)
            system = build_qcsa_system(params)
            box = system.box
            gh = hstack([box.G, box.H])
            bd = block_diag([system.qu, system.qv])
            point_ok = (
                is_sso(box.G)
                and gh.rank() == 2 * n
                and gh == bd @ FieldMatrix(field, permutation_entries(box.pi.image))
                and box.M @ bd == selector_matrix(field, n, l)
            )
            if not point_ok:
                ok = False
    elapsed = time.perf_counter() - start
    _report(
        f"criterion-2 channel-construction {len(GRID)}x11 builds",
        ok and elapsed < 30.0,
        elapsed,
        30.0,
    )


def test_criterion_3_worked_micro_instance():
    p = 5
    alpha, f, u = [1, 2], [3], [1, 1]
    # frozen goldens, re-derived here by the independent brute-force route
    golden_v = [4, 1]
    golden_qu = [[3, 1], [1, 1]]
    golden_qv = [[2, 4], [1, 1]]
    golden_mq = [[3, 2, 0, 0], [0, 0, 2, 2]]

    assert dual_mult(alpha, u, p) == golden_v
    assert qcsa_entries(alpha, u, f, p) == golden_qu
    assert qcsa_entries(alpha, golden_v, f, p) == golden_qv
    bd = [[3, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 4], [0, 0, 1, 1]]
    selector = [[1, 0, 0, 0], [0, 0, 1, 0]]
    assert matmul(selector, adjugate_inverse(bd, p), p) == golden_mq

    # the package must reproduce the same values
    field = PrimeField(p)
    params = QcsaParams(field, 2, 1, tuple(alpha), tuple(u), tuple(f))
    system = build_qcsa_system(params)
    ok = (
        list(system.v) == golden_v
        and system.qu.array.tolist() == golden_qu
        and system.qv.array.tolist() == golden_qv
        and system.box.M.array.tolist() == golden_mq
    )

    # inputs delta(1)=2, nu(1)=3, delta(2)=4, nu(2)=0 must come out as (2, 4)
    a1 = matmul(golden_qu, [[2], [3]], p)  # beta = 1, so Qu is the CSA matrix
    a2 = matmul(golden_qu, [[4], [0]], p)
    assert [row[0] for row in a1] == [4, 0]
    assert [row[0] for row in a2] == [2, 4]
    x = [4, 0, 3, 4]  # u and v applied serverwise; 4*2=8=3 mod 5
    y_oracle = [row[0] for row in matmul(golden_mq, [[t] for t in x], p)]
    assert y_oracle == [2, 4]
    from qcsa.scheme import SchemeInstance, server_scale

    i1 = SchemeInstance.from_symbols(params, 1, (2,), (3,))
    i2 = SchemeInstance.from_symbols(params, 2, (4,), (0,))
    x_pkg = server_scale(field, i1.answers, i2.answers, system.u, system.v)
    ok = ok and i1.answers == (4, 0) and i2.answers == (2, 4)
    ok = ok and x_pkg.tolist() == x
    ok = ok and system.box.transmit(x_pkg).tolist() == [2, 4]
    _report("criterion-3 worked-micro-instance", ok)


def test_criterion_4_roundtrip_recovery():
    start = time.perf_counter()
    trials = 1000
    ok = True
    for n, l, q in GRID:
        field = PrimeField(q)
        params = QcsaParams.default(field, n, l)
        system = build_qcsa_system(params)
        answers1 = np.empty((n, trials), dtype=np.int64)
        answers2 = np.empty((n, trials), dtype=np.int64)
        delta1 = np.empty((l, trials), dtype=np.int64)
        delta2 = np.empty((l, trials), dtype=np.int64)
        for t in range(trials):
            result = qcsa_roundtrip(params, (1004, n, l, q, t), system)
            if not result.passed:
                ok = False
            answers1[:, t] = result.instances[0].answers
            answers2[:, t] = result.instances[1].answers
            delta1[:, t] = result.delta1
            delta2[:, t] = result.delta2
        # independent oracle: classical decode of every trial's answers
        if not np.array_equal(classical_decode(answers1, params)[:l], delta1):
            ok = False
        if not np.array_equal(classical_decode(answers2, params)[:l], delta2):
            ok = False
    elapsed = time.perf_counter() - start
    _report(
        f"criterion-4 roundtrip-recovery {len(GRID)}x{trials} trials",
        ok and elapsed < 60.0,
        elapsed,
        60.0,
    )


def test_criterion_5_rate_table():
    ok = True
    for n in range(2, 65):
        for l in range(1, n):
            r = rate_report(n, l)
            if r.rate_quantum != min(Fraction(1), Fraction(2 * l, n)):
                ok = False
            if r.rate_classical != Fraction(l, n):
                ok = False
            n2, l2 = reduce_servers(n, l)
            if (n2, l2) != (r.N_reduced, r.L_reduced) or n - l != n2 - l2:
                ok = False
            if 2 * l > n:
                # reduction: N' = 2N - 2L, L' = N - L, exactly 1 qudit/symbol
                if (n2, l2) != (2 * n - 2 * l, n - l):
                    ok = False
                if r.qudits_per_symbol != Fraction(1) or Fraction(n2, 2 * l2) != 1:
                    ok = False
            else:
                if (n2, l2) != (n, l):
                    ok = False
                if r.qudits_per_symbol != Fraction(n, 2 * l):
                    ok = False
                if r.dits_per_symbol != Fraction(n, l):
                    ok = False
                # the factor-2 gain, exactly
                if r.dits_per_symbol != 2 * r.qudits_per_symbol:
                    ok = False
    _report("criterion-5 rate-table 1<=L<N<=64", ok)


def test_criterion_6_unit_beta_collapses_to_csa():
    ok = True
    for n, l, q in GRID:
        field = PrimeField(q)
        rng = np.random.default_rng((1006, n, l, q))
        for draw in range(4):
            if draw == 0:
                params = QcsaParams.default(field, n, l)
            else:
                params = QcsaParams.random(field, n, l, rng).with_beta((1,) * n)
            if qcsa_matrix(params) != csa_matrix(field, params.alpha, params.f):
                ok = False
    _report("criterion-6 unit-beta-consistency", ok)


def test_criterion_7_negative_paths():
    field = PrimeField(13)
    rng = np.random.default_rng(1007)
    rejected = 0
    while rejected < 100:
        n = int(rng.integers(2, 6))
        g = FieldMatrix(field, rng.integers(0, 13, size=(2 * n, n)))
        if g.rank() != n:
            continue
        # confirm non-SSO by the independent schoolbook product
        j = symplectic_entries(n, 13)
        gt = [list(row) for row in g.array.T.tolist()]
        triple = matmul(matmul(gt, j, 13), g.array.tolist(), 13)
        if all(x == 0 for row in triple for x in row):
            continue
        if is_sso(g):
            _report("criterion-7 negative-paths", False)
        rejected += 1

    system = build_qcsa_system(QcsaParams.default(field, 4, 2))
    with pytest.raises(SingularGHError):
        channel_from_gh(system.box.G, system.box.G)
    with pytest.raises(ParameterError):
        QcsaParams.default(PrimeField(11), 4, 3)  # L > N/2 on the channel path
    with pytest.raises(ParameterError):
        selector_matrix(field, 4, 3)
    with pytest.raises(ParameterError):
        gh_column_permutation(4, 3)
    _report("criterion-7 negative-paths", True)
