import tracemalloc

import numpy as np
import pytest

from qcsa.codes import (
    GrsSpec,
    ParameterError,
    QcsaParams,
    _csa_inverse,
    csa_matrix,
    dual_multipliers,
    grs_generator,
    qcsa_cauchy_block,
    qcsa_grs_submatrix,
    qcsa_matrix,
    qcsa_trailing_block,
)
from qcsa.field import PrimeField, next_prime
from qcsa.matrix import FieldMatrix, hstack

from oracles import adjugate_inverse, csa_entries, dual_mult, grs_entries, inv_mod, qcsa_entries
from test_acceptance import GRID, PAIR_GRID

GF5 = PrimeField(5)
GF7 = PrimeField(7)
GF13 = PrimeField(13)


def test_grs_generator_examples():
    g = grs_generator(GrsSpec(GF5, 2, 1, (1, 2), (1, 1)))
    assert g == FieldMatrix(GF5, [[1], [1]])
    g = grs_generator(GrsSpec(GF5, 2, 2, (1, 2), (1, 1)))
    assert g == FieldMatrix(GF5, [[1, 1], [1, 2]])
    g = grs_generator(GrsSpec(GF7, 3, 2, (1, 2, 3), (2, 2, 2)))
    assert g == FieldMatrix(GF7, [[2, 2], [2, 4], [2, 6]])


def test_grs_generator_matches_entry_formula():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(0, n + 1))
        alpha = [int(x) for x in rng.permutation(13)[:n]]
        u = [int(x) for x in rng.integers(1, 13, size=n)]
        g = grs_generator(GrsSpec(GF13, n, k, tuple(alpha), tuple(u)))
        assert g.array.tolist() == grs_entries(alpha, u, k, 13)


def test_grs_spec_validation():
    with pytest.raises(ParameterError):
        GrsSpec(GF5, 2, 1, (1, 1), (1, 1))  # repeated point
    with pytest.raises(ParameterError):
        GrsSpec(GF5, 2, 1, (1, 2), (0, 1))  # zero multiplier
    with pytest.raises(ParameterError):
        GrsSpec(GF5, 2, 3, (1, 2), (1, 1))  # k > n
    with pytest.raises(ParameterError):
        GrsSpec(GF5, 6, 2, (0, 1, 2, 3, 4, 5), (1,) * 6)  # n > q


def test_dual_multipliers_examples():
    assert dual_multipliers(GF5, (1, 2), (1, 1)) == (4, 1)
    assert dual_mult([1, 2], [1, 1], 5) == [4, 1]
    # single point: the product over an empty index set is 1
    assert dual_multipliers(GF7, (0,), (3,)) == (5,)


def test_dual_multipliers_are_nonzero():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        alpha = tuple(int(x) for x in rng.permutation(13)[:n])
        u = tuple(int(x) for x in rng.integers(1, 13, size=n))
        v = dual_multipliers(GF13, alpha, u)
        assert all(x != 0 for x in v)
        assert v == tuple(dual_mult(list(alpha), list(u), 13))


@pytest.mark.parametrize("p", [13, 31])
def test_grs_duality(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p * 7)
    for _ in range(40):
        n = int(rng.integers(2, min(12, p - 1) + 1))
        k = int(rng.integers(1, n))
        alpha = tuple(int(x) for x in rng.permutation(p)[:n])
        u = tuple(int(x) for x in rng.integers(1, p, size=n))
        v = dual_multipliers(field, alpha, u)
        gk = grs_generator(GrsSpec(field, n, k, alpha, u))
        gnk = grs_generator(GrsSpec(field, n, n - k, alpha, v))
        assert (gk.T @ gnk).is_zero()


def test_csa_matrix_example():
    assert csa_matrix(GF5, (1, 2), (3,)) == FieldMatrix(GF5, [[3, 1], [1, 1]])


def test_csa_matrix_matches_entry_formula_and_is_invertible():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        l = int(rng.integers(1, n))  # classical path allows any L < N
        points = rng.permutation(13)[: n + l]
        alpha = tuple(int(x) for x in points[:n])
        f = tuple(int(x) for x in points[n:])
        m = csa_matrix(GF13, alpha, f)
        assert m.array.tolist() == csa_entries(list(alpha), list(f), 13)
        assert m.rank() == n


def _closed_form(c, alpha, f, tail=None) -> FieldMatrix:
    """The rows of C^{-1} that ``_csa_inverse`` builds: its R Diag(F) times Diag(d)^{-1}."""
    rows, d = _csa_inverse(c, tuple(alpha), tuple(f), tail)
    return FieldMatrix(c.field, rows * [inv_mod(x, c.field.p) for x in d.tolist()])


def _check_closed_form_inverse(p, alpha, f):
    """The closed-form C^{-1} against Gauss-Jordan, and for N <= 4 the adjugate."""
    c = csa_matrix(PrimeField(p), alpha, f)
    inv = _closed_form(c, alpha, f)
    assert inv == c.inverse(), (p, alpha, f)
    if len(alpha) <= 4:
        assert inv.array.tolist() == adjugate_inverse(c.array.tolist(), p), (p, alpha, f)


@pytest.mark.parametrize("n,l,q", GRID + [(n, l, 2**31 - 1) for n, l in PAIR_GRID])
def test_closed_form_csa_inverse_on_the_differential_grid(n, l, q):
    field = PrimeField(q)
    rng = np.random.default_rng((11, n, l, q))
    for params in (QcsaParams.default(field, n, l), QcsaParams.random(field, n, l, rng)):
        _check_closed_form_inverse(q, params.alpha, params.f)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 101, 65521, 2**31 - 1])
def test_closed_form_csa_inverse_for_every_small_shape(p):
    """Every 2 <= N <= 12 and 1 <= L < N that fits in GF(p): default points
    (0 among alpha), random points, and random points with 0 among f."""
    rng = np.random.default_rng(p)
    shapes = [(n, l) for n in range(2, 13) for l in range(1, n) if n + l <= p]
    for n, l in shapes:
        drawn = [int(x) for x in rng.choice(p, size=n + l, replace=False)]
        with_zero = [x for x in drawn if x != 0][:n + l - 1]
        with_zero.insert(n, 0)
        for points in (list(range(n + l)), drawn, with_zero):
            _check_closed_form_inverse(p, points[:n], points[n:])


@pytest.mark.parametrize("n,l,p", [(256, 64, 65521), (255, 64, 2**31 - 1)])
def test_closed_form_csa_inverse_at_the_benchmark_sizes(n, l, p):
    _check_closed_form_inverse(p, range(n), range(n, n + l))
    drawn = np.random.default_rng(n).choice(p, size=n + l, replace=False).tolist()
    _check_closed_form_inverse(p, drawn[:n], drawn[n:])


def _check_tail_rows(p, alpha, f):
    """tail=k keeps the full inverse's first L rows and its last k rows, in that order."""
    n, l = len(alpha), len(f)
    c = csa_matrix(PrimeField(p), alpha, f)
    full = _closed_form(c, alpha, f).array
    for k in (0, 1, (n + 1) // 2 - l, n - l):
        rows = _closed_form(c, alpha, f, k).array
        assert rows.tolist() == full[:l].tolist() + full[n - k:].tolist(), (p, alpha, f, k)


@pytest.mark.parametrize("modulus", ["next-prime", 101, 2**31 - 1])
def test_a_csa_inverse_tail_is_the_full_inverse_cut(modulus):
    """Every 2 <= N <= 16 and 1 <= L <= N/2, at default and at random points."""
    for n in range(2, 17):
        for l in range(1, n // 2 + 1):
            p = next_prime(n + l) if modulus == "next-prime" else modulus
            drawn = np.random.default_rng((n, l, p)).choice(p, size=n + l, replace=False).tolist()
            for points in (tuple(range(n + l)), tuple(drawn)):
                _check_tail_rows(p, points[:n], points[n:])


@pytest.mark.parametrize("n,l,p", [(256, 64, 65521), (255, 64, 2**31 - 1)])
def test_a_csa_inverse_tail_is_the_full_inverse_cut_at_the_benchmark_sizes(n, l, p):
    drawn = np.random.default_rng(n).choice(p, size=n + l, replace=False).tolist()
    for points in (tuple(range(n + l)), tuple(drawn)):
        _check_tail_rows(p, points[:n], points[n:])


def test_csa_matrix_rejects_collisions():
    with pytest.raises(ParameterError):
        csa_matrix(GF5, (1, 2), (2,))
    with pytest.raises(ParameterError):
        csa_matrix(GF5, (1, 1), (3,))
    with pytest.raises(ParameterError):
        csa_matrix(GF5, (1, 2), ())  # no desired symbols
    with pytest.raises(ParameterError):
        csa_matrix(GF5, (1, 2), (3, 4))  # L = N leaves no interference


def test_csa_allows_l_beyond_half_but_params_do_not():
    # classical decode works at L = N - 1
    m = csa_matrix(GF7, (1, 2, 3), (4, 5))
    assert m.rank() == 3
    with pytest.raises(ParameterError):
        QcsaParams(GF7, 3, 2, (1, 2, 3), (1, 1, 1), (4, 5))


def test_qcsa_matrix_examples():
    params = QcsaParams(GF5, 2, 1, (1, 2), (1, 1), (3,))
    assert qcsa_matrix(params) == FieldMatrix(GF5, [[3, 1], [1, 1]])
    params = QcsaParams(GF5, 2, 1, (1, 2), (4, 1), (3,))
    assert qcsa_matrix(params) == FieldMatrix(GF5, [[2, 4], [1, 1]])


def test_qcsa_equals_row_scaled_csa():
    rng = np.random.default_rng(44)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        l = int(rng.integers(1, n // 2 + 1))
        params = QcsaParams.random(GF13, n, l, rng)
        via_diag = FieldMatrix.diagonal(GF13, params.beta) @ csa_matrix(
            GF13, params.alpha, params.f
        )
        q = qcsa_matrix(params)
        assert q == via_diag
        assert q.array.tolist() == qcsa_entries(
            list(params.alpha), list(params.beta), list(params.f), 13
        )
        assert q.rank() == n


def test_beta_of_ones_reduces_to_csa():
    rng = np.random.default_rng(45)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        l = int(rng.integers(1, n // 2 + 1))
        params = QcsaParams.random(GF13, n, l, rng).with_beta((1,) * n)
        assert qcsa_matrix(params) == csa_matrix(GF13, params.alpha, params.f)


def test_qcsa_blocks():
    params = QcsaParams(GF5, 2, 1, (1, 2), (4, 1), (3,))
    q = qcsa_matrix(params)
    grs_block = qcsa_grs_submatrix(q, params, 1)
    assert grs_block == q.take_columns([1])
    assert grs_block == grs_generator(GrsSpec(GF5, 2, 1, params.alpha, params.beta))


def test_qcsa_block_reassembly_and_width_check():
    rng = np.random.default_rng(46)
    for _ in range(25):
        n = int(rng.integers(2, 10))  # keep n + l within GF(13)
        l = int(rng.integers(1, n // 2 + 1))
        params = QcsaParams.random(GF13, n, l, rng)
        q = qcsa_matrix(params)
        ceil_half = (n + 1) // 2
        grs_block = qcsa_grs_submatrix(q, params, ceil_half)
        assert grs_block == grs_generator(GrsSpec(GF13, n, ceil_half, params.alpha, params.beta))
        floor_block = qcsa_grs_submatrix(q, params, n // 2)
        assert floor_block == grs_block.take_columns(range(n // 2))
        reassembled = hstack(
            [qcsa_cauchy_block(q, params), grs_block, qcsa_trailing_block(q, params)]
        )
        assert reassembled == q
    with pytest.raises(ParameterError):
        qcsa_grs_submatrix(q, params, n)


def test_cauchy_block_of_unscaled_matrix():
    params = QcsaParams.default(GF13, 6, 2)
    q = qcsa_matrix(params)
    csa = csa_matrix(GF13, params.alpha, params.f)
    assert qcsa_cauchy_block(q, params) == csa.take_columns([0, 1])


def test_params_validation():
    with pytest.raises(ParameterError):
        QcsaParams(GF5, 2, 1, (1, 2), (0, 1), (3,))  # zero beta
    with pytest.raises(ParameterError):
        QcsaParams(GF5, 2, 1, (1, 2), (1, 1), (2,))  # f collides with alpha
    with pytest.raises(ParameterError):
        QcsaParams(GF5, 4, 3, (0, 1, 2, 3), (1,) * 4, (4, 0, 1))  # L > N/2
    with pytest.raises(ParameterError):
        QcsaParams(GF5, 4, 0, (0, 1, 2, 3), (1,) * 4, ())  # L < 1
    with pytest.raises(ParameterError):
        QcsaParams(PrimeField(3), 3, 1, (0, 1, 2), (1, 1, 1), (0,))  # q < N + L
    # boundary q = N + L is legal
    params = QcsaParams.default(PrimeField(3), 2, 1)
    assert params.alpha == (0, 1) and params.f == (2,)


def test_params_default_and_random():
    params = QcsaParams.default(GF13, 5, 2)
    assert params.alpha == (0, 1, 2, 3, 4)
    assert params.f == (5, 6)
    assert params.beta == (1,) * 5
    assert (params.half_floor, params.half_ceil) == (2, 3)
    rng = np.random.default_rng(47)
    drawn = QcsaParams.random(GF13, 5, 2, rng)
    assert len(set(drawn.alpha + drawn.f)) == 7
    assert all(b != 0 for b in drawn.beta)


def test_random_params_at_the_largest_modulus_use_little_memory():
    field = PrimeField(2**31 - 1)
    rng = np.random.default_rng(48)
    tracemalloc.start()
    try:
        drawn = QcsaParams.random(field, 64, 32, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    points = drawn.alpha + drawn.f
    assert len(points) == 96 and len(set(points)) == 96
    assert all(type(x) is int and 0 <= x < field.p for x in points)
    assert all(0 < b < field.p for b in drawn.beta)
    assert peak < 2**20


def test_random_params_reject_a_field_too_small():
    with pytest.raises(ParameterError, match="fewer than N \\+ L = 6"):
        QcsaParams.random(GF5, 4, 2, np.random.default_rng(49))


def test_params_serialization_round_trip():
    params = QcsaParams(GF5, 2, 1, (1, 2), (4, 1), (3,))
    doc = params.to_dict()
    assert doc == {"p": 5, "N": 2, "L": 1, "alpha": [1, 2], "beta": [4, 1], "f": [3]}
    assert QcsaParams.from_dict(doc) == params
