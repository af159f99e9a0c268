"""Differential tests of the float64 GF(p) product and the row reduction.

``int64_matmul`` and ``unblocked_rank`` are the int64 kernels the package
used before its products moved to float64 BLAS; they stay here as referees
for shapes too large for ``tests/oracles.py``.  An inverse needs no such
referee: ``A @ inv == I`` fixes it uniquely.
The sizes around B = 32 were once the package's panel boundaries and stay
as cases.  Every comparison is exact equality.
"""

from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcsa import matrix
from qcsa.codes import QcsaParams, csa_matrix
from qcsa.field import MAX_MODULUS, PrimeField
from qcsa.matrix import FieldMatrix, SingularMatrixError, _mod_matmul, hstack, inverse_residues
from qcsa.nsumbox import build_qcsa_system

from oracles import adjugate_inverse, matmul

# One float64 product serves k <= 2 at 67108859, only k = 1 at 67108879 and
# no k at 2**31 - 1, so the three sit on either side of the float bound.
PRIMES = (2, 3, 101, 65521, 67108859, 67108879, MAX_MODULUS)
B = 32


def int64_matmul(a, b, p):
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    step = (2**63 - 1 - (p - 1)) // ((p - 1) ** 2) if p > 2 else inner
    if step >= inner:
        return (a @ b) % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(0, inner, step):
        out += a[:, k:k + step] @ b[k:k + step, :]
        out %= p
    return out


def unblocked_rank(data, p):
    a = data.copy()
    rows, cols = a.shape
    r = 0
    for col in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, col]), -1, p) % p
        below = np.nonzero(a[r + 1:, col])[0]
        if below.size:
            idx = below + r + 1
            a[idx] = (a[idx] - np.outer(a[idx, col], a[r])) % p
        r += 1
    return r


def float_bound(p):
    """Largest inner dimension k with k * (p-1)**2 < 2**53."""
    return (2**53 - 1) // (p - 1) ** 2


# "max" fills with p - 1, the largest residue; its square is even, so a
# float64 sum of such products can survive past 2**53 by luck.  "odd" fills
# with p - 2, whose square is odd: past 2**53 such a sum must round.
FILLS = {"max": 1, "odd": 2}


def operands(p, rows, inner, cols, rng, fill):
    if fill in FILLS:
        value = max(p - FILLS[fill], 0)
        return (np.full((rows, inner), value, dtype=np.int64),
                np.full((inner, cols), value, dtype=np.int64))
    return rng.integers(0, p, size=(rows, inner)), rng.integers(0, p, size=(inner, cols))


def exact_product(a, b, p):
    """Python-int dot products, for shapes too long for the schoolbook oracle."""
    bt = b.T.tolist()
    return [[sum(map(mul, row, col)) % p for col in bt] for row in a.tolist()]


# -- the product kernel ---------------------------------------------------


@pytest.mark.parametrize("fill", ["max", "odd", "random"])
@pytest.mark.parametrize("p", PRIMES)
def test_product_at_the_float_bound(p, fill):
    rng = np.random.default_rng(p)
    bound = float_bound(p)
    inners = [1, 2, 3, 40, 256] + [k for k in (bound, bound + 1) if 1 <= k <= 4096]
    for inner in sorted(set(inners)):
        a, b = operands(p, 3, inner, 2, rng, fill)
        expected = matmul(a.tolist(), b.tolist(), p)
        assert _mod_matmul(a, b, p).tolist() == expected, inner
        assert int64_matmul(a, b, p).tolist() == expected, inner


@pytest.mark.parametrize("fill", ["odd", "random"])
def test_long_product_at_65521_crosses_the_float_bound(fill):
    p = 65521
    rng = np.random.default_rng(7)
    for inner in (float_bound(p), float_bound(p) + 1):
        a, b = operands(p, 1, inner, 1, rng, fill)
        assert _mod_matmul(a, b, p).tolist() == exact_product(a, b, p)


@pytest.mark.parametrize("fill", ["max", "random"])
def test_product_just_past_the_limb_chunk(fill):
    p, chunk = MAX_MODULUS, matrix._SPLIT_CHUNK
    # Each limb is below 2**11, so a chunk's limb sums stay below chunk * 2**11 * (p-1).
    assert (chunk + 1) * 2**11 * (p - 1) > 2**53 >= chunk * 2**11 * (p - 1)
    rng = np.random.default_rng(11)
    for inner in (chunk + 1, 2**20 + 1):  # two chunks, then many, the last of one column
        a, b = operands(p, 1, inner, 1, rng, fill)
        expected = exact_product(a, b, p)
        if fill == "max":
            assert expected == [[inner % p]]  # (p-1)**2 = 1 mod p
        assert _mod_matmul(a, b, p).tolist() == expected, inner


@pytest.mark.parametrize("fill", ["max", "odd", "random"])
def test_product_at_the_split_chunk(fill):
    p, chunk = MAX_MODULUS, matrix._SPLIT_CHUNK
    rng = np.random.default_rng(13)
    for inner in (chunk - 1, chunk, chunk + 1, 2 * chunk):
        a, b = operands(p, 3, inner, 2, rng, fill)
        assert _mod_matmul(a, b, p).tolist() == exact_product(a, b, p), inner


# L = N // 4; N = 255 does not fit in GF(101), since N + L > p.
SYSTEM_CASES = [(n, p) for n in (12, 64, 255) for p in (101, 65521, MAX_MODULUS)
                if n + n // 4 <= p]


@pytest.mark.parametrize("n,p", SYSTEM_CASES)
def test_prepared_operands_match_the_int64_kernel(n, p):
    """The trial engine's C and M_Q, prepared once, against the int64 referee."""
    params = QcsaParams.default(PrimeField(p), n, n // 4)
    system = build_qcsa_system(params)
    rng = np.random.default_rng(n + p)
    for a in (csa_matrix(params.field, params.alpha, params.f).array, system.box.M.array):
        left = matrix._prepare(a, p)
        for b in (rng.integers(0, p, size=(a.shape[1], 37)),
                  np.full((a.shape[1], 3), p - 1, dtype=np.int64)):
            assert np.array_equal(matrix._apply(left, b, p), int64_matmul(a, b, p)), a.shape


def stacked_operands(p, rows, inner, cols, rng):
    """Two stack entries: the max fill, then random residues."""
    a, b = operands(p, rows, inner, cols, rng, "max")
    a2, b2 = operands(p, rows, inner, cols, rng, "random")
    return np.stack([a, a2]), np.stack([b, b2])


@pytest.mark.parametrize("p", [2, 3, 65521, MAX_MODULUS])
@pytest.mark.parametrize("left", ["3-D", "2-D"])
def test_stacked_products_at_the_split_chunk(p, left):
    """The trial engine's products: stacked blocks, or C alone, against two stacked instances."""
    rng = np.random.default_rng(p + 3)
    chunk = matrix._SPLIT_CHUNK
    for inner in (chunk - 1, chunk, chunk + 1):
        a, b = stacked_operands(p, 3, inner, 1, rng)
        if left == "2-D":
            a = a[1]
        out = matrix._apply(matrix._prepare(a, p), b, p)
        assert out.dtype == np.int64 and out.shape == (2, 3, 1)
        for s in range(2):
            expected = int64_matmul(a[s] if a.ndim == 3 else a, b[s], p)
            assert np.array_equal(out[s], expected), (inner, s)


@pytest.mark.parametrize("p", [3, 65521, MAX_MODULUS])
def test_stacked_products_on_each_side_of_the_reduction_size_rule(p):
    """Below _REDUCE_BY_DIVISION entries a reduction takes %, from there on x - x // p * p."""
    rng = np.random.default_rng(p + 4)
    size = matrix._REDUCE_BY_DIVISION
    x = rng.integers(0, 2**62, size=size)
    x[:3] = 0, p - 1, 2**62 - 1
    for y in (x[1:], x, np.repeat(x, 2)[::2]):  # one entry fewer, then as many, then strided
        kept = y.copy()
        assert np.array_equal(matrix._reduce(y, p), kept % p) and np.array_equal(y, kept)
    for t in (size // 4 - 1, size // 4):  # 2 x 2 x t entries: 4 fewer than the rule, then as many
        a, b = stacked_operands(p, 2, 40, t, rng)
        out = matrix._apply(matrix._prepare(a, p), b, p)
        for s in range(2):
            assert np.array_equal(out[s], int64_matmul(a[s], b[s], p)), t


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(0, 0, 0), (0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 4), (4, 0, 0)])
def test_zero_size_products(p, shape):
    rows, inner, cols = shape
    out = _mod_matmul(np.zeros((rows, inner), dtype=np.int64),
                      np.zeros((inner, cols), dtype=np.int64), p)
    assert out.dtype == np.int64
    assert out.shape == (rows, cols)
    assert not out.any()


@pytest.mark.parametrize("p", PRIMES)
def test_large_products_match_the_int64_kernel(p):
    rng = np.random.default_rng(p + 1)
    for rows, inner, cols in [(256, 256, 256), (64, 255, 129), (1, 256, 1), (255, 1, 17)]:
        for fill in ("max", "odd", "random"):
            a, b = operands(p, rows, inner, cols, rng, fill)
            out = _mod_matmul(a, b, p)
            assert out.dtype == np.int64
            assert np.array_equal(out, int64_matmul(a, b, p)), (rows, inner, cols, fill)


HYPOTHESIS_PRIMES = (2, 3, 5, 13, 101, 8191, 65521, 65537, 16777213, 67108859,
                     67108879, 2**30 + 3, MAX_MODULUS)


@st.composite
def products(draw):
    p = draw(st.sampled_from(HYPOTHESIS_PRIMES))
    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
    entries = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1]))
    a = [[draw(entries) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entries) for _ in range(cols)] for _ in range(inner)]
    return p, a, b, (rows, inner, cols)


@settings(max_examples=300, deadline=None)
@given(products())
def test_product_matches_the_oracle(case):
    p, a, b, (rows, inner, cols) = case
    out = _mod_matmul(np.array(a, dtype=np.int64).reshape(rows, inner),
                      np.array(b, dtype=np.int64).reshape(inner, cols), p)
    expected = matmul(a, b, p) if inner else [[0] * cols for _ in range(rows)]
    assert out.tolist() == expected


# -- batch inverses ---------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_residues_match_pow(p):
    rng = np.random.default_rng(p)
    for shape in [(0,), (1,), (2,), (3,), (7,), (2, 0), (5, 3), (64, 33), (1025,)]:
        x = rng.integers(1, p, size=shape)
        got = inverse_residues(x, p)
        assert got.dtype == np.int64 and got.shape == shape
        assert got.ravel().tolist() == [pow(v, -1, p) for v in x.ravel().tolist()]


def test_inverse_residues_reject_zero():
    with pytest.raises(ValueError):
        inverse_residues(np.array([3, 0, 2]), 5)


# -- the row reduction ----------------------------------------------------------

SIZES = (0, 1, B - 1, B, B + 1, 2 * B + 1, 255, 256)


def random_invertible(p, n, rng):
    while True:
        a = rng.integers(0, p, size=(n, n))
        if unblocked_rank(a, p) == n:
            return a


@pytest.mark.parametrize("p", [101, 65521, MAX_MODULUS])
@pytest.mark.parametrize("n", SIZES)
def test_inverse_and_rank_at_panel_boundaries(p, n):
    rng = np.random.default_rng(n)
    a = random_invertible(p, n, rng)
    field = PrimeField(p)
    inv = FieldMatrix(field, a).inverse()
    if n <= 4:
        assert inv.array.tolist() == (adjugate_inverse(a.tolist(), p) if n else [])
    assert FieldMatrix(field, a) @ inv == FieldMatrix.identity(field, n)
    for shape in [(n, n), (2 * n, n), (n, 2 * n), (n + 3, n // 2)]:
        m = rng.integers(0, p, size=shape)
        assert FieldMatrix(field, m).rank() == unblocked_rank(m, p), shape


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_narrow_panels_against_the_adjugate(p, seed):
    """Small inverses, singular cases and ranks at tiny p, three random rounds each."""
    rng = np.random.default_rng(seed * 100 + p)
    field = PrimeField(p)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a = rng.integers(0, p, size=(n, n))
        expected = adjugate_inverse(a.tolist(), p)
        if expected is None:
            with pytest.raises(SingularMatrixError, match=rf"^matrix is singular over GF\({p}\)$"):
                FieldMatrix(field, a).inverse()
        else:
            assert FieldMatrix(field, a).inverse().array.tolist() == expected
        rows, cols = (int(x) for x in rng.integers(0, 8, size=2))
        m = rng.integers(0, p, size=(rows, cols))
        assert FieldMatrix(field, m).rank() == unblocked_rank(m, p)


def deficient_matrices(p, n, rng):
    """n x n matrices whose rank falls short in one panel or another."""
    base = random_invertible(p, n, rng)
    late = base.copy()
    late[:, -1] = (late[:, 0] + 3 * late[:, B + 1]) % p  # singular only in the last panel
    zero_col = base.copy()
    zero_col[:, B + B // 2] = 0
    repeated = base.copy()
    repeated[n - 1] = repeated[1]
    repeated[B + 2] = repeated[0]
    zero_panel = base.copy()
    zero_panel[:, B:2 * B] = 0
    return {"late": late, "zero-column": zero_col, "repeated-rows": repeated,
            "zero-panel": zero_panel}


@pytest.mark.parametrize("p", [101, MAX_MODULUS])
def test_rank_deficient_panels(p):
    n = 2 * B + 1
    rng = np.random.default_rng(p)
    field = PrimeField(p)
    matrices = deficient_matrices(p, n, rng)
    assert unblocked_rank(matrices["late"][:, :2 * B], p) == 2 * B
    for name, a in matrices.items():
        rank = unblocked_rank(a, p)
        assert rank < n, name
        assert FieldMatrix(field, a).rank() == rank, name
        assert FieldMatrix(field, a.T.copy()).rank() == rank, name
        tall = np.vstack([a, a[:5]])
        assert FieldMatrix(field, tall).rank() == rank, name
        with pytest.raises(SingularMatrixError, match=rf"^matrix is singular over GF\({p}\)$"):
            FieldMatrix(field, a).inverse()


@pytest.mark.parametrize("p", [65521, MAX_MODULUS])
@pytest.mark.parametrize("n,l", [(2 * B + 3, 20), (256, 64)])
def test_channel_matrices_reduce_like_the_unblocked_loops(p, n, l):
    """The construction proves every rank here, so the ranks are known exactly.

    G is SSO and M H = I, so G, G^T, M and M^T have rank N; [G H] and Qu
    are invertible.
    """
    field = PrimeField(p)
    system = build_qcsa_system(QcsaParams.default(field, n, l))
    g, h, m = system.box.G, system.box.H, system.box.M
    gh = hstack([g, h])
    for mat in (g, g.T, m, m.T):
        assert mat.rank() == n
    assert gh.rank() == 2 * n
    assert gh @ gh.inverse() == FieldMatrix.identity(field, 2 * n)
    assert system.qu @ system.qu.inverse() == FieldMatrix.identity(field, n)
