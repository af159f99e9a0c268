import itertools

import numpy as np
import pytest

from qcsa.field import FieldMismatchError, PrimeField
from qcsa.matrix import (
    FieldMatrix,
    Permutation,
    SingularMatrixError,
    block_diag,
    hstack,
)

from oracles import adjugate_inverse, matmul, permutation_entries

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


def random_matrix(field, rows, cols, rng):
    return FieldMatrix(field, rng.integers(0, field.p, size=(rows, cols)))


def permutation_matrix(field, perm):
    """The oracle's permutation matrix of ``perm``, as a FieldMatrix."""
    return FieldMatrix(field, permutation_entries(perm.image))


def random_invertible(field, n, rng):
    while True:
        m = random_matrix(field, n, n, rng)
        if m.rank() == n:
            return m


def test_matmul_identity_and_zero():
    rng = np.random.default_rng(1)
    a = random_matrix(GF5, 3, 4, rng)
    assert FieldMatrix.identity(GF5, 3) @ a == a
    assert a @ FieldMatrix.zeros(GF5, 4, 2) == FieldMatrix.zeros(GF5, 3, 2)


def test_matmul_frozen_example():
    a = FieldMatrix(GF5, [[3, 1], [1, 1]])
    b = FieldMatrix(GF5, [[3, 2], [2, 4]])
    assert a @ b == FieldMatrix.identity(GF5, 2)
    # same product through the schoolbook oracle
    assert matmul([[3, 1], [1, 1]], [[3, 2], [2, 4]], 5) == [[1, 0], [0, 1]]


def test_matmul_rejects_mismatches():
    a = FieldMatrix(GF5, [[1, 2]])
    with pytest.raises(ValueError):
        a @ FieldMatrix(GF5, [[1, 2]])
    with pytest.raises(FieldMismatchError):
        a @ FieldMatrix(GF3, [[1], [2]])


def test_matmul_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(2)
    for field in (GF3, GF5, PrimeField(31)):
        for _ in range(20):
            r, k, c = rng.integers(1, 6, size=3)
            a = random_matrix(field, int(r), int(k), rng)
            b = random_matrix(field, int(k), int(c), rng)
            expected = matmul(a.array.tolist(), b.array.tolist(), field.p)
            assert (a @ b).array.tolist() == expected


def test_matmul_large_modulus_chunking():
    # at 2**31 - 1 a single product leaves float64's exact range, so this
    # runs the split of the left operand into limbs
    field = PrimeField(2**31 - 1)
    rng = np.random.default_rng(3)
    a = FieldMatrix(field, rng.integers(0, field.p, size=(4, 40)))
    b = FieldMatrix(field, rng.integers(0, field.p, size=(40, 3)))
    expected = matmul(a.array.tolist(), b.array.tolist(), field.p)
    assert (a @ b).array.tolist() == expected


def test_inverse_examples():
    assert FieldMatrix.identity(GF5, 4).inverse() == FieldMatrix.identity(GF5, 4)
    a = FieldMatrix(GF5, [[3, 1], [1, 1]])
    assert a.inverse() == FieldMatrix(GF5, [[3, 2], [2, 4]])


def test_inverse_of_repeated_row_is_singular():
    with pytest.raises(SingularMatrixError):
        FieldMatrix(GF5, [[1, 2, 3], [4, 0, 1], [1, 2, 3]]).inverse()


def test_inverse_requires_square():
    with pytest.raises(ValueError):
        FieldMatrix(GF5, [[1, 2, 3], [4, 0, 1]]).inverse()


@pytest.mark.parametrize("p", [5, 7, 31])
def test_inverse_on_random_invertible_matrices(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    identity_cache = {}
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = random_invertible(field, n, rng)
        eye = identity_cache.setdefault(n, FieldMatrix.identity(field, n))
        assert a.inverse() @ a == eye
        assert a @ a.inverse() == eye


@pytest.mark.parametrize("field", [GF2, GF3])
@pytest.mark.parametrize("n", [2, 3])
def test_inverse_exhaustive_against_adjugate(field, n):
    p = field.p
    for flat in itertools.product(range(p), repeat=n * n):
        entries = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        expected = adjugate_inverse(entries, p)
        m = FieldMatrix(field, entries)
        if expected is None:
            with pytest.raises(SingularMatrixError):
                m.inverse()
        else:
            assert m.inverse().array.tolist() == expected


def test_rank_examples():
    assert FieldMatrix.zeros(GF5, 3, 3).rank() == 0
    assert FieldMatrix.identity(GF5, 4).rank() == 4
    assert FieldMatrix(GF5, [[1, 2], [2, 4]]).rank() == 1


def test_rank_invariance():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rows, cols = (int(x) for x in rng.integers(1, 7, size=2))
        a = random_matrix(GF5, rows, cols, rng)
        r = a.rank()
        pr = Permutation(rng.permutation(rows) + 1)
        pc = Permutation(rng.permutation(cols) + 1)
        assert (permutation_matrix(GF5, pr) @ a).rank() == r
        assert (a @ permutation_matrix(GF5, pc)).rank() == r
        m = random_invertible(GF5, rows, rng)
        assert (m @ a).rank() == r


def test_block_diag_examples():
    eye1 = FieldMatrix.identity(GF5, 1)
    assert block_diag([eye1, eye1]) == FieldMatrix.identity(GF5, 2)
    rng = np.random.default_rng(23)
    a = random_matrix(GF5, 2, 3, rng)
    assert block_diag([a]) == a
    b = random_matrix(GF5, 3, 2, rng)
    assembled = block_diag([a, b])
    assert assembled.shape == (5, 5)
    assert assembled.rank() == a.rank() + b.rank()
    # off-diagonal blocks are zero
    assert not assembled.array[:2, 3:].any()
    assert not assembled.array[2:, :3].any()


def test_block_diag_absorbs_empty_blocks():
    a = FieldMatrix(GF5, [[1, 2], [3, 4]])
    empty = FieldMatrix.zeros(GF5, 0, 0)
    wide_empty = FieldMatrix.zeros(GF5, 2, 0)
    assert block_diag([empty, a, empty]) == a
    assembled = block_diag([wide_empty, a])
    assert assembled.shape == (4, 2)
    assert assembled.take_rows([2, 3]) == a


def test_zero_size_matmul():
    a = FieldMatrix.zeros(GF5, 3, 0)
    b = FieldMatrix.zeros(GF5, 0, 2)
    assert (a @ b) == FieldMatrix.zeros(GF5, 3, 2)
    assert FieldMatrix.identity(GF5, 0).inverse() == FieldMatrix.identity(GF5, 0)


def test_permutation_matrix_examples():
    assert permutation_matrix(GF5, Permutation((1, 2, 3))) == FieldMatrix.identity(GF5, 3)
    swap = permutation_matrix(GF5, Permutation((2, 1)))
    assert swap == FieldMatrix(GF5, [[0, 1], [1, 0]])


def test_permutation_matrix_gathers_columns():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        a = random_matrix(GF5, int(rng.integers(1, 5)), n, rng)
        pi = Permutation(rng.permutation(n) + 1)
        permuted = a @ permutation_matrix(GF5, pi)
        for j in range(n):
            assert permuted.take_columns([j]) == a.take_columns([pi.image[j] - 1])


def test_permutation_transpose_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        pi = Permutation(rng.permutation(n) + 1)
        p_mat = permutation_matrix(GF5, pi)
        inverse = Permutation(np.argsort(pi.image) + 1)
        assert p_mat.T == permutation_matrix(GF5, inverse)
        assert p_mat @ p_mat.T == FieldMatrix.identity(GF5, n)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 3))


def test_stacking():
    a = FieldMatrix(GF5, [[1, 2]])
    b = FieldMatrix(GF5, [[3, 4]])
    assert hstack([a.T, b.T]) == FieldMatrix(GF5, [[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        hstack([a, FieldMatrix(GF5, [[1], [2]])])


def test_entries_are_canonical_and_immutable():
    m = FieldMatrix(GF5, [[7, -1], [10, 4]])
    assert m.array.tolist() == [[2, 4], [0, 4]]
    with pytest.raises(ValueError):
        m.array[0, 0] = 3
    assert m[0, 1] == 4 and type(m[0, 1]) is int


def test_scalar_and_slice_access():
    m = FieldMatrix(GF5, [[1, 2, 3], [4, 0, 1]])
    assert int(m[1, 0]) == 4
    assert m[:, 1:] == FieldMatrix(GF5, [[2, 3], [0, 1]])
    with pytest.raises(TypeError):
        m[0]


def test_serialization_round_trip():
    m = FieldMatrix(GF5, [[1, 2], [3, 4], [0, 0]])
    doc = m.to_dict()
    assert doc == {"p": 5, "rows": 3, "cols": 2, "data": [1, 2, 3, 4, 0, 0]}
    assert FieldMatrix.from_dict(doc) == m
    pi = Permutation((3, 1, 2))
    assert Permutation.from_dict(pi.to_dict()) == pi
