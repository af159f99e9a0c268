"""GF(p) arithmetic as the package performs it: on int64 residue arrays.

There is no scalar element type; a residue is a plain int, a vector a 1-D
int64 array and a matrix a FieldMatrix.  These tests pin the field laws on
those values, with Python's exact ``%`` and ``pow`` as the reference.
"""

import numpy as np
import pytest

from qcsa.codes import GrsSpec, grs_generator
from qcsa.field import FieldMismatchError, PrimeField, is_prime, next_prime
from qcsa.matrix import FieldMatrix, SingularMatrixError, as_residue_vector, hstack

GF5 = PrimeField(5)
GF7 = PrimeField(7)


def scalar(field, x):
    return FieldMatrix(field, [[x]])


def plus(a, b):
    """The entrywise sum mod p, from the raw residue arrays."""
    return FieldMatrix(a.field, a.array + b.array)


def test_mul_examples():
    assert (scalar(GF5, 2) @ scalar(GF5, 3))[0, 0] == 1
    assert (scalar(GF7, 3) @ scalar(GF7, 5))[0, 0] == 1
    row = FieldMatrix(GF5, [list(range(5))])
    assert row.scale_rows([1]) == row
    assert row.scale_columns([3] * 5).array.tolist() == [[0, 3, 1, 4, 2]]


def test_inverse_examples():
    assert scalar(GF5, 2).inverse()[0, 0] == 3
    assert scalar(GF5, 4).inverse()[0, 0] == 4
    assert scalar(GF7, 3).inverse()[0, 0] == 5


def test_inverse_of_zero_rejected():
    with pytest.raises(SingularMatrixError):
        scalar(GF5, 0).inverse()
    with pytest.raises(SingularMatrixError):
        FieldMatrix.diagonal(GF5, [3, 0]).inverse()


def test_pow_examples():
    # Row i of the GRS generator with unit multipliers is 1, a_i, a_i^2, ...
    gen = grs_generator(GrsSpec(GF5, 4, 4, (2, 0, 1, 3), (1,) * 4)).array.tolist()
    assert gen[0] == [1, 2, 4, 3]
    # empty-product convention: 0 ** 0 == 1
    assert gen[1] == [1, 0, 0, 0]
    assert gen[0] == [pow(2, k, 5) for k in range(4)]
    assert grs_generator(GrsSpec(GF7, 7, 7, range(7), (1,) * 7))[3, 6] == pow(3, 6, 7) == 1


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatchError):
        scalar(GF5, 2) @ scalar(GF7, 2)
    with pytest.raises(FieldMismatchError):
        hstack([scalar(GF5, 2), scalar(GF7, 2)])


def test_canonical_representation():
    assert as_residue_vector(GF5, [7, -1, 2]).tolist() == [2, 4, 2]
    assert scalar(GF5, 7) == scalar(GF5, 2)
    assert PrimeField(5) == GF5 and hash(PrimeField(5)) == hash(GF5)
    assert PrimeField(5) != GF7


def test_int_operands_coerce():
    # Python ints, numpy integers and int64 arrays all reduce the same way.
    expected = [2, 4, 0]
    assert as_residue_vector(GF5, [7, -1, 5]).tolist() == expected
    assert as_residue_vector(GF5, np.array([7, -1, 5], dtype=np.int64)).tolist() == expected
    assert as_residue_vector(GF5, (np.int64(7), -1, np.int32(5))).tolist() == expected
    assert FieldMatrix(GF5, [[3]]).matvec([4]).tolist() == [2]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_fermat_over_whole_field(p):
    field = PrimeField(p)
    nonzero = list(range(1, p))
    inv = FieldMatrix.diagonal(field, nonzero).inverse()
    assert inv == FieldMatrix.diagonal(field, [pow(a, p - 2, p) for a in nonzero])
    assert inv == FieldMatrix.diagonal(field, [pow(a, -1, p) for a in nonzero])


def test_ring_axioms_on_random_triples():
    rng = np.random.default_rng(20240304)
    for field in (GF5, GF7, PrimeField(31)):
        for _ in range(50):
            a, b, c = (FieldMatrix(field, rng.integers(0, field.p, size=(3, 3)))
                       for _ in range(3))
            da, db = (FieldMatrix.diagonal(field, rng.integers(0, field.p, size=3))
                      for _ in range(2))
            assert plus(a, b) == plus(b, a)
            assert da @ db == db @ da
            assert plus(plus(a, b), c) == plus(a, plus(b, c))
            assert (a @ b) @ c == a @ (b @ c)
            assert a @ plus(b, c) == plus(a @ b, a @ c)


def test_modulus_validation():
    for bad in (0, 1, -7, 4, 9, 2**31):
        with pytest.raises((ValueError, TypeError)):
            PrimeField(bad)
    with pytest.raises(TypeError):
        PrimeField(5.0)
    assert PrimeField(2).p == 2
    assert PrimeField(2**31 - 1).p == 2**31 - 1  # largest supported modulus


def test_is_prime_and_next_prime():
    primes_below_30 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [n for n in range(30) if is_prime(n)] == primes_below_30
    assert next_prime(4) == 5
    assert next_prime(13) == 13
    assert next_prime(14) == 17
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)


def test_element_serializes_as_plain_int():
    m = FieldMatrix(GF7, [[6, 13]])
    assert m[0, 0] == 6 and type(m[0, 0]) is int
    assert all(type(x) is int for x in m.to_dict()["data"])


def test_repr_is_informative():
    assert "5" in repr(GF5)
    assert repr(scalar(GF7, 9)) == "FieldMatrix(GF(7), [[2]])"
