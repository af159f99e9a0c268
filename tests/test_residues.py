"""Differential tests of the vectorised residue coercion.

``loop_as_residue_vector`` is the per-element loop the package used while
it still had a scalar element type, minus the branch for that type; the
numpy version must agree with it exactly wherever the loop accepts input.
The matrix operations that skip the copy and reduction of the public
constructor, and ``json_ints`` on int64 arrays, are held to the same
standard here.  Where the loop's ``int`` would truncate a float or parse a
string, every entry point raises TypeError instead.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qcsa.codes import GrsSpec, QcsaParams, csa_matrix, dual_multipliers
from qcsa.field import MAX_MODULUS, PrimeField, next_prime
from qcsa.matrix import (
    FieldMatrix,
    Permutation,
    SingularMatrixError,
    as_residue_vector,
    block_diag,
    hstack,
    json_ints,
)
from qcsa.scheme import SchemeInstance, classical_decode, server_scale

SETTINGS = settings(max_examples=200, deadline=None)


def loop_as_residue_vector(field, values, length=None):
    items = list(values)
    arr = np.array([int(x) for x in items], dtype=np.int64) % field.p
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"expected a vector of length {length}, got {arr.shape[0]}")
    return arr


fields = st.one_of(
    st.sampled_from([2, 3, 5, 13, 65521, MAX_MODULUS]),
    st.integers(2, MAX_MODULUS).map(next_prime),
).map(PrimeField)
int_lists = st.lists(st.integers(-2**62, 2**62 - 1), max_size=40)
int64_arrays = hnp.arrays(np.int64, st.integers(0, 40))


def assert_same(field, values, length=None):
    expected = loop_as_residue_vector(field, values, length)
    got = as_residue_vector(field, values, length)
    assert got.dtype == expected.dtype == np.int64
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    return got


@SETTINGS
@given(fields, st.one_of(int_lists, int64_arrays))
def test_coercion_matches_the_loop(field, values):
    got = assert_same(field, values)
    assert got.ndim == 1 and (got.size == 0 or (got.min() >= 0 and got.max() < field.p))


@SETTINGS
@given(fields, int64_arrays)
def test_coercion_never_aliases_its_input(field, values):
    before = values.copy()
    got = as_residue_vector(field, values)
    got[...] = 0
    assert np.array_equal(values, before)


@pytest.mark.parametrize("values", [[], (), np.zeros(0, dtype=np.int64)], ids=["list", "tuple", "array"])
def test_empty_input(values):
    got = assert_same(PrimeField(7), values, 0)
    assert got.shape == (0,)


@SETTINGS
@given(fields, int_lists, st.integers(0, 41))
def test_length_check_matches_the_loop(field, values, length):
    if length == len(values):
        assert_same(field, values, length)
        return
    for coerce in (loop_as_residue_vector, as_residue_vector):
        with pytest.raises(ValueError, match=f"length {length}, got {len(values)}"):
            coerce(field, values, length)


@SETTINGS
@given(fields, st.integers(1, 5), st.integers(2, 5), st.data())
def test_two_dimensional_input_is_rejected(field, rows, cols, data):
    values = data.draw(hnp.arrays(np.int64, (rows, cols)))
    for nested in (values, values.tolist()):
        with pytest.raises((TypeError, ValueError)):
            loop_as_residue_vector(field, nested)
        with pytest.raises(ValueError, match="1-D"):
            as_residue_vector(field, nested)


@pytest.mark.parametrize("values", [5, np.int64(5), [[1]], np.ones((1, 1), dtype=np.int64)])
def test_non_vectors_are_rejected(values):
    with pytest.raises(ValueError, match="1-D"):
        as_residue_vector(PrimeField(7), values)


@SETTINGS
@given(fields, st.integers(0, 6), st.integers(0, 6), st.data())
def test_matrix_dict_round_trip(field, rows, cols, data):
    m = FieldMatrix(field, data.draw(hnp.arrays(np.int64, (rows, cols))))
    doc = m.to_dict()
    assert all(type(x) is int for x in doc["data"])
    assert FieldMatrix.from_dict(doc) == m


def assert_canonical(field, m):
    """m's array is read-only canonical int64, as FieldMatrix(field, that array) would hold."""
    arr = m.array
    assert arr.dtype == np.int64 and arr.ndim == 2 and not arr.flags.writeable
    assert arr.size == 0 or (arr.min() >= 0 and arr.max() < field.p)
    assert FieldMatrix(field, arr) == m


@SETTINGS
@given(fields, st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_every_operation_gives_a_canonical_read_only_array(field, rows, inner, cols, data):
    a = FieldMatrix(field, data.draw(hnp.arrays(np.int64, (rows, inner))))
    b = FieldMatrix(field, data.draw(hnp.arrays(np.int64, (inner, cols))))
    picks = st.lists(st.integers(0, 9), max_size=6)
    results = [
        a @ b, a.T, a[1:, ::2], block_diag([a, b]), hstack([a, a]),
        FieldMatrix.zeros(field, rows, cols), FieldMatrix.identity(field, inner),
        FieldMatrix.from_dict(a.to_dict()),
        # the int64-array form that the bundle reader gives for a long list
        FieldMatrix.from_dict({**a.to_dict(), "data": a.array.ravel()}),
    ]
    if rows:
        results.append(a.take_rows([i % rows for i in data.draw(picks)]))
    if inner:
        results.append(a.take_columns([i % inner for i in data.draw(picks)]))
    if rows == inner:
        try:
            results.append(a.inverse())
        except SingularMatrixError:
            pass
    for m in results:
        assert_canonical(field, m)


@SETTINGS
@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=20), st.integers(-5, 5),
       st.integers(-5, 2**64))
def test_int64_arrays_read_like_int_lists(values, lo, hi):
    """json_ints gives the same array, or the same error, for a list and its int64 array."""
    outcomes = []
    for given_values in (values, np.array(values, dtype=np.int64)):
        try:
            outcomes.append(json_ints(given_values, "k", lo, hi).tolist())
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("values", [[2**63, 2**64 - 1],
                                    np.array([2**63, 2**64 - 1], dtype=np.uint64),
                                    np.array([3, 2**63], dtype=np.uint64)])
def test_entries_past_int64_overflow(values):
    # A uint64 array once went through numpy's unsafe int64 cast, which wraps
    # 2**63 to -2**63: [2**63, 2**64 - 1] read as [5, 12] mod 13.
    with pytest.raises(OverflowError):
        as_residue_vector(PrimeField(13), values)
    with pytest.raises(OverflowError):
        FieldMatrix(PrimeField(13), np.reshape(values, (1, -1)))


def test_uint64_entries_within_int64_read_as_ints():
    values = [0, 12, 13, 2**63 - 1]
    got = as_residue_vector(PrimeField(13), np.array(values, dtype=np.uint64))
    assert got.dtype == np.int64 and got.tolist() == [x % 13 for x in values]


def test_int64_arrays_are_copied():
    values = np.arange(4, dtype=np.int64)
    got = json_ints(values, "k", 0, 7)
    got[0] = 6
    assert values[0] == 0


GF13 = PrimeField(13)
N2 = QcsaParams.default(GF13, 2, 1)
# Each takes an entry x that numpy's int64 cast would read as 2.
INTEGER_INPUTS = {
    "as_residue_vector": lambda x: as_residue_vector(GF13, [0, x]),
    "FieldMatrix": lambda x: FieldMatrix(GF13, [[0, x]]),
    "FieldMatrix.matvec": lambda x: FieldMatrix.identity(GF13, 2).matvec((0, x)),
    "Permutation": lambda x: Permutation([1, x]),
    "GrsSpec": lambda x: GrsSpec(GF13, 2, 1, (0, x), (1, 1)),
    "csa_matrix": lambda x: csa_matrix(GF13, (0, x), (5,)),
    "dual_multipliers": lambda x: dual_multipliers(GF13, (0, x), (1, 1)),
    "server_scale": lambda x: server_scale(GF13, (x, 0), (0, 0), (1, 1), (1, 1)),
    "SchemeInstance.from_symbols": lambda x: SchemeInstance.from_symbols(N2, 1, (x,), (0,)),
    "classical_decode": lambda x: classical_decode((0, x), N2),
    "QcsaParams alpha": lambda x: QcsaParams(GF13, 2, 1, (0, x), (1, 1), (3,)),
    "QcsaParams N": lambda x: QcsaParams(GF13, x, 1, (0, 1), (1, 1), (3,)),
    "QcsaParams L": lambda x: QcsaParams(GF13, 4, x, (0, 1, 2, 3), (1,) * 4, (4, 5)),
}
NON_INTEGERS = [2.0, 2.5, np.float64(2), "2", Fraction(5, 2), Decimal("2.5")]


NON_INTEGER_CASES = ([(name, x) for name in INTEGER_INPUTS for x in NON_INTEGERS]
                     + [("QcsaParams N", True), ("QcsaParams L", True)])


@pytest.mark.parametrize("name,entry", NON_INTEGER_CASES,
                         ids=[f"{name}-{type(x).__name__} {x}" for name, x in NON_INTEGER_CASES])
def test_non_integer_entries_are_refused(name, entry):
    # numpy's cast once truncated floats and parsed strings, and QcsaParams
    # took N = 2.0 and wrote it to its dict as 2.0.
    with pytest.raises(TypeError, match="must be (an integer|integers), got"):
        INTEGER_INPUTS[name](entry)
