"""Dense exact linear algebra over GF(p).

A :class:`FieldMatrix` wraps a read-only numpy int64 array of canonical
residues together with its :class:`~qcsa.field.PrimeField`; a vector is a
plain 1-D int64 residue array (:func:`as_residue_vector`) and a single
entry a plain ``int``.

Every product runs on float64 BLAS and stays exact.  A float64 sum of
nonnegative integers is exact below 2**53, so when the inner dimension k
satisfies k * (p-1)**2 < 2**53 one float64 product does.  Otherwise only the
left operand splits, into 11-, 11- and 9-bit limbs (p < 2**31) stacked as
one 3m x k array; its float64 product with b, per inner chunk of c = 2**11
columns, stays below c * 2**11 * p <= 2**53, and the row blocks recombine
as r0 + (r1 mod p) * 2**11 + (r2 mod p) * 2**22 in int64.  ``_prepare``
splits once what ``_apply`` multiplies, as the trial engine does C and M_Q.

Inverse and rank share one Gauss-Jordan row reduction, a single unblocked
pass with one rank-one update per pivot.  No command runs it on a valid
bundle: the CSA inverse has a closed form (``codes._csa_inverse``).  The
pivot rule is fixed (first nonzero entry in column order), so inverses,
ranks and error cases are deterministic.

Shapes with zero rows or zero columns are legal values throughout: the
channel construction produces identity blocks whose width can vanish, and
block assembly must absorb them silently.
"""

import numpy as np

from .field import FieldMismatchError, PrimeField

_F64_EXACT = 2**53
_SPLIT_BITS = 11
_SPLIT_CHUNK = 2**11  # the largest c with c * 2**11 * (p-1) <= 2**53 at p = 2**31 - 1


class SingularMatrixError(ArithmeticError):
    """Square matrix with rank below its size; no inverse exists."""


def _prepare(a: np.ndarray, p: int) -> np.ndarray:
    """``_apply``'s float64 left operand: residues ``a`` themselves, or their limbs, 3m x k."""
    if a.shape[1] * (p - 1) ** 2 < _F64_EXACT:
        return a.astype(np.float64)
    left = np.empty((3,) + a.shape)  # filled a limb at a time: one int64 temporary at a time
    for i, limb in enumerate(left):
        np.bitwise_and(a >> i * _SPLIT_BITS, (1 << _SPLIT_BITS) - 1, out=limb)
    return left.reshape(-1, a.shape[1])


def _apply(left: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for ``left = _prepare(a, p)`` and residues ``b``."""
    inner = left.shape[1]
    if inner * (p - 1) ** 2 < _F64_EXACT:
        return np.matmul(left, b, dtype=np.float64).astype(np.int64) % p
    m, c, bits, out = left.shape[0] // 3, _SPLIT_CHUNK, _SPLIT_BITS, 0
    for k in range(0, inner, c):
        r = np.matmul(left[:, k:k + c], b[k:k + c], dtype=np.float64).astype(np.int64)
        out = (out + r[:m] + (r[m:2 * m] % p << bits) + (r[2 * m:] % p << 2 * bits)) % p
    return out


def _mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p for residue arrays, on float64 BLAS products."""
    return _apply(_prepare(a, p), b, p)


def _eliminate(a: np.ndarray, p: int, stop: int) -> list:
    """Reduced row echelon form of ``a`` in place, pivoting on columns [0, stop).

    The pivot of each column is its first nonzero entry at or below the
    next pivot row.  Returns the pivot columns, in order.
    """
    rows = a.shape[0]
    pivots = []
    for col in range(stop):
        r = len(pivots)
        if r == rows:
            break
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        # Row r is zero left of col, so the update only needs columns col on.
        tail = a[:, col:]
        tail[r] = tail[r] * pow(int(tail[r, 0]), -1, p) % p
        factors = tail[:, 0].copy()
        factors[r] = 0
        tail -= np.outer(factors, tail[r])
        tail %= p
        pivots.append(col)
    return pivots


def _integers(values) -> np.ndarray:
    """``values`` as int64; a non-integer entry is a TypeError, one past int64 an OverflowError."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":
        for x in np.asarray(values, dtype=object).flat:
            if not isinstance(x, (int, np.integer)):
                raise TypeError(f"entries must be integers, got {x!r}")
    elif arr.dtype == np.uint64 and arr.size and int(arr.max()) >= 2**63:  # the cast would wrap
        raise OverflowError(f"entries must fit in int64, got {int(arr.max())}")
    return np.asarray(values, dtype=np.int64)


def as_residue_vector(field: PrimeField, values, length: int | None = None) -> np.ndarray:
    """A fresh 1-D int64 array of the canonical residues of ``values``."""
    arr = _integers(values)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={arr.ndim}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"expected a vector of length {length}, got {arr.shape[0]}")
    return arr % field.p


def inverse_residues(values: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverses of nonzero residues with one ``pow`` (Montgomery's trick).

    A product tree multiplies neighbours level by level up to a single
    product, the only value inverted directly; on the way back down each
    entry's inverse is its parent's inverse times its sibling.  A zero
    entry makes that product zero, and ``pow`` raises ValueError.
    """
    level = np.asarray(values, dtype=np.int64).ravel() % p
    levels = []
    while level.size > 1:
        if level.size % 2:
            level = np.append(level, 1)
        levels.append(level)
        level = level[0::2] * level[1::2] % p
    inv = np.array([pow(x, -1, p) for x in level.tolist()], dtype=np.int64)
    for level in reversed(levels):
        inv = inv[:level.size // 2]
        down = np.empty_like(level)
        down[0::2] = inv * level[1::2] % p
        down[1::2] = inv * level[0::2] % p
        inv = down
    return inv[:np.size(values)].reshape(np.shape(values))


def json_int(value, key: str) -> int:
    """A JSON integer, as is; bools, floats and everything else are rejected."""
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def json_ints(values, key: str, lo: int, hi: int) -> np.ndarray:
    """A JSON list of integers in [lo, hi), as a fresh int64 array.

    The list may also come already read as a 1-D int64 array (the CLI's
    bundle reader gives one); then only the range is checked.  For a list
    the type pass comes first because numpy would accept what JSON must
    not: ``np.array([1, True])`` is int64 ``[1, 1]``; an entry past int64
    fails the conversion itself.  Both forms then share one range check on
    the array, and a failure is located entry by entry in the list (an
    array's ``tolist``), so the error names the first bad one.
    """
    hi = min(hi, 2**63)  # every entry must fit in int64 as well
    arr = None
    if isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1:
        arr = values.copy()
    elif not isinstance(values, list):
        raise ValueError(f"{key} must be a list, got {type(values).__name__}")
    elif set(map(type, values)) <= {int}:
        try:
            arr = np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    if arr is not None and (not arr.size or (lo <= arr.min() and arr.max() < hi)):
        return arr
    values = values.tolist() if isinstance(values, np.ndarray) else values
    i = next(i for i, x in enumerate(values) if type(x) is not int or not lo <= x < hi)
    raise ValueError(f"{key}[{i}] must be an integer in [{lo}, {hi}), got {values[i]!r}")


class FieldMatrix:
    """Immutable dense matrix over GF(p)."""

    __slots__ = ("field", "_data")

    def __init__(self, field: PrimeField, data):
        arr = _integers(data) % field.p  # a new array: _integers may return ``data`` itself
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-D, got ndim={arr.ndim}")
        arr.flags.writeable = False
        self.field = field
        self._data = arr

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_canonical(cls, field: PrimeField, arr: np.ndarray) -> "FieldMatrix":
        """A matrix on ``arr`` itself, with no copy and no reduction.

        Only for a 2-D int64 array of residues already in [0, p) that no
        one will write: a fresh result, or a view of an immutable matrix.
        """
        arr.flags.writeable = False
        mat = object.__new__(cls)
        mat.field = field
        mat._data = arr
        return mat

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "FieldMatrix":
        return cls._from_canonical(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FieldMatrix":
        return cls._from_canonical(field, np.eye(n, dtype=np.int64))

    @classmethod
    def diagonal(cls, field: PrimeField, entries) -> "FieldMatrix":
        vec = as_residue_vector(field, entries)
        return cls(field, np.diag(vec))

    @classmethod
    def from_dict(cls, doc: dict) -> "FieldMatrix":
        """Strict inverse of :meth:`to_dict`: entries must be canonical residues."""
        field = PrimeField(json_int(doc["p"], "p"))
        rows, cols = json_int(doc["rows"], "rows"), json_int(doc["cols"], "cols")
        data = json_ints(doc["data"], "data", 0, field.p)
        if rows < 0 or cols < 0 or len(data) != rows * cols:
            raise ValueError(f"data has {len(data)} entries, not rows x cols = {rows} x {cols}")
        return cls._from_canonical(field, data.reshape(rows, cols))

    # -- basic properties ----------------------------------------------

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple:
        return self._data.shape

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the underlying residue array."""
        return self._data

    def is_zero(self) -> bool:
        return not self._data.any()

    # -- arithmetic -----------------------------------------------------

    def _check_field(self, other: "FieldMatrix") -> None:
        if self.field.p != other.field.p:
            raise FieldMismatchError(
                f"mixing GF({self.field.p}) and GF({other.field.p}) matrices"
            )

    def __matmul__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        self._check_field(other)
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.shape} by {other.shape}: inner dimensions differ"
            )
        product = _mod_matmul(self._data, other._data, self.field.p)
        return FieldMatrix._from_canonical(self.field, product)

    def scale_rows(self, values) -> "FieldMatrix":
        """Diag(values) @ self, without forming the diagonal matrix."""
        vec = as_residue_vector(self.field, values, self.rows)
        return FieldMatrix(self.field, vec[:, None] * self._data)

    def scale_columns(self, values) -> "FieldMatrix":
        """self @ Diag(values), without forming the diagonal matrix."""
        vec = as_residue_vector(self.field, values, self.cols)
        return FieldMatrix(self.field, self._data * vec)

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix._from_canonical(self.field, self._data.T)

    T = property(transpose)

    def matvec(self, values) -> np.ndarray:
        """Multiply by a vector of residues; returns a 1-D int64 array."""
        vec = as_residue_vector(self.field, values, self.cols)
        return _mod_matmul(self._data, vec.reshape(-1, 1), self.field.p).ravel()

    # -- indexing and assembly -------------------------------------------

    def __getitem__(self, key):
        """m[i, j] is the residue as a Python int; a 2-D slice is a FieldMatrix."""
        sub = self._data[key]
        if isinstance(sub, np.integer):
            return int(sub)
        if sub.ndim != 2:
            raise TypeError("only (i, j) scalar access or 2-D slices are supported")
        return FieldMatrix._from_canonical(self.field, sub)

    def take_rows(self, indices) -> "FieldMatrix":
        rows = np.asarray(list(indices), dtype=np.int64)
        return FieldMatrix._from_canonical(self.field, self._data[rows, :])

    def take_columns(self, indices) -> "FieldMatrix":
        cols = np.asarray(list(indices), dtype=np.int64)
        return FieldMatrix._from_canonical(self.field, self._data[:, cols])

    # -- elimination kernels ----------------------------------------------

    def inverse(self) -> "FieldMatrix":
        """Gauss-Jordan inverse with the first-nonzero pivot rule."""
        if self.rows != self.cols:
            raise ValueError(f"only square matrices can be inverted, got {self.shape}")
        n, p = self.rows, self.field.p
        aug = np.hstack([self._data, np.eye(n, dtype=np.int64)])
        if len(_eliminate(aug, p, n)) < n:
            raise SingularMatrixError(f"matrix is singular over GF({p})")
        # A copy, so the inverse does not keep the n x 2n work array alive.
        return FieldMatrix._from_canonical(self.field, aug[:, n:].copy())

    def rank(self) -> int:
        """Pivot count of the row echelon form."""
        return len(_eliminate(self._data.copy(), self.field.p, self.cols))

    # -- comparison and serialization ---------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.field.p == other.field.p and np.array_equal(self._data, other._data)

    def to_dict(self) -> dict:
        """The entries in row-major order, as ints."""
        doc = self._doc()
        doc["data"] = doc["data"].tolist()
        return doc

    def _doc(self) -> dict:
        """:meth:`to_dict` with the entries as a flat int64 array, as ``construct`` writes them."""
        return {"p": self.field.p, "rows": self.rows, "cols": self.cols, "data": self._data.ravel()}

    def __repr__(self) -> str:
        return f"FieldMatrix(GF({self.field.p}), {self._data.tolist()})"


def hstack(matrices) -> FieldMatrix:
    mats = list(matrices)
    if not mats:
        raise ValueError("hstack needs at least one matrix")
    first = mats[0]
    for m in mats[1:]:
        first._check_field(m)
        if m.rows != first.rows:
            raise ValueError("hstack row counts differ")
    return FieldMatrix._from_canonical(first.field, np.hstack([m.array for m in mats]))


def block_diag(blocks) -> FieldMatrix:
    """Block-diagonal assembly; zero-size blocks are absorbed silently."""
    mats = list(blocks)
    if not mats:
        raise ValueError("block_diag needs at least one block")
    field = mats[0].field
    for m in mats[1:]:
        mats[0]._check_field(m)
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for m in mats:
        out[r:r + m.rows, c:c + m.cols] = m.array
        r += m.rows
        c += m.cols
    return FieldMatrix._from_canonical(field, out)


class Permutation:
    """A permutation of [1..n] in one-line notation.

    The external format is 1-based to match the usual convention for
    column permutations; ``image[j-1]`` is the image of j.
    """

    __slots__ = ("image",)

    def __init__(self, image):
        img = tuple(_integers(image).tolist())
        if sorted(img) != list(range(1, len(img) + 1)):
            raise ValueError(f"not a bijection on [1..{len(img)}]: {img}")
        self.image = img

    @property
    def n(self) -> int:
        return len(self.image)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"Permutation{self.image}"

    def to_dict(self) -> dict:
        return {"n": self.n, "image": list(self.image)}

    @classmethod
    def from_dict(cls, doc: dict) -> "Permutation":
        n = json_int(doc["n"], "n")
        perm = cls(json_ints(doc["image"], "image", 1, n + 1).tolist())
        if perm.n != n:
            raise ValueError("permutation length disagrees with its header")
        return perm
