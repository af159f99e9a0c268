"""Generator matrices for GRS codes and the CSA / QCSA matrix family.

The CSA matrix is the Cauchy-Vandermonde mixing matrix used by
cross-subspace alignment schemes: the first L columns carry the desired
symbols along Cauchy dimensions 1/(f_j - alpha_n), the remaining N - L
columns align interference along Vandermonde dimensions.  A QCSA matrix is
the same thing with each row n scaled by a nonzero beta_n, which makes its
middle Vandermonde columns a GRS generator and unlocks the dual-code
pairing the channel construction needs.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from operator import mul

import numpy as np

from .field import PrimeField
from .matrix import FieldMatrix, as_residue_vector, inverse_residues, json_int, json_ints


class ParameterError(ValueError):
    """Invalid code or scheme parameters."""


def _canonical(field: PrimeField, values) -> tuple:
    return tuple(as_residue_vector(field, values).tolist())


@dataclass(frozen=True)
class GrsSpec:
    """Parameters of an [n, k] generalized Reed-Solomon generator.

    alpha holds n pairwise distinct evaluation points and u holds n
    nonzero column multipliers; entry (i, j) of the generator is
    u_i * alpha_i**j.
    """

    field: PrimeField
    n: int
    k: int
    alpha: tuple
    u: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", _canonical(self.field, self.alpha))
        object.__setattr__(self, "u", _canonical(self.field, self.u))
        if len(self.alpha) != self.n or len(self.u) != self.n:
            raise ParameterError(
                f"expected {self.n} evaluation points and multipliers, "
                f"got {len(self.alpha)} and {len(self.u)}"
            )
        if not 0 <= self.k <= self.n:
            raise ParameterError(f"dimension k={self.k} outside [0, n={self.n}]")
        if self.n > self.field.p:
            raise ParameterError(
                f"length n={self.n} needs {self.n} distinct points but GF({self.field.p}) "
                f"has only {self.field.p}"
            )
        if len(set(self.alpha)) != self.n:
            raise ParameterError(f"evaluation points must be distinct: {self.alpha}")
        if any(x == 0 for x in self.u):
            raise ParameterError(f"multipliers must be nonzero: {self.u}")


def grs_generator(spec: GrsSpec) -> FieldMatrix:
    """The n x k generator matrix of the GRS code given by ``spec``."""
    p = spec.field.p
    alpha = np.array(spec.alpha, dtype=np.int64)
    out = np.zeros((spec.n, spec.k), dtype=np.int64)
    col = np.array(spec.u, dtype=np.int64)
    for j in range(spec.k):
        out[:, j] = col
        col = col * alpha % p
    return FieldMatrix(spec.field, out)


def dual_multipliers(field: PrimeField, alpha, u) -> tuple:
    """Column multipliers of the dual GRS code on the same points.

    For each j:  v_j = u_j**-1 * (prod over i != j of (alpha_j - alpha_i))**-1.
    With these, the [n, k] generator on (alpha, u) is exactly orthogonal to
    the [n, n-k] generator on (alpha, v) for every k.  Each factor is a
    nonzero difference of distinct points, so every v_j is nonzero.
    """
    spec = GrsSpec(field, len(alpha), 0, alpha, u)
    a = np.array(spec.alpha, dtype=np.int64)
    prod = np.array(spec.u, dtype=np.int64) * _difference_products(a, a, field.p) % field.p
    return tuple(pow(x, -1, field.p) for x in prod.tolist())


def _difference_products(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """prod_j (x_i - y_j) mod p for each i, leaving out every y_j equal to x_i.

    The differences sit in an array padded with ones to a power-of-two
    width, and neighbouring columns are multiplied until one is left.
    """
    d = np.ones((len(x), 1 << max(len(y) - 1, 0).bit_length()), dtype=np.int64)
    d[:, :len(y)] = (x[:, None] - y) % p
    d[d == 0] = 1
    while d.shape[1] > 1:
        d = d[:, 0::2] * d[:, 1::2] % p
    return d[:, 0]


def check_room(field: PrimeField, n: int, l: int) -> None:
    """Reject N + L > p, where no N + L distinct points exist, before any is built."""
    if n + l > field.p:
        raise ParameterError(f"GF({field.p}) has fewer than N + L = {n + l} elements")


def _validate_points(field: PrimeField, alpha, f) -> tuple:
    a = _canonical(field, alpha)
    ff = _canonical(field, f)
    n, l = len(a), len(ff)
    if l < 1:
        raise ParameterError("at least one desired-symbol point f is required")
    if l > n - 1:
        raise ParameterError(f"L={l} leaves no interference dimension (need L <= N-1={n - 1})")
    if len(set(a + ff)) != n + l:
        raise ParameterError(
            f"alpha and f must be {n + l} pairwise distinct elements of GF({field.p}): "
            f"alpha={a}, f={ff}"
        )
    return a, ff


def csa_matrix(field: PrimeField, alpha, f) -> FieldMatrix:
    """The N x N Cauchy-Vandermonde matrix of a classical CSA scheme.

    Row n is [1/(f_1 - alpha_n), ..., 1/(f_L - alpha_n), 1, alpha_n, ...,
    alpha_n**(N-L-1)].  Distinctness of the N + L points makes it
    invertible.  Any 1 <= L <= N-1 is accepted here; the tighter L <= N/2
    restriction only applies on the channel-construction path.
    """
    alpha, f = _validate_points(field, alpha, f)
    n, l = len(alpha), len(f)
    out = np.zeros((n, n), dtype=np.int64)
    diffs = np.array(f, dtype=np.int64)[None, :] - np.array(alpha, dtype=np.int64)[:, None]
    out[:, :l] = inverse_residues(diffs, field.p)
    out[:, l:] = grs_generator(GrsSpec(field, n, n - l, alpha, (1,) * n)).array
    return FieldMatrix(field, out)


def _csa_inverse(csa: FieldMatrix, alpha: tuple, f: tuple, tail=None) -> tuple:
    """The inverse of the CSA matrix ``csa`` of (alpha, f), in closed form, as (R Diag(F), d).

    With K = C[:, :L] and V = C[:, L:], C^{-1} = R Diag(F) Diag(d)^{-1} for
    R = [-Diag(s) K^T ; J T V^T] (Finck, Heinig & Rost, Linear Algebra Appl. 183, 1993),
    where F_n = prod_j (alpha_n - f_j), d_n = prod_{m != n} (alpha_n - alpha_m),
    s_j = prod_m (f_j - alpha_m) / prod_{i != j} (f_j - f_i), T is the
    lower-triangular Toeplitz matrix of the first N - L coefficients of the
    series prod_m (1 - alpha_m x) / prod_j (1 - f_j x), and J reverses rows.
    d stays uninverted, since the dual multipliers v = 1/(u d) take it as it is.
    With ``tail``, only the first L rows and the last ``tail`` rows of R Diag(F)
    are built, in that order, and the series stops after ``tail`` coefficients.
    """
    p, n, l = csa.field.p, len(alpha), len(f)
    tail = n - l if tail is None else tail
    # For each point z_i of alpha then f: prod (z_i - alpha_m) and prod (z_i - f_j),
    # each without the factor z_i - z_i.
    z = np.array(alpha + f, dtype=np.int64)
    to_alpha, to_f = _difference_products(z, z[:n], p), _difference_products(z, z[n:], p)
    s = to_alpha[n:] * inverse_residues(to_f[n:], p) % p
    # The series mod x**tail: the numerator's coefficients, then a division
    # by the degree-L denominator, one coefficient g_k at a time.  Row k of
    # T V^T is g_k + Diag(alpha) times row k - 1; J puts it at N - L - 1 - k.
    num, den = np.zeros(tail, dtype=np.int64), np.zeros(l + 1, dtype=np.int64)
    num[:1] = den[0] = 1
    for poly, roots in ((num, alpha), (den, f)):
        for x in roots:
            poly[1:] -= x * poly[:-1]
            poly %= p
    den, g = den[1:].tolist(), []
    row, rows = np.zeros(n, dtype=np.int64), np.empty((tail, n), dtype=np.int64)
    for k, e in enumerate(num.tolist()):
        g.append((e - sum(map(mul, den, reversed(g[max(0, k - l):])))) % p)
        row = rows[tail - 1 - k] = (g[-1] + z[:n] * row) % p
    return np.vstack([-s[:, None] * csa.array[:, :l].T % p, rows]) * to_f[:n] % p, to_alpha[:n]


@dataclass(frozen=True)
class QcsaParams:
    """Parameter bundle for one QCSA matrix / channel construction.

    N servers, L desired symbols per instance, evaluation points alpha
    (one per server), row multipliers beta (nonzero; on the channel path
    this is the free multiplier vector u), and desired-symbol points f.
    alpha and f together must be N + L distinct elements, which forces
    q >= N + L; the channel construction additionally needs L <= N/2.
    """

    field: PrimeField
    N: int
    L: int
    alpha: tuple
    beta: tuple
    f: tuple

    def __post_init__(self):
        for name in ("N", "L"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "alpha", _canonical(self.field, self.alpha))
        object.__setattr__(self, "beta", _canonical(self.field, self.beta))
        object.__setattr__(self, "f", _canonical(self.field, self.f))
        if self.N < 2:
            raise ParameterError(f"need at least 2 servers, got N={self.N}")
        if len(self.alpha) != self.N:
            raise ParameterError(f"alpha must have N={self.N} entries, got {len(self.alpha)}")
        if len(self.beta) != self.N:
            raise ParameterError(f"beta must have N={self.N} entries, got {len(self.beta)}")
        if len(self.f) != self.L:
            raise ParameterError(f"f must have L={self.L} entries, got {len(self.f)}")
        if self.L < 1:
            raise ParameterError(f"need at least one desired symbol, got L={self.L}")
        if 2 * self.L > self.N:
            raise ParameterError(f"L={self.L} exceeds N/2={self.N / 2}; not constructible")
        if any(b == 0 for b in self.beta):
            raise ParameterError(f"beta entries must be nonzero: {self.beta}")
        _validate_points(self.field, self.alpha, self.f)

    @classmethod
    def default(cls, field: PrimeField, n: int, l: int, beta=None) -> "QcsaParams":
        """Deterministic parameters: alpha_n = n-1, f_j = N+j-1, beta = 1."""
        alpha = tuple(range(n))
        f = tuple(range(n, n + l))
        if beta is None:
            beta = (1,) * n
        return cls(field, n, l, alpha, tuple(beta), f)

    @classmethod
    def random(cls, field: PrimeField, n: int, l: int, rng: "np.random.Generator") -> "QcsaParams":
        """Random distinct points and nonzero multipliers from ``rng``."""
        check_room(field, n, l)
        points = rng.choice(field.p, size=n + l, replace=False)
        beta = rng.integers(1, field.p, size=n)
        return cls(field, n, l, tuple(points[:n]), tuple(beta), tuple(points[n:]))

    def with_beta(self, beta) -> "QcsaParams":
        return replace(self, beta=_canonical(self.field, beta))

    @cached_property
    def csa(self) -> FieldMatrix:
        """The CSA matrix C of (alpha, f), built on first use and kept with these parameters."""
        return csa_matrix(self.field, self.alpha, self.f)

    @cached_property
    def csa_inverse(self) -> FieldMatrix:
        """C^{-1}, for classical decoding, built on first use and kept."""
        rows, d = _csa_inverse(self.csa, self.alpha, self.f)
        return FieldMatrix(self.field, rows * inverse_residues(d, self.field.p))

    @property
    def half_ceil(self) -> int:
        return (self.N + 1) // 2

    @property
    def half_floor(self) -> int:
        return self.N // 2

    def to_dict(self) -> dict:
        return {
            "p": self.field.p,
            "N": self.N,
            "L": self.L,
            "alpha": list(self.alpha),
            "beta": list(self.beta),
            "f": list(self.f),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "QcsaParams":
        """Strict inverse of :meth:`to_dict`: integers only, residues canonical."""
        field = PrimeField(json_int(doc["p"], "p"))
        points = (json_ints(doc[key], key, 0, field.p) for key in ("alpha", "beta", "f"))
        return cls(field, json_int(doc["N"], "N"), json_int(doc["L"], "L"), *points)


def qcsa_matrix(params: QcsaParams) -> FieldMatrix:
    """The N x N QCSA matrix Diag(beta) @ C, for the CSA matrix C of ``params``.

    Column layout: L Cauchy columns beta_n/(f_j - alpha_n), then N - L
    scaled Vandermonde columns beta_n * alpha_n**t.  The first ceil(N/2) of
    the Vandermonde columns form the generator of an [N, ceil(N/2)] GRS
    code on (alpha, beta).  Row-scaling an invertible Cauchy-Vandermonde
    matrix by nonzero beta keeps it invertible.
    """
    return params.csa.scale_rows(params.beta)


def _check_qcsa_shape(q: FieldMatrix, params: QcsaParams) -> None:
    if q.shape != (params.N, params.N):
        raise ParameterError(f"expected a {params.N} x {params.N} QCSA matrix, got {q.shape}")
    if q.field.p != params.field.p:
        raise ParameterError(
            f"matrix over GF({q.field.p}) does not match parameters over GF({params.field.p})"
        )


def qcsa_grs_submatrix(q: FieldMatrix, params: QcsaParams, width: int) -> FieldMatrix:
    """The GRS generator block: columns L+1 .. L+width of the QCSA matrix.

    width must be floor(N/2) or ceil(N/2); those are the two GRS blocks
    the matrix exposes (identical when N is even).
    """
    _check_qcsa_shape(q, params)
    if width not in (params.half_floor, params.half_ceil):
        raise ParameterError(
            f"GRS block width must be {params.half_floor} or {params.half_ceil}, got {width}"
        )
    return q.take_columns(range(params.L, params.L + width))


def qcsa_cauchy_block(q: FieldMatrix, params: QcsaParams) -> FieldMatrix:
    """Columns 1 .. L (the Cauchy part)."""
    _check_qcsa_shape(q, params)
    return q.take_columns(range(params.L))


def qcsa_trailing_block(q: FieldMatrix, params: QcsaParams) -> FieldMatrix:
    """Columns L + ceil(N/2) + 1 .. N (the Vandermonde tail past the GRS block)."""
    _check_qcsa_shape(q, params)
    return q.take_columns(range(params.L + params.half_ceil, params.N))
