"""Prime fields GF(p): the modulus, and its primality checks.

Every construction downstream (generator matrices, channel synthesis, the
over-the-air decode) is arithmetic on numpy int64 arrays of canonical
residues in [0, p-1]; a :class:`PrimeField` only carries and validates p.
There is no scalar element type: a single residue is a plain ``int``, and
its inverse is ``pow(x, -1, p)``.

Prime fields only: the schemes here never need more than q >= N + L
distinct elements, which every GF(p) with p >= N + L provides.  Extension
fields are out of scope.  Moduli are capped at 2**31 - 1 so a single
product always fits in a 64-bit machine integer.
"""

import operator
from functools import lru_cache

MAX_MODULUS = 2**31 - 1

# Deterministic Miller-Rabin witnesses, sufficient for n < 3,215,031,751
# which covers the whole supported modulus range.
_MR_BASES = (2, 3, 5, 7)


class FieldMismatchError(ValueError):
    """Arithmetic attempted between matrices over different prime fields."""


@lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Deterministic primality test for the supported modulus range, cached per n."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    candidate = max(int(n), 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate


class PrimeField:
    """The prime field GF(p).

    Carries the validated modulus for the matrix and code layers.  Two
    PrimeField objects compare equal iff they have the same modulus.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if isinstance(p, bool):
            raise TypeError("modulus must be an integer, got bool")
        try:
            p = operator.index(p)
        except TypeError:
            raise TypeError(f"modulus must be an integer, got {type(p).__name__}")
        if p > MAX_MODULUS:
            raise ValueError(f"modulus {p} exceeds the supported bound 2**31 - 1")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other) -> bool:
        if isinstance(other, PrimeField):
            return self.p == other.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

