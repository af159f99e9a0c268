"""Exact arithmetic in GF(p) and the dense matrix kernels built on it.

Everything in this toolkit is integer arithmetic mod a prime: no floats,
no tolerances, every equality is exact.
"""

from qcsa import FieldMatrix, PrimeField, SingularMatrixError, next_prime

gf7 = PrimeField(7)
p = gf7.p
print(f"working in {gf7}")

# A field element is a plain int in [0, p); arithmetic is int arithmetic mod p.
print(f"6 + 6 = {(6 + 6) % p}   (wraps past the modulus)")
print(f"3 * 5 = {3 * 5 % p}   (15 mod 7 = 1, so 5 = 1/3)")
print(f"inverse of 3 is {pow(3, -1, p)}")
print(f"3 ** 6 = {pow(3, 6, p)}   (every nonzero element to the p-1 is 1)")

print("\nall inverses in GF(7):")
for x in range(1, p):
    print(f"  1/{x} = {pow(x, -1, p)}")

# Matrices carry their field and stay in canonical residues.
gf5 = PrimeField(5)
m = FieldMatrix(gf5, [[3, 1], [1, 1]])
m_inv = m.inverse()
print(f"\nm       = {m.array.tolist()} over GF(5)")
print(f"m^-1    = {m_inv.array.tolist()}")
print(f"m @ m^-1 = {(m @ m_inv).array.tolist()}")
assert m @ m_inv == FieldMatrix.identity(gf5, 2)

# Rank is a pivot count in exact row echelon form.
r = FieldMatrix(gf5, [[1, 2], [2, 4]])
print(f"\nrank of {r.array.tolist()} is {r.rank()} (second row is 2x the first)")

singular = FieldMatrix(gf5, [[1, 2], [2, 4]])
try:
    singular.inverse()
except SingularMatrixError as exc:
    print(f"inverting it fails loudly: {exc}")

# next_prime picks the smallest usable field for a given parameter size.
n_servers, n_desired = 9, 4
q = next_prime(n_servers + n_desired)
print(f"\nN={n_servers}, L={n_desired} needs q >= {n_servers + n_desired}; "
      f"smallest prime is {q}")
