"""The full over-the-air pipeline, narrated on a tiny instance.

Classically, a user downloads N answer symbols per CSA instance and
inverts the mixing matrix.  The quantum path runs two instances at once
through an N-sum box: a channel y = M x over GF(q) in which server n
controls inputs x_n and x_{N+n}, feasible whenever M = (0 I)(G H)^{-1}
for a strongly self-orthogonal G.  The synthesized box makes the
receiver's N measured symbols BE the decoded output: both desired blocks
arrive with no inversion left to do, at a cost of N qudits instead of 2N
dits.
"""

import numpy as np

from qcsa import (
    PrimeField,
    QcsaParams,
    SchemeInstance,
    build_qcsa_system,
    classical_decode,
    is_sso,
    qcsa_roundtrip,
    server_scale,
)

# ---------------------------------------------------------------- tiny case
gf5 = PrimeField(5)
params = QcsaParams(gf5, N=2, L=1, alpha=(1, 2), beta=(1, 1), f=(3,))
system = build_qcsa_system(params)

print("N=2 servers, L=1 desired symbol per instance, GF(5)")
print(f"u = {system.u}  ->  dual v = {system.v}")
print(f"Qu = {system.qu.array.tolist()}")
print(f"Qv = {system.qv.array.tolist()}")
print(f"G is strongly self-orthogonal: {is_sso(system.box.G)}")
print(f"channel matrix M = {system.box.M.array.tolist()}")

# Two instances with hand-picked symbols.
inst1 = SchemeInstance.from_symbols(params, 1, delta=(2,), nu=(3,))
inst2 = SchemeInstance.from_symbols(params, 2, delta=(4,), nu=(0,))
print(f"\ninstance 1: delta={inst1.delta} nu={inst1.nu} -> answers {inst1.answers}")
print(f"instance 2: delta={inst2.delta} nu={inst2.nu} -> answers {inst2.answers}")

# Each server only touches its own two answers.
x = server_scale(gf5, inst1.answers, inst2.answers, system.u, system.v)
print(f"server-scaled channel input x = {x.tolist()}")

y = system.box.transmit(x)
print(f"measured output y = {y.tolist()}  <- (delta(1), delta(2)) directly")
assert y.tolist() == [2, 4]

# Compare with the classical route: invert the CSA matrix per instance.
dec1 = classical_decode(inst1.answers, params)
dec2 = classical_decode(inst2.answers, params)
print(f"classical decode agrees: instance 1 -> {dec1.tolist()}, instance 2 -> {dec2.tolist()}")
print("cost: 2 qudits for 2 desired symbols, vs 4 dits classically\n")

# ------------------------------------------------------- bigger odd-N case
gf17 = PrimeField(17)
params7 = QcsaParams.default(gf17, n=7, l=3)
system7 = build_qcsa_system(params7)
print("N=7 (odd), L=3, GF(17): output also carries leftover interference")

result = qcsa_roundtrip(params7, seed=2024, system=system7)
print(f"delta(1) = {result.delta1}")
print(f"delta(2) = {result.delta2}")
print(f"interference tails riding along: {result.nu_tail1} and {result.nu_tail2}")
print(f"y        = {result.y}")
print(f"expected = delta(1) + tail(1) + delta(2) + tail(2) -> match: {result.passed}")
assert result.passed

costs = result.to_dict()["costs"]
print(f"costs: {costs['downloaded_qudits']} qudits for {costs['desired_symbols']} "
      f"desired symbols ({costs['qudits_per_desired_symbol']} qudits each), "
      f"vs {costs['classical_download_dits']} dits classically")

# Replays are bit-exact for a fixed seed.
again = qcsa_roundtrip(params7, seed=2024, system=system7)
assert again.y == result.y
print("\nsame seed, same trial, bit for bit")

# And a seeded batch keeps recovering exactly.
rng = np.random.default_rng(99)
for trial in range(5):
    r = qcsa_roundtrip(params7, seed=int(rng.integers(0, 10**9)), system=system7)
    assert r.passed
print("5 random seeded trials: all recovered exactly")
