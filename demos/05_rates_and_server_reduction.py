"""Rate accounting: the superdense factor of 2 and the redundant-server trick.

A classical CSA scheme delivers L desired symbols per N downloaded dits,
rate L/N.  The quantum path delivers 2L desired symbols per N downloaded
qudits, rate min(1, 2L/N): a factor-2 gain until the cap.  Past the cap,
i.e. L > N/2, some servers are redundant: dropping to N' = 2N - 2L
servers with L' = N - L desired symbols keeps the interference dimension
N - L intact and lands exactly on rate 1, one qudit per desired symbol.
"""

from fractions import Fraction

from qcsa import PrimeField, qcsa_roundtrip, rate_report, reduce_servers, reduced_params

print(f"{'N':>3} {'L':>3} {'N_red':>5} {'L_red':>5} {'R_C':>6} {'R_Q':>6} "
      f"{'dits/sym':>9} {'qudits/sym':>10}")
for n, l in [(4, 1), (4, 2), (4, 3), (6, 1), (6, 3), (6, 5), (10, 3), (10, 7), (12, 6)]:
    r = rate_report(n, l)
    print(f"{r.N:>3} {r.L:>3} {r.N_reduced:>5} {r.L_reduced:>5} "
          f"{str(r.rate_classical):>6} {str(r.rate_quantum):>6} "
          f"{str(r.dits_per_symbol):>9} {str(r.qudits_per_symbol):>10}")

print("\nbelow the cap the gain is exactly 2x:")
r = rate_report(10, 3)
assert r.dits_per_symbol == 2 * r.qudits_per_symbol
print(f"  (N,L)=(10,3): {r.dits_per_symbol} dits vs {r.qudits_per_symbol} qudits per symbol")

print("\nabove the cap, reduction preserves the interference dimension:")
for n, l in [(4, 3), (10, 7), (12, 11)]:
    n2, l2 = reduce_servers(n, l)
    assert n - l == n2 - l2
    assert Fraction(2 * l2, n2) == 1
    print(f"  (N,L)=({n},{l}) -> (N',L')=({n2},{l2}), interference dim stays {n - l}, "
          f"rate 2L'/N' = 1")

# The reduced scheme is a real runnable scheme, not just bookkeeping.
params = reduced_params(PrimeField(11), n=4, l=3)
print(f"\n(N,L)=(4,3) over GF(11) actually runs as N'={params.N}, L'={params.L}: "
      f"alpha={params.alpha}, f={params.f}")
result = qcsa_roundtrip(params, seed=5)
assert result.passed
costs = result.to_dict()["costs"]
print(f"round trip recovered delta(1)={result.delta1}, delta(2)={result.delta2} at "
      f"{costs['qudits_per_desired_symbol']} qudit per desired symbol")

# Full sweep: the rate formula holds on every operating point up to N = 64.
checked = 0
for n in range(2, 65):
    for l in range(1, n):
        r = rate_report(n, l)
        assert r.rate_quantum == min(Fraction(1), 2 * Fraction(l, n))
        checked += 1
print(f"\nrate identity min(1, 2L/N) verified on all {checked} points with N <= 64")
