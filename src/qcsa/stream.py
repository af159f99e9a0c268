"""numpy's ``default_rng(seed).integers(0, p, size=count)``, replayed exactly.

Building one numpy Generator per trial costs tens of microseconds, more
than a trial's own algebra at small N, and NEP 19 lets numpy change what
``Generator.integers`` draws between versions.  So this module computes
the draws itself, in the two shapes its callers ask for: :func:`column`
draws one seed's stream in Python ints, and :func:`draws` the streams
(seed, t) of a block of t at once, as array arithmetic.  The steps:

1. entropy words: an int is its little-endian 32-bit words (0 gives one
   word), a flat tuple or list of ints the concatenation of its items';
2. ``SeedSequence``: the pool of 4 words is hashed and mixed, then
   ``generate_state(4, uint64)`` gives initstate and initseq.  One hash
   serves both shapes: a block's words are the seed's ints and t's words
   as uint64 arrays, so its pool and state words are arrays;
3. PCG64 seeding (O'Neill, "PCG: a family of simple fast space-efficient
   statistically good algorithms for random number generation", 2014):
   inc = 2 initseq + 1, then two steps of the LCG s -> a s + inc;
4. output k is XSL-RR of state k = a^(k+1) initstate + (1 + a + ... +
   a^(k+1)) inc mod 2^128, so a per-count table gives every state of every
   column in one pass over 64-bit halves: wrapping uint64 products, and
   the high word of the two products of low halves;
5. each 64-bit output gives two 32-bit draws, low half first, reduced by
   Lemire's method (ACM TOMACS 29, 2019): m = d p, keep m >> 32 unless
   m mod 2^32 < (2^32 - p) mod p.

A block hashes as one array, so its t must not cross 2^32, where t gains
a word; ``trial_blocks``' blocks start at multiples of ``TRIAL_BLOCK``,
which divides 2^32.  A column with a rejected draw is replayed in Python
ints by ``_column``, from the block's own halves, since its later draws shift.
"""

import operator
from functools import lru_cache

import numpy as np

# SeedSequence's hash constants, as in numpy's bit_generator.pyx.
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def entropy_words(seed) -> list:
    """The uint32 words that ``SeedSequence(seed)`` hashes, as numpy coerces them.

    A seed is a non-negative int or a flat tuple or list of them, numpy
    integers included; a negative int raises ValueError, anything else TypeError.
    """
    if isinstance(seed, (int, np.integer)):
        n = int(seed)
        if n < 0:
            raise ValueError(f"expected non-negative integer, got {n}")
        return [n >> shift & M32 for shift in range(0, max(n.bit_length(), 1), 32)]
    if isinstance(seed, (tuple, list)):
        words = []
        for item in seed:
            if type(item) is int and 0 <= item <= M32:  # one word, without recursing
                words.append(item)
            elif isinstance(item, (int, np.integer)):
                words += entropy_words(item)
            else:
                break
        else:
            return words
    raise TypeError(f"a seed must be an int or a flat tuple or list of ints, not {seed!r}")


def _hash_chain(init: int, mult: int, calls: int) -> list:
    """The (xor, multiplier) pair of each of ``calls`` successive hashmix calls."""
    pairs = []
    for _ in range(calls):
        pairs.append((init, init * mult & M32))
        init = pairs[-1][1]
    return pairs


@lru_cache(maxsize=64)
def _hash_plan(n_words: int) -> tuple:
    """SeedSequence's hashing of n_words >= 4 entropy words into its pool, then out of it.

    Returns the (xor, multiplier) pairs of the first four hashmix calls, one
    (source, target, xor, multiplier) step per later call (a source of 4 or
    more is an extra entropy word), and ``generate_state``'s 8 pairs.
    """
    pairs = _hash_chain(INIT_A, MULT_A, POOL_SIZE * n_words)
    sources = [(src, dst) for src in range(POOL_SIZE) for dst in range(POOL_SIZE) if dst != src]
    sources += [(src, dst) for src in range(POOL_SIZE, n_words) for dst in range(POOL_SIZE)]
    steps = tuple((src, dst, x, m) for (src, dst), (x, m) in zip(sources, pairs[POOL_SIZE:]))
    return pairs[:POOL_SIZE], steps, _hash_chain(INIT_B, MULT_B, 2 * POOL_SIZE)


def seed_words(words: list) -> list:
    """``SeedSequence(seed).generate_state(4, uint64)`` as 8 uint32 words, lowest first.

    words is ``entropy_words(seed)``, or the words of a block of seeds:
    each an int below 2^32 or a uint64 array of such words, one entry per
    seed, and then the 8 words are arrays.  Each product stays below 2^64
    and each difference wraps mod 2^64 before it is masked, so ints and
    arrays agree.
    """
    words = words + [0] * (POOL_SIZE - len(words))
    first, steps, out_pairs = _hash_plan(len(words))
    pool = []
    for w, (x, m) in zip(words, first):
        v = (w ^ x) * m & M32
        pool.append(v ^ v >> 16)
    for src, dst, x, m in steps:
        h = ((pool[src] if src < POOL_SIZE else words[src]) ^ x) * m & M32
        r = (MIX_MULT_L * pool[dst] - MIX_MULT_R * (h ^ h >> 16)) & M32
        pool[dst] = r ^ r >> 16
    out = []
    for i, (x, m) in enumerate(out_pairs):
        v = (pool[i % POOL_SIZE] ^ x) * m & M32
        out.append(v ^ v >> 16)
    return out


def pcg64_halves(w) -> tuple:
    """PCG64's initstate and inc as 64-bit (high, low) halves, from 8 state words w.

    ``generate_state(4, uint64)`` is val_k = w[2k] + 2^32 w[2k+1], and PCG64
    seeds from initstate = val_0 2^64 + val_1 and inc = 2 (val_2 2^64 +
    val_3) + 1.  Returns (initstate high, low, inc high, low).
    """
    seq_hi, seq_lo = w[4] | w[5] << 32, w[6] | w[7] << 32
    return (w[0] | w[1] << 32, w[2] | w[3] << 32,
            (seq_hi << 1 | seq_lo >> 63) & M64, (seq_lo << 1 | 1) & M64)


def _column(halves, p: int, count: int) -> list:
    """``integers(0, p, size=count)`` from ``pcg64_halves``' ints, 2 <= p < 2^32, in Python ints."""
    init_hi, init_lo, inc_hi, inc_lo = halves
    inc = inc_hi << 64 | inc_lo
    state = (((init_hi << 64 | init_lo) + inc) * PCG_MULT + inc) & M128  # PCG64's seeding
    threshold = ((1 << 32) - p) % p
    out = []
    while len(out) < count:
        outputs = []
        for _ in range((count - len(out) + 1) // 2):
            state = (state * PCG_MULT + inc) & M128
            x = (state >> 64 ^ state) & M64
            outputs.append((x << 64 | x) >> (state >> 122) & M64)  # XSL-RR
        scaled = [d * p for x in outputs for d in (x & M32, x >> 32)]
        # a rejected draw is skipped: the next 32 bits take its place
        out += [m >> 32 for m in scaled if m & M32 >= threshold]
    return out[:count]


def column(seed, p: int, count: int) -> list:
    """``default_rng(seed).integers(0, p, size=count)`` as a list of ints, 2 <= p < 2^32."""
    return _column(pcg64_halves(seed_words(entropy_words(seed))), p, count)


@lru_cache(maxsize=64)
def _lcg_table(outputs: int) -> tuple:
    """a^(k+1) and 1 + a + ... + a^(k+1) mod 2^128, for k = 1 .. outputs.

    Returns the high and low 64-bit halves of each, as (outputs, 1) uint64 arrays.
    """
    powers, sums = [], []
    power, total = PCG_MULT, 1 + PCG_MULT
    for _ in range(outputs):
        power = power * PCG_MULT & M128
        total = (total + power) & M128
        powers.append(power)
        sums.append(total)
    return tuple(np.array([[v >> shift & M64] for v in vals], dtype=np.uint64)
                 for vals in (powers, sums) for shift in (64, 0))


def _mulhi(a, b):
    """The high 64 bits of each 128-bit product of uint64 arrays a and b."""
    a0, a1, b0, b1 = a & M32, a >> 32, b & M32, b >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (mid >> 32) + (((mid & M32) + a0 * b1) >> 32)


def _vector_draws(halves, p: int, count: int):
    """Draws for ``pcg64_halves``' uint64 (T,) arrays, and which columns rejected one."""
    init_hi, init_lo, inc_hi, inc_lo = halves
    p_hi, p_lo, q_hi, q_lo = _lcg_table((count + 1) // 2)
    # state k = P_k init + Q_k inc mod 2^128: the products of low halves in
    # full, the cross products only mod 2^64, and the carry of the low sum.
    init_part = p_lo * init_lo
    lo = init_part + q_lo * inc_lo
    hi = (_mulhi(p_lo, init_lo) + p_hi * init_lo + p_lo * init_hi + (lo < init_part)
          + _mulhi(q_lo, inc_lo) + q_hi * inc_lo + q_lo * inc_hi)
    rot = hi >> 58
    x = hi ^ lo
    x = x >> rot | x << ((64 - rot) & 63)  # XSL-RR
    scaled = np.empty((2 * len(x), x.shape[1]), dtype=np.uint64)
    scaled[0::2] = x & M32
    scaled[1::2] = x >> 32
    scaled = scaled[:count] * np.uint64(p)
    rejected = ((scaled & M32) < ((1 << 32) - p) % p).any(axis=0)
    return (scaled >> 32).astype(np.int64), rejected


def draws(seed: int, trials: range, p: int, count: int) -> np.ndarray:
    """Column j is ``default_rng((seed, trials[j])).integers(0, p, size=count)``, count x T int64.

    seed is a non-negative int, trials a non-empty range of t < 2^64 that
    does not cross 2^32 (ValueError), and 2 <= p < 2^32.
    """
    base = entropy_words(operator.index(seed))  # (seed, t) is never nested
    t_words = len(entropy_words(trials[-1]))
    if len(entropy_words(trials[0])) != t_words:
        raise ValueError(f"{trials} crosses 2^32, where t gains an entropy word")
    t = np.arange(trials.start, trials.stop, trials.step, dtype=np.uint64)
    words = seed_words(base + [t >> 32 * i & M32 for i in range(t_words)])
    halves = pcg64_halves(words)
    out, rejected = _vector_draws(halves, p, count)
    for j in np.flatnonzero(rejected).tolist():  # int(): a uint64 scalar wraps in << 64
        out[:, j] = _column([int(h[j]) for h in halves], p, count)
    return out
