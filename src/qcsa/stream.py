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
   ``generate_state(4, uint64)`` gives initstate and initseq;
3. PCG64 seeding (O'Neill, "PCG: a family of simple fast space-efficient
   statistically good algorithms for random number generation", 2014):
   inc = 2 initseq + 1, then two steps of the LCG s -> a s + inc;
4. output k is XSL-RR of state k = a^(k+1) initstate + (1 + a + ... +
   a^(k+1)) inc mod 2^128, so a per-count table gives every state of every
   column in one pass of 32-bit limb products;
5. each 64-bit output gives two 32-bit draws, low half first, reduced by
   Lemire's method (ACM TOMACS 29, 2019): m = d p, keep m >> 32 unless
   m mod 2^32 < (2^32 - p) mod p.

A block hashes as one array, so its t must not cross 2^32, where t gains
a word; ``trial_blocks``' blocks start at multiples of ``TRIAL_BLOCK``,
which divides 2^32.  A column with a rejected draw is replayed by
:func:`column`, since its later draws shift.
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
            raise ValueError("expected non-negative integer")
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
    """SeedSequence's hashing of n_words >= 4 entropy words into its pool.

    Returns the (xor, multiplier) pairs of the first four hashmix calls, one
    (source, target, xor, multiplier) step per later call (a source of 4 or
    more is an extra entropy word), and all those constants as uint32 columns.
    """
    pairs = _hash_chain(INIT_A, MULT_A, POOL_SIZE * n_words)
    sources = [(src, dst) for src in range(POOL_SIZE) for dst in range(POOL_SIZE) if dst != src]
    sources += [(src, dst) for src in range(POOL_SIZE, n_words) for dst in range(POOL_SIZE)]
    steps = tuple((src, dst, x, m) for (src, dst), (x, m) in zip(sources, pairs[POOL_SIZE:]))
    xors, mults = (np.array(c, dtype=np.uint32)[:, None] for c in zip(*pairs))
    return pairs[:POOL_SIZE], steps, xors, mults


@lru_cache(maxsize=1)
def _state_plan() -> tuple:
    """``generate_state``'s (xor, multiplier) pairs for its 8 words, and as uint32 columns."""
    pairs = _hash_chain(INIT_B, MULT_B, 2 * POOL_SIZE)
    return pairs, *(np.array(c, dtype=np.uint32)[:, None] for c in zip(*pairs))


def seed_words(seed) -> list:
    """``SeedSequence(seed).generate_state(4, uint64)`` as 8 uint32 words, lowest first."""
    words = entropy_words(seed)
    words += [0] * (POOL_SIZE - len(words))
    first, steps, _, _ = _hash_plan(len(words))
    pool = []
    for w, (x, m) in zip(words, first):
        v = (w ^ x) * m & M32
        pool.append(v ^ v >> 16)
    for src, dst, x, m in steps:
        h = ((pool[src] if src < POOL_SIZE else words[src]) ^ x) * m & M32
        r = (MIX_MULT_L * pool[dst] - MIX_MULT_R * (h ^ h >> 16)) & M32
        pool[dst] = r ^ r >> 16
    out = []
    for i, (x, m) in enumerate(_state_plan()[0]):
        v = (pool[i % POOL_SIZE] ^ x) * m & M32
        out.append(v ^ v >> 16)
    return out


def pcg64_state(seed) -> tuple:
    """(state, inc) of ``PCG64(seed)`` before its first output, as 128-bit ints."""
    # generate_state(4, uint64) is val_k = w[2k] + 2^32 w[2k+1]; PCG64 seeds
    # from initstate = val_0 2^64 + val_1 and initseq = val_2 2^64 + val_3.
    w = seed_words(seed)
    initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 97 | w[4] << 65 | w[7] << 33 | w[6] << 1 | 1) & M128
    return ((initstate + inc) * PCG_MULT + inc) & M128, inc


def _column(state: int, inc: int, p: int, count: int) -> list:
    """``integers(0, p, size=count)`` from PCG64 at (state, inc), 2 <= p < 2^32, in Python ints."""
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
    return _column(*pcg64_state(seed), p, count)


@lru_cache(maxsize=64)
def _lcg_table(outputs: int) -> tuple:
    """Limbs of a^(k+1) and 1 + a + ... + a^(k+1) mod 2^128, for k = 1 .. outputs.

    Each is 4 (outputs, 1) uint64 arrays of 32-bit limbs, lowest first.
    """
    powers, sums = [], []
    power, total = PCG_MULT, 1 + PCG_MULT
    for _ in range(outputs):
        power = power * PCG_MULT & M128
        total = (total + power) & M128
        powers.append(power)
        sums.append(total)
    return tuple(np.array([[(v >> 32 * i) & M32] for v in vals], dtype=np.uint64)
                 for vals in (powers, sums) for i in range(4))


def _hashmix(value, xors, mults):
    """SeedSequence's hashmix of ``value`` under each (xor, multiplier) row."""
    v = (value ^ xors) * mults
    return v ^ v >> np.uint32(16)


def _mix(x, y):
    r = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
    return r ^ r >> np.uint32(16)


def _block_states(words) -> tuple:
    """Limbs of initstate and inc, (4, T) uint64, for (n_words, T) uint32 entropy words."""
    _, steps, xors, mults = _hash_plan(len(words))
    pool = _hashmix(words[:POOL_SIZE], xors[:POOL_SIZE], mults[:POOL_SIZE])
    k = POOL_SIZE
    for src in range(POOL_SIZE):
        dst = [d for d in range(POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xors[k:k + 3], mults[k:k + 3]))
        k += 3
    for word in words[POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, xors[k:k + POOL_SIZE], mults[k:k + POOL_SIZE]))
        k += POOL_SIZE
    _, state_xors, state_mults = _state_plan()
    w = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], state_xors, state_mults).astype(np.uint64)
    initseq = w[[6, 7, 4, 5]]
    low_bits = np.concatenate([np.ones((1, w.shape[1]), np.uint64), initseq[:3] >> np.uint64(31)])
    return w[[2, 3, 0, 1]], (initseq << np.uint64(1) | low_bits) & np.uint64(M32)


def _vector_draws(init, inc, p: int, count: int):
    """Draws for the (4, T) limbs of initstate and inc, and which columns rejected one."""
    table = _lcg_table((count + 1) // 2)
    mask, shift = np.uint64(M32), np.uint64(32)
    # state k = P_k init + Q_k inc mod 2^128, limb by limb.  Products below
    # limb 3 are split into halves, so that their sums stay exact; limb 3 is
    # only needed mod 2^32, so its sum may wrap.
    acc = [np.zeros((len(table[0]), init.shape[1]), dtype=np.uint64) for _ in range(4)]
    for i in range(4):
        for j in range(4 - i):
            for table_limb, col_limb in ((table[i], init[j]), (table[4 + i], inc[j])):
                prod = table_limb * col_limb
                if i + j < 3:
                    acc[i + j + 1] += prod >> shift
                    prod &= mask
                acc[i + j] += prod
    for i in range(3):
        acc[i + 1] += acc[i] >> shift
        acc[i] &= mask
    x = (acc[3] << shift | acc[2]) ^ (acc[1] << shift | acc[0])
    rot = acc[3] >> np.uint64(26) & np.uint64(63)
    x = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))  # XSL-RR
    scaled = np.empty((2 * len(x), x.shape[1]), dtype=np.uint64)
    scaled[0::2] = x & mask
    scaled[1::2] = x >> shift
    scaled = scaled[:count] * np.uint64(p)
    rejected = ((scaled & mask) < np.uint64(((1 << 32) - p) % p)).any(axis=0)
    return (scaled >> shift).astype(np.int64), rejected


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
    words = np.zeros((max(len(base) + t_words, POOL_SIZE), len(t)), dtype=np.uint32)
    words[:len(base)] = np.array(base, dtype=np.uint32)[:, None]
    for i in range(t_words):
        words[len(base) + i] = t >> np.uint64(32 * i)  # the cast keeps the low word
    out, rejected = _vector_draws(*_block_states(words), p, count)
    for j in np.flatnonzero(rejected).tolist():
        out[:, j] = column((seed, trials[j]), p, count)
    return out
