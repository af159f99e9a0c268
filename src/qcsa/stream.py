"""numpy's ``default_rng(seed).integers(0, p, size=count)``, replayed exactly.

Each trial's symbols come from the PCG64 stream of its seed.  Building one
numpy Generator per trial costs tens of microseconds, more than the trial's
own algebra at small N, and NEP 19 lets numpy change what
``Generator.integers`` draws between versions.  This module computes the
same draws itself, for a whole block of seeds at once:

1. entropy words: an int is its little-endian 32-bit words (0 gives one
   word), a list, tuple, range or array the concatenation of its items';
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

A column with a rejected draw is replayed by :func:`_column`, in Python
ints, since its later draws shift; so is every column of a block narrower
than ``VECTOR_MIN``.  That constant is where the two paths cost about the
same.  Measured with timeit on 2 vCPUs (Python 3.11, numpy 2.4.6, seeds
``(7, t)``, p = 2^31 - 1): at N = 12 the array path took 200-480 us for
any T <= 16 and :func:`_column` 30-50 us a column, so they cross near
T = 9; near T = 14 at N = 4 and T = 3 at N = 64.
"""

from functools import lru_cache

import numpy as np

# SeedSequence's hash constants, as in numpy's bit_generator.pyx.
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
POOL_SIZE = 4
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
VECTOR_MIN = 8


def entropy_words(seed) -> list:
    """The uint32 words that ``SeedSequence(seed)`` hashes, as numpy coerces them."""
    if isinstance(seed, (int, np.integer)):
        n = int(seed)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words = [n & M32]
        while n > M32:
            n >>= 32
            words.append(n & M32)
        return words
    if not isinstance(seed, (list, tuple, range, np.ndarray)):
        raise TypeError(f"a seed must be an int or a sequence of ints, not {type(seed).__name__}")
    words = []
    for item in seed:
        if type(item) is int and 0 <= item <= M32:  # one word, without recursing
            words.append(item)
        else:
            words += entropy_words(item)
    return words


def _hash_chain(init: int, mult: int, calls: int) -> list:
    """The (xor, multiplier) pair of each of ``calls`` successive hashmix calls."""
    pairs = []
    for _ in range(calls):
        nxt = init * mult & M32
        pairs.append((init, nxt))
        init = nxt
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


def draws(seeds, p: int, count: int) -> np.ndarray:
    """Column j is ``default_rng(seeds[j]).integers(0, p, size=count)``, count x T int64.

    A seed is an int or a list, tuple, range or array of them, nested as
    numpy allows; a negative int raises ValueError and any other item
    TypeError.  p must satisfy 2 <= p < 2^32.
    """
    out = np.empty((count, len(seeds)), dtype=np.int64)
    if len(seeds) < VECTOR_MIN:
        for j, seed in enumerate(seeds):
            out[:, j] = _column(*pcg64_state(seed), p, count)
        return out
    groups = {}
    for j, seed in enumerate(seeds):
        words = entropy_words(seed)
        groups.setdefault(max(len(words), POOL_SIZE), []).append((j, words))
    for n_words, members in groups.items():
        cols = [j for j, _ in members]
        words = np.array([w + [0] * (n_words - len(w)) for _, w in members], dtype=np.uint32)
        out[:, cols], rejected = _vector_draws(*_block_states(words.T), p, count)
        for j in np.asarray(cols)[rejected].tolist():
            out[:, j] = _column(*pcg64_state(seeds[j]), p, count)
    return out
