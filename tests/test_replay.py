"""``qcsa.stream`` against numpy's own SeedSequence, PCG64 and Generator.integers.

numpy is the referee here and nowhere in ``src/qcsa``: each stage of the
replay, and every whole column of both entry points, must equal what numpy
computes for the same seed.  ``column`` draws one seed in Python ints;
``draws`` draws the streams (seed, t) of a block of t as arrays.
"""

import tracemalloc

import numpy as np
import pytest

from qcsa import PrimeField, QcsaParams, qcsa_roundtrip, stream
from qcsa.scheme import TRIAL_BLOCK

from test_scheme import DIFFERENTIAL_GRID

EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5]
# Every form a report records: an int, or a flat tuple or list of ints.
SEEDS = EDGE_SEEDS + [(s, t) for s in EDGE_SEEDS for t in (0, 1, 2**32 - 1, 2**32)] + [
    (1004, 12, 6, 101, 999),  # criterion 4's seeds have five words
    (1004, 2, 1, 3, 0),
    (np.int64(7), np.uint32(3)),
    np.uint64(2**64 - 1),
    [],
    True,
]
# numpy reads nested lists, ranges and arrays too; qcsa takes only flat forms.
NON_FLAT_SEEDS = [[[1, 2], (3,)], [3, [-2]], range(6), np.arange(5, dtype=np.uint32)]
# 2^30 + 3 rejects about a quarter of all 32-bit draws, 1431655777 about a third.
MODULI = sorted({q for _, _, q in DIFFERENTIAL_GRID} | {2, 2**30 + 3, 1431655777})
# One block per entropy length: 2 words (padded to 4), 3, 5 and 8.
BLOCKS = {
    "two-words": [(9, t) for t in range(12)],
    "three-words": [(2**40 + 1, t) for t in range(12)],
    "five-words": [(1004, 12, 6, 101, t) for t in range(12)],
    "eight-words": [(1, 2, 3, 4, 5, 6, 7, t) for t in range(12)],
}


def referee(seed, p: int, count: int) -> list:
    return np.random.default_rng(seed).integers(0, p, size=count).tolist()


def from_limbs(limbs) -> int:
    """The 128-bit int of 64-bit (high, low) halves."""
    high, low = limbs
    return int(high) << 64 | int(low)


def block_words(seeds) -> list:
    """The entropy words of seeds that have equally many, as ``stream.seed_words`` takes them.

    A word that every seed shares is an int, any other a uint64 array with
    one entry per seed.
    """
    columns = zip(*(stream.entropy_words(s) for s in seeds))
    return [c[0] if len(set(c)) == 1 else np.array(c, dtype=np.uint64) for c in columns]


def assert_block_matches(seed, trials, p: int, count: int):
    got = stream.draws(seed, trials, p, count)
    assert got.dtype == np.int64 and got.shape == (count, len(trials))
    for j, t in enumerate(trials):
        assert got[:, j].tolist() == referee((seed, t), p, count), (seed, t)


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_seed_words_and_pcg64_state_match_numpy(seed):
    w = stream.seed_words(stream.entropy_words(seed))
    state = np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
    assert [w[2 * k] | w[2 * k + 1] << 32 for k in range(4)] == state
    init_hi, init_lo, inc_hi, inc_lo = stream.pcg64_halves(w)
    initstate, inc = from_limbs((init_hi, init_lo)), from_limbs((inc_hi, inc_lo))
    pcg = np.random.PCG64(seed).state["state"]
    assert inc == pcg["inc"]
    assert ((initstate + inc) * stream.PCG_MULT + inc) % 2**128 == pcg["state"]


@pytest.mark.parametrize("seeds", BLOCKS.values(), ids=BLOCKS.keys())
def test_block_seeding_matches_numpy(seeds):
    init_hi, init_lo, inc_hi, inc_lo = stream.pcg64_halves(stream.seed_words(block_words(seeds)))
    for j, seed in enumerate(seeds):
        val = np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        assert from_limbs((init_hi[j], init_lo[j])) == val[0] << 64 | val[1]
        assert from_limbs((inc_hi[j], inc_lo[j])) == np.random.PCG64(seed).state["state"]["inc"]


@pytest.mark.parametrize("seeds", BLOCKS.values(), ids=BLOCKS.keys())
def test_one_hash_serves_ints_and_blocks(seeds):
    """The block's word list mixes int base words with uint64 array t words."""
    words = block_words(seeds)
    assert any(type(w) is int for w in words) and any(isinstance(w, np.ndarray) for w in words)
    block = stream.seed_words(words)
    halves = stream.pcg64_halves(block)
    assert all(w.dtype == np.uint64 and w.shape == (len(seeds),) for w in block + list(halves))
    for j, seed in enumerate(seeds):
        state = np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
        pcg = np.random.PCG64(seed).state["state"]
        for w in (stream.seed_words(stream.entropy_words(seed)), [int(v[j]) for v in block]):
            assert [w[2 * k] | w[2 * k + 1] << 32 for k in range(4)] == state
        initstate, inc = (from_limbs((high[j], low[j])) for high, low in (halves[:2], halves[2:]))
        assert inc == pcg["inc"]
        assert ((initstate + inc) * stream.PCG_MULT + inc) % 2**128 == pcg["state"]


@pytest.mark.parametrize("p", MODULI)
def test_columns_match_numpy(p):
    for count in (1, 2, 3, 24, 128):
        for seed in SEEDS:
            assert stream.column(seed, p, count) == referee(seed, p, count), (seed, count)


@pytest.mark.parametrize("p", [101, 2**30 + 3, 1431655777, 2**31 - 1])
@pytest.mark.parametrize("first", [0, TRIAL_BLOCK, 2**32])
@pytest.mark.parametrize("seed", [5, 2**40 + 3, 2**64 + 5], ids=["1-word", "2-word", "3-word"])
def test_blocks_match_numpy(seed, first, p):
    assert_block_matches(seed, range(first, first + 40), p, 24)


@pytest.mark.parametrize("p", [101, 2**30 + 3, 2**31 - 1])
def test_a_block_across_t_2_32_mixes_entropy_lengths(p):
    """draws refuses such a block; run_trials' blocks never make one."""
    assert 2**32 % TRIAL_BLOCK == 0
    assert [len(stream.entropy_words(t)) for t in (2**32 - 1, 2**32)] == [1, 2]
    with pytest.raises(ValueError, match="crosses 2"):
        stream.draws(5, range(2**32 - 8, 2**32 + 8), p, 24)
    assert_block_matches(5, range(2**32 - 8, 2**32), p, 24)
    assert_block_matches(5, range(2**32, 2**32 + 8), p, 24)


@pytest.mark.parametrize("p", [101, 2**30 + 3, 1431655777, 2**31 - 1])
@pytest.mark.parametrize("width", [1, 7, 8, TRIAL_BLOCK])  # a run's last block may be tiny
def test_array_and_scalar_paths_agree(width, p):
    trials = range(width)
    got = stream.draws(11, trials, p, 24)
    assert [got[:, t].tolist() for t in trials] == [stream.column((11, t), p, 24) for t in trials]
    assert referee((11, width - 1), p, 24) == got[:, -1].tolist()


def test_rejected_columns_leave_the_array_path():
    seeds = [(3, t) for t in range(64)]
    halves = stream.pcg64_halves(stream.seed_words(block_words(seeds)))
    _, rejected = stream._vector_draws(halves, 2**30 + 3, 4)
    assert rejected.any() and not rejected.all()
    _, rejected = stream._vector_draws(halves, 101, 4)
    assert not rejected.any()


def test_a_rejecting_block_is_hashed_once_and_replayed_from_its_halves(monkeypatch):
    """At 2^30 + 3 every column of a 24-draw block rejects a draw, and none is re-hashed."""
    halves = stream.pcg64_halves(stream.seed_words(block_words([(11, t) for t in range(256)])))
    assert stream._vector_draws(halves, 2**30 + 3, 24)[1].all()
    hashes, columns = [], []
    seed_words = stream.seed_words
    monkeypatch.setattr(stream, "seed_words", lambda words: hashes.append(1) or seed_words(words))
    monkeypatch.setattr(stream, "column", lambda *args: columns.append(args))
    got = stream.draws(11, range(256), 2**30 + 3, 24)
    assert (len(hashes), columns) == (1, [])
    assert got[:, 255].tolist() == referee((11, 255), 2**30 + 3, 24)


@pytest.mark.parametrize("p", [3, 101, 65521, 2**30 + 3, 1431655777, 2**31 - 1])
def test_lemire_keeps_a_draw_on_the_threshold_and_rejects_one_below(p):
    """States solved for so that the first output's halves land on the boundary.

    Lemire keeps d when d p mod 2^32 >= (2^32 - p) mod p.  Random seeds
    reach equality with probability 2^-32 a draw, so instead the state
    before output 1 is chosen: that output is below 2^64, so XSL-RR
    rotates by 0 and returns it as is, low half first.
    """
    a, m128, inc = stream.PCG_MULT, (1 << 128) - 1, 2 * 0x5DEECE66D + 1
    threshold = ((1 << 32) - p) % p
    on, below = ((threshold - k) * pow(p, -1, 1 << 32) % (1 << 32) for k in (0, 1))
    high = (1 << 32) - 1  # (2^32 - 1) p mod 2^32 = 2^32 - p, far above the threshold
    states = [((high << 32 | on) - inc) * pow(a, -1, 1 << 128) & m128,
              ((below << 32 | on) - inc) * pow(a, -1, 1 << 128) & m128]
    # Both paths start from initstate: state = a initstate + (1 + a) inc.
    halves = [np.array([v >> shift & (1 << 64) - 1 for v in values], dtype=np.uint64)
              for values in ([(s - (1 + a) * inc) * pow(a, -1, 1 << 128) & m128 for s in states],
                             [inc, inc])
              for shift in (64, 0)]
    expected = []
    for j, state in enumerate(states):
        bits = np.random.PCG64()
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        expected.append(np.random.Generator(bits).integers(0, p, size=6).tolist())
        assert expected[-1][0] == on * p >> 32
        assert stream._column([int(h[j]) for h in halves], p, 6) == expected[-1]
    got, rejected = stream._vector_draws(halves, p, 2)
    assert rejected.tolist() == [False, True]
    assert got[:, 0].tolist() == expected[0][:2]


@pytest.mark.parametrize("seed,error", [
    (-1, ValueError), ((5, -1), ValueError),
    (1.5, TypeError), ((5, 2.0), TypeError), (np.float64(3), TypeError), ("7", TypeError),
], ids=repr)
def test_bad_seeds_raise_as_numpy_does(seed, error):
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        stream.column(seed, 101, 4)


@pytest.mark.parametrize("seed", [-1, (5, 1), 1.5, "7"], ids=repr)
def test_draws_takes_one_non_negative_int_base(seed):
    with pytest.raises(ValueError if seed == -1 else TypeError):
        stream.draws(seed, range(TRIAL_BLOCK), 101, 4)


@pytest.mark.parametrize("seed", NON_FLAT_SEEDS, ids=repr)
def test_non_flat_seeds_raise_type_error_before_drawing(seed, monkeypatch):
    calls = []
    monkeypatch.setattr(stream, "_column", lambda *args: calls.append(args))
    match = "an int or a flat tuple or list of ints"
    with pytest.raises(TypeError, match=match):
        stream.column(seed, 101, 4)
    with pytest.raises(TypeError, match=match):
        qcsa_roundtrip(QcsaParams.default(PrimeField(13), 4, 2), seed)
    assert calls == []


def test_a_full_block_stays_small():
    """The transient arrays of one N = 64 block of TRIAL_BLOCK trials stay under 3 MB."""
    stream.draws(7, range(TRIAL_BLOCK), 2**31 - 1, 128)  # builds the cached tables
    tracemalloc.start()
    try:
        stream.draws(7, range(TRIAL_BLOCK), 2**31 - 1, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak
