"""Each command computes its derived values once, and none eliminates.

Before each command the program's ``lru_cache`` tables are cleared, as
``perfbench/run.py`` clears them, so every count is that of a fresh
process.  The point is N = 12, L = 5, p = 2^31 - 1.  C and C^{-1} live
with their ``QcsaParams``, so dropped parameters take them along.
"""

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from qcsa import codes, field, matrix, nsumbox, scheme, stream  # stream is otherwise loaded lazily
from qcsa.cli import main  # loads every other qcsa module

QCSA_MODULES = [module for name, module in sys.modules.items()
                if name == "qcsa" or name.startswith("qcsa.")]
POINT = ["--p", str(2**31 - 1), "--N", "12", "--L", "5"]


def _clear_caches():
    for module in QCSA_MODULES:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _count(monkeypatch, owner, name) -> list:
    """A list that grows by one on each call of ``owner.name``, from any qcsa module."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counted)
    for module in QCSA_MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


def _primality_tests(monkeypatch) -> list:
    """A list that grows by one per Miller-Rabin base that ``field.is_prime`` tries.

    On a prime past the bases, one test tries every base once.
    """
    calls = []

    def counted_pow(*args):
        calls.append(None)
        return pow(*args)

    monkeypatch.setattr(field, "pow", counted_pow, raising=False)
    return calls


@pytest.fixture
def bundle(tmp_path):
    path = tmp_path / "bundle.json"
    assert main(["construct", *POINT, "--out", str(path)]) == 0
    return path


def test_construct_derives_v_and_the_pair_once(bundle, tmp_path, monkeypatch, capsys):
    """construct and simulate take v from C^{-1}'s own point products, z against
    alpha and z against f, and never call dual_multipliers; verify derives v
    from the GRS dual formula once, as its cross-check.  Qu and Qv come from
    the one C, and the modulus is tested once."""
    products = _count(monkeypatch, codes, "_difference_products")
    duals = _count(monkeypatch, codes, "dual_multipliers")
    csa = _count(monkeypatch, codes, "csa_matrix")
    rounds = _primality_tests(monkeypatch)
    counts = {}
    for argv in (["construct", *POINT, "--out", str(tmp_path / "b.json")],
                 ["verify", str(bundle)],
                 ["simulate", *POINT, "--trials", "100", "--out", str(tmp_path / "t.jsonl")]):
        _clear_caches()
        assert main(argv) == 0
        counts[argv[0]] = (len(products), len(duals), len(csa), len(rounds) / len(field._MR_BASES))
        for calls in (products, duals, csa, rounds):
            calls.clear()
    assert counts == {"construct": (2, 0, 1, 1), "verify": (1, 1, 1, 1), "simulate": (2, 0, 1, 1)}
    assert capsys.readouterr().out.endswith("14/14 checks passed\n")


def test_each_command_builds_c_once_and_its_inverse_at_most_once(bundle, tmp_path,
                                                                 monkeypatch, capsys):
    csa = _count(monkeypatch, codes, "csa_matrix")
    inverses = _count(monkeypatch, codes, "_csa_inverse")
    counts = {}
    for argv in (["construct", *POINT, "--out", str(tmp_path / "b.json")],
                 ["verify", str(bundle)],
                 ["simulate", *POINT, "--trials", "100", "--out", str(tmp_path / "t.jsonl")]):
        _clear_caches()
        assert main(argv) == 0
        counts[argv[0]] = (len(csa), len(inverses))
        csa.clear()
        inverses.clear()
    assert counts == {"construct": (1, 1), "verify": (1, 0), "simulate": (1, 1)}
    assert capsys.readouterr().out.endswith("14/14 checks passed\n")


def test_dropped_parameters_take_their_matrices_with_them():
    """No table outlives a system: 20 dropped N = 128 builds leave under 1 MB traced."""
    gf = field.PrimeField(65521)
    rng = np.random.default_rng(22)
    nsumbox.build_qcsa_system(codes.QcsaParams.random(gf, 128, 32, rng))
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(20):
            system = nsumbox.build_qcsa_system(codes.QcsaParams.random(gf, 128, 32, rng))
            system._trial_engine.run(np.ones((256, 1), dtype=np.int64))
            del system
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000, kept


def test_verify_tests_the_modulus_once(bundle, monkeypatch, capsys):
    _clear_caches()
    rounds = _primality_tests(monkeypatch)
    assert main(["verify", str(bundle)]) == 0
    assert len(rounds) / len(field._MR_BASES) == 1
    assert capsys.readouterr().out.endswith("14/14 checks passed\n")


def test_simulate_encodes_the_params_once(tmp_path, monkeypatch, capsys):
    _clear_caches()
    to_dict = _count(monkeypatch, codes.QcsaParams, "to_dict")
    argv = ["simulate", *POINT, "--trials", "100", "--out", str(tmp_path / "t.jsonl")]
    assert main(argv) == 0
    assert len(to_dict) == 1
    assert capsys.readouterr().err.startswith("100/100 trials passed")


def test_simulate_draws_a_block_without_per_trial_seed_work(tmp_path, monkeypatch, capsys):
    """The block's entropy words are built as arrays: no per-trial entropy_words call."""
    _clear_caches()
    words = _count(monkeypatch, stream, "entropy_words")
    argv = ["simulate", *POINT, "--trials", "100", "--out", str(tmp_path / "t.jsonl")]
    assert main(argv) == 0
    assert len(words) <= 3
    assert capsys.readouterr().err.startswith("100/100 trials passed")


def test_a_round_trip_builds_no_report(monkeypatch):
    """A round trip keeps what it ran: only its to_dict encodes the params and costs."""
    params = codes.QcsaParams.default(field.PrimeField(2**31 - 1), 12, 5)
    system = nsumbox.build_qcsa_system(params)
    to_dict = _count(monkeypatch, codes.QcsaParams, "to_dict")
    costs = _count(monkeypatch, scheme, "trial_costs")
    results = [scheme.qcsa_roundtrip(params, (7, t), system) for t in range(3)]
    assert (len(to_dict), len(costs)) == (0, 0)
    assert all(result.passed for result in results)
    assert results[0].to_dict()["costs"]["downloaded_qudits"] == 12
    assert (len(to_dict), len(costs)) == (1, 1)


def test_no_command_eliminates(bundle, tmp_path, monkeypatch, capsys):
    """C^{-1} has a closed form and verify takes the premise path, so no
    command runs Gauss-Jordan on a valid bundle."""
    eliminations = _count(monkeypatch, matrix, "_eliminate")
    counts = {}
    for argv in (["construct", *POINT, "--out", str(tmp_path / "b.json")],
                 ["verify", str(bundle)],
                 ["simulate", *POINT, "--trials", "100", "--out", str(tmp_path / "t.jsonl")]):
        _clear_caches()
        assert main(argv) == 0
        counts[argv[0]] = len(eliminations)
        eliminations.clear()
    assert counts == {"construct": 0, "verify": 0, "simulate": 0}
    assert capsys.readouterr().out.endswith("14/14 checks passed\n")
