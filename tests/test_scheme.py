import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qcsa import scheme
from qcsa.codes import ParameterError, QcsaParams, csa_matrix
from qcsa.field import PrimeField
from qcsa.matrix import FieldMatrix, block_diag
from qcsa.nsumbox import QcsaSystem, build_qcsa_system
from qcsa.scheme import (
    SchemeInstance,
    classical_decode,
    make_instances,
    qcsa_roundtrip,
    rate_report,
    reduce_servers,
    reduced_params,
    run_trials,
    server_scale,
    trial_blocks,
)

import oracles
from test_acceptance import GRID, PAIR_GRID

GF5 = PrimeField(5)
GF13 = PrimeField(13)

WORKED = QcsaParams(GF5, 2, 1, (1, 2), (1, 1), (3,))


def test_instance_worked_example():
    inst = SchemeInstance.from_symbols(WORKED, 1, (2,), (3,))
    assert inst.answers == (4, 0)
    inst2 = SchemeInstance.from_symbols(WORKED, 2, (4,), (0,))
    assert inst2.answers == (2, 4)
    zero = SchemeInstance.from_symbols(WORKED, 1, (0,), (0,))
    assert zero.answers == (0, 0)


def test_instances_satisfy_mixing_invariant():
    rng = np.random.default_rng(81)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        l = int(rng.integers(1, n // 2 + 1))
        params = QcsaParams.random(GF13, n, l, rng)
        i1, i2 = make_instances(params, int(rng.integers(0, 10**6)))
        csa = csa_matrix(GF13, params.alpha, params.f)
        for inst in (i1, i2):
            assert csa.matvec(inst.delta + inst.nu).tolist() == list(inst.answers)


def test_make_instances_replays_from_seed():
    a = make_instances(WORKED, 99)
    b = make_instances(WORKED, 99)
    assert a == b
    c = make_instances(WORKED, 100)
    assert a != c


def test_classical_decode_examples():
    assert classical_decode((4, 0), WORKED).tolist() == [2, 3]
    assert classical_decode((0, 0), WORKED).tolist() == [0, 0]
    rng = np.random.default_rng(82)
    params = QcsaParams.random(GF13, 7, 3, rng)
    csa = csa_matrix(GF13, params.alpha, params.f)
    for _ in range(20):
        x = rng.integers(0, 13, size=7)
        assert classical_decode(csa.matvec(x), params).tolist() == x.tolist()


def test_classical_decode_batched_columns():
    rng = np.random.default_rng(83)
    params = QcsaParams.random(GF13, 6, 2, rng)
    csa = csa_matrix(GF13, params.alpha, params.f)
    xs = rng.integers(0, 13, size=(6, 10))
    answers = (csa @ FieldMatrix(GF13, xs)).array
    assert classical_decode(answers, params).tolist() == xs.tolist()
    with pytest.raises(ValueError):
        classical_decode(np.zeros((3, 2), dtype=np.int64), params)


def test_server_scale_examples():
    x = server_scale(GF5, (4, 0), (2, 4), (1, 1), (1, 1))
    assert x.tolist() == [4, 0, 2, 4]
    x = server_scale(GF5, (4, 0), (2, 4), (1, 1), (4, 1))
    assert x.tolist() == [4, 0, 3, 4]
    assert server_scale(GF5, (0, 0), (0, 0), (1, 1), (4, 1)).tolist() == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        server_scale(GF5, (4, 0, 1), (2, 4), (1, 1), (4, 1))
    with pytest.raises(ParameterError):
        server_scale(GF5, (4, 0), (2, 4), (0, 1), (4, 1))


def test_server_scale_is_local_to_each_server():
    rng = np.random.default_rng(84)
    params = QcsaParams.random(GF13, 8, 3, rng)
    system = build_qcsa_system(params)
    i1, i2 = make_instances(params, 5)
    x = server_scale(GF13, i1.answers, i2.answers, system.u, system.v)
    # stitch the same vector together from purely per-server calls
    tops, bottoms = [], []
    for n in range(params.N):
        top, bottom = server_scale(
            GF13, [i1.answers[n]], [i2.answers[n]], [system.u[n]], [system.v[n]]
        ).tolist()
        tops.append(top)
        bottoms.append(bottom)
    assert x.tolist() == tops + bottoms


def test_server_scale_matches_block_diagonal_route():
    rng = np.random.default_rng(85)
    params = QcsaParams.random(GF13, 6, 3, rng)
    system = build_qcsa_system(params)
    i1, i2 = make_instances(params, 6)
    scaling = block_diag(
        [FieldMatrix.diagonal(GF13, system.u), FieldMatrix.diagonal(GF13, system.v)]
    )
    via_matrix = scaling.matvec(i1.answers + i2.answers)
    assert server_scale(GF13, i1.answers, i2.answers, system.u, system.v).tolist() \
        == via_matrix.tolist()


def test_roundtrip_worked_example():
    # seeded draws replaced by the fixed worked symbols via direct assembly
    system = build_qcsa_system(WORKED)
    i1 = SchemeInstance.from_symbols(WORKED, 1, (2,), (3,))
    i2 = SchemeInstance.from_symbols(WORKED, 2, (4,), (0,))
    x = server_scale(GF5, i1.answers, i2.answers, system.u, system.v)
    assert system.box.transmit(x).tolist() == [2, 4]


def test_roundtrip_zero_inputs():
    system = build_qcsa_system(WORKED)
    assert system.box.transmit([0, 0, 0, 0]).tolist() == [0, 0]


def test_roundtrip_recovers_symbols():
    rng = np.random.default_rng(86)
    for n in range(2, 9):
        for l in range(1, n // 2 + 1):
            params = QcsaParams.default(GF13, n, l)
            system = build_qcsa_system(params)
            for t in range(10):
                result = qcsa_roundtrip(params, (13, n, l, t), system)
                assert result.passed
                assert result.y == result.expected
                assert result.delta1 == result.instances[0].delta
                assert result.delta2 == result.instances[1].delta
                # y agrees with decoding each instance classically
                dec1 = classical_decode(result.instances[0].answers, params)
                dec2 = classical_decode(result.instances[1].answers, params)
                assert result.delta1 == tuple(dec1[:l].tolist())
                assert result.delta2 == tuple(dec2[:l].tolist())


@pytest.mark.parametrize("n,l", [(n, l) for n in range(2, 13) for l in range(1, n // 2 + 1)])
def test_roundtrip_tail_structure(n, l):
    result = qcsa_roundtrip(QcsaParams.default(PrimeField(101), n, l), (n, l))
    tail1, tail2 = result.nu_tail1, result.nu_tail2
    assert (len(tail1), len(tail2)) == (n // 2 - l, (n + 1) // 2 - l)
    for tail, inst in ((tail1, result.instances[0]), (tail2, result.instances[1])):
        assert inst.nu[len(inst.nu) - len(tail):] == tail
    assert result.y == result.delta1 + tail1 + result.delta2 + tail2


def test_roundtrip_half_rate_has_empty_tails():
    params = QcsaParams.default(GF13, 6, 3)
    result = qcsa_roundtrip(params, 9)
    assert result.nu_tail1 == () and result.nu_tail2 == ()
    assert result.y == result.delta1 + result.delta2
    assert result.passed


def test_roundtrip_report_costs():
    params = QcsaParams.default(GF13, 6, 2)
    result = qcsa_roundtrip(params, 3)
    costs = result.to_dict()["costs"]
    assert costs["downloaded_qudits"] == 6
    assert costs["desired_symbols"] == 4
    assert costs["classical_download_dits"] == 12
    assert costs["qudits_per_desired_symbol"] == "3/2"
    assert run_trials(params, 3, 0)["rng"] == "pcg64"
    doc = result.to_dict()
    assert doc["pass"] is True
    assert doc["y"] == list(result.y)


def test_run_trials_counts_and_replays():
    params = QcsaParams.default(GF13, 4, 2)
    summary = run_trials(params, 21, 25)
    assert summary["trials"] == 25
    assert summary["passed"] == 25
    assert len(summary["reports"]) == 25
    again = run_trials(params, 21, 25)
    assert summary == again
    empty = run_trials(params, 21, 0)
    assert empty["passed"] == 0 and empty["reports"] == []


@pytest.mark.parametrize("trials", [0, 3])
@pytest.mark.parametrize("seed,error,message", [
    (-1, ParameterError, "seed must be nonnegative, got -1"),
    (np.int64(-2), ParameterError, "seed must be nonnegative, got -2"),
    (1.5, TypeError, "cannot be interpreted as an integer"),
    ("7", TypeError, "cannot be interpreted as an integer"),
], ids=["-1", "int64-minus-2", "float", "str"])
def test_trial_blocks_checks_its_seed_before_building(seed, error, message, trials,
                                                      monkeypatch):
    # run_trials once recorded seed -1 at 0 trials, and at 3 raised the
    # stream's bare ValueError; trial_blocks raised nothing until iterated.
    builds = []
    monkeypatch.setattr(scheme, "qcsa_channel", lambda *args: builds.append(args))
    params = QcsaParams.default(GF13, 4, 2)
    with pytest.raises(error, match=message):
        trial_blocks(params, seed, trials)
    with pytest.raises(error, match=message):
        run_trials(params, seed, trials)
    assert builds == []


def test_trial_blocks_checks_its_trial_count_before_building(monkeypatch):
    # A float count once passed the call and raised only when iterated.
    builds = []
    monkeypatch.setattr(scheme, "qcsa_channel", lambda *args: builds.append(args))
    params = QcsaParams.default(GF13, 4, 2)
    for call in (trial_blocks, run_trials):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call(params, 1, 2.0)
        with pytest.raises(ParameterError, match="trial count must be nonnegative, got -1"):
            call(params, 1, -1)
    assert builds == []


def test_the_trial_engine_refuses_a_zero_multiplier():
    params = QcsaParams.default(GF13, 4, 2)
    doc = build_qcsa_system(params).to_dict()
    doc["v"][0] = 0
    system = QcsaSystem.from_dict(doc)
    runs = (lambda: qcsa_roundtrip(params, 1, system), lambda: trial_blocks(params, 1, 3, system),
            lambda: run_trials(params, 1, 0, system))
    for run in runs:
        with pytest.raises(ParameterError, match="scaling multipliers must be nonzero"):
            run()


@pytest.mark.parametrize("seed,trials", [(np.int64(5), 3), (True, 2), (5, np.int64(3))],
                         ids=["int64-seed", "bool-seed", "int64-trials"])
def test_the_summary_records_the_request_as_ints(seed, trials):
    # An int64 seed once made the summary fail json.dumps, and True was
    # recorded as "seed": true.
    params = QcsaParams.default(GF13, 4, 2)
    summary = run_trials(params, seed, trials)
    assert json.loads(json.dumps(summary)) == summary == run_trials(params, int(seed), int(trials))
    assert type(summary["seed"]) is int and type(summary["trials"]) is int
    assert summary["reports"][0]["seed"] == [summary["seed"], 0]
    assert qcsa_roundtrip(params, summary["seed"]).seed == summary["seed"]


def test_a_negative_single_trial_seed_is_named():
    params = QcsaParams.default(GF13, 4, 2)
    for call, seed in ((qcsa_roundtrip, -1), (make_instances, (5, -1))):
        with pytest.raises(ValueError) as info:
            call(params, seed)
        assert str(info.value) == "expected non-negative integer, got -1"


GF101 = PrimeField(101)


@pytest.mark.parametrize("other", [
    QcsaParams.default(GF101, 6, 2, beta=(3, 1, 1, 1, 1, 1)),  # only u differs
    QcsaParams.default(GF101, 8, 2),
], ids=["beta", "N"])
def test_a_system_built_for_other_parameters_is_refused(other):
    params = QcsaParams.default(GF101, 6, 2)
    system = build_qcsa_system(other)
    with pytest.raises(ParameterError, match="other parameters"):
        qcsa_roundtrip(params, (1, 0), system)
    for trials in (0, 3):
        with pytest.raises(ParameterError, match="other parameters"):
            run_trials(params, 1, trials, system)
    # equal parameters built separately are the same parameters
    assert qcsa_roundtrip(QcsaParams.default(GF101, 6, 2), (1, 0), build_qcsa_system(params)).passed


DIFFERENTIAL_GRID = GRID + [(n, l, 2**31 - 1) for n, l in PAIR_GRID]


def _bumped_channel(system, rng):
    """The system with one entry of M_Q raised by one."""
    bumped = system.box.M.array.copy()
    i, j = (int(rng.integers(k)) for k in bumped.shape)
    bumped[i, j] += 1
    return replace(system, box=replace(system.box, M=FieldMatrix(system.params.field, bumped)))


def _referee(params, system, seed, trials):
    """The oracle's trials t < ``trials`` on the streams (seed, t), through system's M_Q."""
    draws = [np.random.default_rng((seed, t)).integers(0, params.field.p, size=2 * params.N)
             .tolist() for t in range(trials)]
    return oracles.qcsa_trials(params.alpha, params.f, params.beta,
                               system.box.M.array.tolist(), draws, params.field.p)


def _referee_rows(params, seed, referee):
    n, l = params.N, params.L
    costs = {"downloaded_qudits": n, "desired_symbols": 2 * l,
             "classical_download_dits": 2 * n, "qudits_per_desired_symbol": str(Fraction(n, 2 * l))}
    return [{"seed": [seed, t], "params": params.to_dict(), "y": r["y"],
             "expected": r["expected"], "pass": r["passed"], "costs": costs}
            for t, r in enumerate(referee)]


@pytest.mark.parametrize("n,l,q", DIFFERENTIAL_GRID)
def test_run_trials_matches_the_single_trial_reference(n, l, q, monkeypatch):
    """Both trial entry points equal the slow referee of tests/oracles.py, trial by trial."""
    field = PrimeField(q)
    rng = np.random.default_rng((n, l, q))
    for params in (QcsaParams.default(field, n, l), QcsaParams.random(field, n, l, rng)):
        system = build_qcsa_system(params)
        for seed, under_test in ((5, system), (6, _bumped_channel(system, rng))):
            referee = _referee(params, under_test, seed, 37)
            rows = _referee_rows(params, seed, referee)
            for trials in (0, 1, 37):
                summary = run_trials(params, seed, trials, under_test)
                assert summary["reports"] == rows[:trials]
                assert summary["passed"] == sum(r["passed"] for r in referee[:trials])
            monkeypatch.setattr(scheme, "TRIAL_BLOCK", 16)  # blocks of 16, 16 and 5 trials
            assert run_trials(params, seed, 37, under_test)["reports"] == rows
            monkeypatch.undo()
            for t, r in enumerate(referee):
                result = qcsa_roundtrip(params, (seed, t), under_test)
                assert (list(result.y), list(result.expected), result.passed) \
                    == (r["y"], r["expected"], r["passed"])
                for k, inst in enumerate(result.instances):
                    assert (list(inst.delta), list(inst.nu), list(inst.answers)) \
                        == (r["delta"][k], r["nu"][k], r["answers"][k])
            passed = sum(r["passed"] for r in referee)
            assert passed == 37 if under_test is system else passed < 37


@pytest.mark.parametrize("q", [13, 2**31 - 1])
@pytest.mark.parametrize("n", [6, 7])
def test_a_channel_with_off_diagonal_entries_transmits_through_them(n, q):
    """One entry in M_Q's top-right block and one in its bottom-left, against the referee.

    A built channel's off-diagonal blocks are zero, and the engine skips
    their product; a system that carries other ones must still transmit
    through them.
    """
    params = QcsaParams.default(PrimeField(q), n, 2)
    system = build_qcsa_system(params)
    m = system.box.M.array.copy()
    top_right, bottom_left = (n // 2 - 1, 2 * n - 1), (n // 2, 0)
    assert not m[:n // 2, n:].any() and not m[n // 2:, :n].any()
    m[top_right], m[bottom_left] = q - 1, 1
    under_test = replace(system, box=replace(system.box, M=FieldMatrix(params.field, m)))
    referee = _referee(params, under_test, 9, 20)
    [(block, y, expected, ok)] = trial_blocks(params, 9, 20, under_test)
    assert y.T.tolist() == [r["y"] for r in referee]
    assert ok.tolist() == [r["passed"] for r in referee] and not ok.all()
    for t, r in enumerate(referee):
        assert list(qcsa_roundtrip(params, (9, t), under_test).y) == r["y"]


@pytest.mark.parametrize("n,l,q", DIFFERENTIAL_GRID)
def test_one_draw_of_2n_symbols_equals_the_four_instance_draws(n, l, q):
    params = QcsaParams.default(PrimeField(q), n, l)
    for seed in ((0, 0), (1729, 1), (1729, 36), (2**40, 999)):
        i1, i2 = make_instances(params, seed)
        one_draw = np.random.default_rng(seed).integers(0, q, size=2 * n)
        assert one_draw.tolist() == list(i1.delta + i1.nu + i2.delta + i2.nu)
        assert (i1, i2) == qcsa_roundtrip(params, seed).instances


def test_reduce_servers_examples():
    assert reduce_servers(4, 3) == (2, 1)
    assert reduce_servers(4, 2) == (4, 2)
    assert reduce_servers(10, 7) == (6, 3)
    n2, l2 = reduce_servers(10, 7)
    assert 10 - 7 == n2 - l2
    with pytest.raises(ParameterError):
        reduce_servers(4, 4)
    with pytest.raises(ParameterError):
        reduce_servers(4, 0)


def test_reduced_params_prefix_rule():
    params = reduced_params(PrimeField(11), 4, 3)
    assert (params.N, params.L) == (2, 1)
    assert params.alpha == (0, 1)
    assert params.f == (4,)
    # reduced scheme still round-trips
    result = qcsa_roundtrip(params, 0)
    assert result.passed
    # no reduction at or below half rate
    params = reduced_params(PrimeField(11), 4, 2)
    assert (params.N, params.L) == (4, 2)


def test_reduced_params_takes_the_requested_point_counts():
    field = PrimeField(11)
    params = reduced_params(field, 4, 3, alpha=(5, 6, 7, 8), beta=(2, 3, 4, 5), f=(0, 1, 2))
    assert (params.alpha, params.beta, params.f) == ((5, 6), (2, 3), (0,))
    for points, message in (({"alpha": (5, 6)}, "alpha must have N=4 entries, got 2"),
                            ({"beta": (1,) * 5}, "beta must have N=4 entries, got 5"),
                            ({"f": (0,)}, "f must have L=3 entries, got 1")):
        with pytest.raises(ParameterError, match=message):
            reduced_params(field, 4, 3, **points)


def test_rate_report_examples():
    r = rate_report(4, 1)
    assert r.rate_classical == Fraction(1, 4)
    assert r.rate_quantum == Fraction(1, 2)
    assert r.dits_per_symbol == Fraction(4, 1)
    assert r.qudits_per_symbol == Fraction(2, 1)
    assert rate_report(4, 2).rate_quantum == Fraction(1)
    r = rate_report(4, 3)
    assert r.rate_quantum == Fraction(1)
    assert (r.N_reduced, r.L_reduced) == (2, 1)
    assert r.qudits_per_symbol == Fraction(1)


def test_rate_report_dict_uses_fraction_strings():
    doc = rate_report(4, 1).to_dict()
    assert doc["R_C"] == "1/4"
    assert doc["R_Q"] == "1/2"
    assert doc["R_C_decimal"] == 0.25
    assert doc["N'"] == 4 and doc["L'"] == 1
    with pytest.raises(ParameterError):
        rate_report(4, 5)
