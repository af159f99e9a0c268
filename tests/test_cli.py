import argparse
import copy
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcsa import cli, scheme
from qcsa.cli import DEFAULT_SEED, OUTPUT_DIR_ENV, BundleFormatError, main
from qcsa.codes import ParameterError, QcsaParams, qcsa_matrix
from qcsa.field import PrimeField
from qcsa.matrix import FieldMatrix
from qcsa.nsumbox import QcsaSystem, build_qcsa_system
from qcsa.scheme import qcsa_roundtrip, rate_report, reduced_params, run_trials


def run_cli(*argv):
    return main(list(argv))


def test_construct_worked_bundle(tmp_path):
    out = tmp_path / "bundle.json"
    rc = run_cli("construct", "--p", "5", "--N", "2", "--L", "1",
                 "--alpha", "1,2", "--f", "3", "--u", "1,1", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["v"] == [4, 1]
    assert doc["Qu"]["data"] == [3, 1, 1, 1]
    assert doc["Qv"]["data"] == [2, 4, 1, 1]
    assert doc["M_Q"]["data"] == [3, 2, 0, 0, 0, 0, 2, 2]
    assert doc["pi"]["image"] == [2, 4, 1, 3]
    assert doc["seed"] == DEFAULT_SEED


def test_construct_accepts_boundary_field(tmp_path):
    # q = N + L exactly: 3 distinct elements exist in GF(3)
    out = tmp_path / "b.json"
    assert run_cli("construct", "--p", "3", "--N", "2", "--L", "1", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["params"] == {"p": 3, "N": 2, "L": 1, "alpha": [0, 1], "beta": [1, 1], "f": [2]}


def test_construct_rejects_bad_parameters(tmp_path):
    out = tmp_path / "b.json"
    assert run_cli("construct", "--p", "5", "--N", "4", "--L", "3", "--out", str(out)) == 2
    assert run_cli("construct", "--p", "4", "--N", "2", "--L", "1", "--out", str(out)) == 2
    assert run_cli("construct", "--p", "3", "--N", "2", "--L", "2", "--out", str(out)) == 2
    assert not out.exists()


def test_construct_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("construct", "--p", "13", "--N", "5", "--L", "2")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_with_beta_emits_extra_matrix(tmp_path):
    out = tmp_path / "b.json"
    rc = run_cli("construct", "--p", "5", "--N", "2", "--L", "1",
                 "--alpha", "1,2", "--f", "3", "--u", "1,1", "--beta", "4,1",
                 "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["Q_beta"]["data"] == [2, 4, 1, 1]


def test_verify_fresh_bundle_passes(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    run_cli("construct", "--p", "13", "--N", "4", "--L", "2", "--out", str(out))
    rc = run_cli("verify", str(out))
    printed = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in printed
    assert "PASS selector_identity" in printed
    assert "PASS g_rank" in printed


def test_verify_reads_a_fresh_bundle_without_json_load(tmp_path, capsys, monkeypatch):
    """A valid bundle takes the array reader alone: the json.load re-read never runs."""
    out = tmp_path / "bundle.json"
    assert run_cli("construct", "--p", "65521", "--N", "64", "--L", "16", "--out", str(out)) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("json.load re-read a valid bundle")

    monkeypatch.setattr(json, "load", refuse)
    assert run_cli("verify", str(out)) == 0
    assert capsys.readouterr().out.endswith("14/14 checks passed\n")


@pytest.mark.parametrize("p,n,l", [(3, 2, 1), (11, 5, 2), (17, 7, 3), (101, 8, 4)])
def test_construct_verify_fixed_point(tmp_path, p, n, l):
    out = tmp_path / "bundle.json"
    assert run_cli("construct", "--p", str(p), "--N", str(n), "--L", str(l),
                   "--out", str(out)) == 0
    assert run_cli("verify", str(out)) == 0


def test_verify_detects_corrupted_channel_matrix(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    run_cli("construct", "--p", "13", "--N", "4", "--L", "1", "--out", str(out))
    doc = json.loads(out.read_text())
    doc["M_Q"]["data"][0] = (doc["M_Q"]["data"][0] + 1) % 13
    out.write_text(json.dumps(doc))
    rc = run_cli("verify", str(out))
    printed = capsys.readouterr().out
    assert rc == 1
    assert "FAIL selector_identity" in printed


def test_verify_detects_zeroed_g_column(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    run_cli("construct", "--p", "13", "--N", "4", "--L", "1", "--out", str(out))
    doc = json.loads(out.read_text())
    cols = doc["G"]["cols"]
    for row in range(doc["G"]["rows"]):
        doc["G"]["data"][row * cols] = 0
    out.write_text(json.dumps(doc))
    rc = run_cli("verify", str(out))
    printed = capsys.readouterr().out
    assert rc == 1
    assert "FAIL g_rank" in printed


def test_verify_malformed_file(tmp_path, capsys):
    assert run_cli("verify", str(tmp_path / "missing.json")) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("verify", str(bad)) == 3
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps({"params": {"p": 5, "N": 2, "L": 1,
                                                "alpha": [1, 2], "beta": [1, 1], "f": [3]}}))
    assert run_cli("verify", str(truncated)) == 3
    # Each of these once gave "internal error" (exit 1).
    unreadable = {
        "not-utf8.json": b"\xff\xfe{}",
        "long-int.json": b'{"seed": 1' + b"0" * 4300 + b"}",
        "deep.json": b"[" * 100_000 + b"]" * 100_000,
    }
    for name, content in unreadable.items():
        path = tmp_path / name
        path.write_bytes(content)
        capsys.readouterr()
        assert run_cli("verify", str(path)) == 3, name
        assert f"cannot read bundle {path}" in capsys.readouterr().err


WIDE_U = ",".join(map(str, range(2, 257)))


def _points_id(args) -> str:
    points = "-points" if "--alpha" in args else "-u" if "--u" in args else ""
    return points + ("-beta" if "--beta" in args else "")


# SHA-256 of `qcsa construct` stdout, recorded from the construction that
# inverted the 2N x 2N Block-Diag(Qu, Qv), so they hold the C^{-1} route to
# the same bytes.
CONSTRUCT_DIGESTS = [
    (("--N", "2", "--L", "1", "--p", "3"),
     "97f0e8b3ed6f960caecfe862332167c3cc9a2640c99c9c8c125ab0b5371c03fb"),
    (("--N", "3", "--L", "1", "--p", "5"),
     "16f3b42e62817a358e6928dbe38c99d122835491df51f977dba005389cd13f4b"),
    (("--N", "5", "--L", "2", "--p", "101"),
     "3c01d27ca499b4620d4323f8f195913b84419249339b173c8a2be7e19be6352b"),
    (("--N", "8", "--L", "4", "--p", "65521"),
     "4ddb2767dc12738c5c38600327baae57f8cfe4643b0664717a1ba116d36ba568"),
    (("--N", "12", "--L", "3", "--p", "2147483647"),
     "85b70a98dc3c71dc2b7514471a13c89020df91bf01d40af3bfe6547903f181dc"),
    (("--N", "12", "--L", "6", "--p", "19"),
     "18714167dfe315bdbeabe108e4655146f1568c3a2af54f9e568238d6813c60d0"),
    (("--N", "5", "--L", "2", "--p", "2147483647"),
     "c43a156e7cebdaab0d2d5d02fd283c1ec3e925d3b07cd0556d54704580587043"),
    (("--N", "5", "--L", "2", "--p", "101", "--alpha", "7,3,50,11,99", "--f", "20,64",
      "--u", "5,17,1,88,42"),
     "43d631463a197b27e4e4b379aebd471d7e60b1aa182ecbc1ff72a3dab09ec5b1"),
    (("--N", "8", "--L", "3", "--p", "2147483647", "--alpha", "7,3,50,11,99,2000000000,5,6",
      "--f", "20,64,1234567", "--u", "5,17,1,88,42,2147483646,3,9"),
     "e826ecfb57ffd6010d9355c967e661de2603238be812a8505b8223cd252878b2"),
    # Recorded when construct wrote every entry with %d from to_dict's lists.
    # G, H and M_Q here are the smallest leaves searched for zero runs, and
    # hold 95, 95 and 47 runs of 16 or more zeros.
    (("--N", "48", "--L", "12", "--p", "65521"),
     "59fb4a466834758178f70c70a7ed8825362a9adc3b37167b8926ee77061311f0"),
    # Recorded when v came from the GRS dual formula and M_Q's multipliers
    # from one batch inverse of [u; v]: non-unit u at the benchmark's two
    # large shapes, where each v_n = 1/(u_n d_n) has 255 point factors in d_n.
    (("--N", "255", "--L", "64", "--p", "2147483647", "--u", WIDE_U),
     "957b39d21f656af87759b2e58c601f5a95eb5f1fe366446a59e29b4b1e256f01"),
    (("--N", "256", "--L", "64", "--p", "65521",
      "--u", ",".join(map(str, range(65520, 65264, -1)))),
     "2aedfb59c8ea42d2ceaca31145eed33684eb30379d249f58ec3908a9154c0fa7"),
    # Recorded when Q_beta came from a second parameter set (with_beta),
    # which built its own C.
    (("--N", "5", "--L", "2", "--p", "101", "--beta", "3,1,4,1,5"),
     "a7ecd6ed529b08d1ffe1a7d27ea245c6b4ee62fbfac33594a10bfc2c4da64aa0"),
    (("--N", "48", "--L", "12", "--p", "65521", "--beta", ",".join(map(str, range(2, 50)))),
     "da10b7c80ed3906b0cfe02f856041cd7fccd94d443ba0394792cd9095a929bb1"),
]
DIGEST_IDS = ["-".join(args[1:6:2]) + _points_id(args) for args, _ in CONSTRUCT_DIGESTS]


@pytest.mark.parametrize("args,digest", CONSTRUCT_DIGESTS, ids=DIGEST_IDS)
def test_construct_bytes_are_pinned(capsys, args, digest):
    assert run_cli("construct", *args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# SHA-256 of `qcsa simulate --out` JSONL, recorded from an earlier engine
# that ran each trial on its own through per-instance draws and
# matrix-vector products, so they hold the one batched trial engine, which
# run_trials and qcsa_roundtrip now share, to the same bytes.
SIMULATE_DIGESTS = [
    (("--p", "13", "--N", "10", "--L", "8"),
     "6c0f5b8b80a448c7ad57a89e4f27bca0261167f547810f0014bac98bffd15129"),
    (("--p", "3", "--N", "2", "--L", "1", "--trials", "30"),
     "d4dee34b28264e8e5e1fe6fd07aae742560b245cea0dd5dc2e9d16343cf90838"),
    (("--p", "101", "--N", "7", "--L", "2", "--seed", "5"),
     "9c7aa6084e19cf2b4647a4c2e3ac40aa62386cc81ab1d05b34678137f73e7f3a"),
    (("--p", "65521", "--N", "12", "--L", "5", "--trials", "40"),
     "c77de6d015cf7e00fec2b8466134f51af68e4622cadc0f0611e109b2ecaebb2f"),
    (("--p", "19", "--N", "8", "--L", "4"),
     "6f6548964595d83224178304747a1c56ec17e9736ca6ebdf5edf4f57fd48207f"),
    (("--p", "2147483647", "--N", "64", "--L", "32", "--trials", "50"),
     "81b72aeb6a2195230abd319b8d382d74501df13ed1db84400fad4bae9c898f93"),
    (("--p", "101", "--N", "5", "--L", "2", "--alpha", "7,3,50,11,99", "--f", "20,64",
      "--u", "5,17,1,88,42", "--seed", "3", "--trials", "20"),
     "30c0ec7faa2738d95d008274647d05a3e67715f585e47cd56c7217105e8a0c50"),
    # p = 2^30 + 3 rejects about one 32-bit draw in four in Lemire's bounded
    # method, which no smaller golden modulus does.
    (("--p", "1073741827", "--N", "12", "--L", "5", "--trials", "300"),
     "b49c664c0880367069d553ee098a77663a1621f73d0103159ed7f0e93975bf72"),
    # Recorded when simulate cut M_Q from the whole Block-Diag of C^{-1}
    # Diag(u)^{-1} and C^{-1} Diag(v)^{-1}: the benchmark's two large shapes,
    # and an odd N whose channel keeps one row of C^{-1}'s tail.
    (("--p", "65521", "--N", "256", "--L", "64", "--trials", "20"),
     "026a17417f163528ee51090d91df5f3e9be8d22a40a8a7b77017870c6609e94c"),
    (("--p", "2147483647", "--N", "255", "--L", "64", "--trials", "20"),
     "4ba00331d6ceeaf901ef40eb04f165d578860b125641fb429511698c8c471d87"),
    (("--p", "101", "--N", "9", "--L", "4", "--trials", "30"),
     "e1ebcf0526066b284096eaa1b8f9f58610339b8bdd6ee7f915d9af4da7f46d67"),
    # Recorded with CONSTRUCT_DIGESTS' non-unit u at N = 255.
    (("--p", "2147483647", "--N", "255", "--L", "64", "--u", WIDE_U, "--trials", "20"),
     "264161e4505ae1ce17e7428e7858af9ca9fb383a0506b21719050ff1b18a6286"),
]
SIMULATE_IDS = ["-".join(args[1:6:2]) + _points_id(args) for args, _ in SIMULATE_DIGESTS]


@pytest.mark.parametrize("args,digest", SIMULATE_DIGESTS, ids=SIMULATE_IDS)
def test_simulate_bytes_are_pinned(tmp_path, capsys, args, digest):
    out = tmp_path / "trials.jsonl"
    assert run_cli("simulate", *args, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().err.count("\n") == 1  # the summary line and nothing else


def _tamper_with_m_q(monkeypatch):
    """Make simulate at p=13, N=6, L=2 run on a channel with one M_Q entry bumped."""
    params = QcsaParams.default(PrimeField(13), 6, 2)
    system = build_qcsa_system(params)
    bumped = system.box.M.array.copy()
    bumped[3, 7] += 1
    tampered = replace(system, box=replace(system.box, M=FieldMatrix(params.field, bumped)))
    monkeypatch.setattr("qcsa.scheme.qcsa_channel", lambda _: (tampered.v, tampered.box.M))
    return params, tampered


def test_simulate_names_the_first_failing_trial(tmp_path, capsys, monkeypatch):
    params, tampered = _tamper_with_m_q(monkeypatch)
    out = tmp_path / "trials.jsonl"
    assert run_cli("simulate", "--p", "13", "--N", "6", "--L", "2", "--seed", "8",
                   "--trials", "20", "--out", str(out)) == 1
    *rows, summary = map(json.loads, out.read_text().splitlines())
    assert 0 < summary["passed"] < 20
    t = next(t for t in range(20) if not qcsa_roundtrip(params, (8, t), tampered).passed)
    result = qcsa_roundtrip(params, (8, t), tampered)
    assert [row["pass"] for row in rows].index(False) == t
    # Only row 3 of M_Q changed, so y first departs from the prediction there.
    assert result.y[:3] == result.expected[:3] and result.y[3] != result.expected[3]
    summary_line, failure = capsys.readouterr().err.splitlines()
    assert summary_line.startswith(f"{summary['passed']}/20 trials passed")
    assert failure == (f"first failing trial: (seed, t) = (8, {t}); "
                       f"y[3] = {result.y[3]}, expected {result.expected[3]}")


def test_a_failing_block_writes_the_y_it_got(tmp_path, monkeypatch):
    # A passing block writes its expected text as y too; a failing one must not.
    params, tampered = _tamper_with_m_q(monkeypatch)
    out = tmp_path / "trials.jsonl"
    assert run_cli("simulate", "--p", "13", "--N", "6", "--L", "2", "--seed", "8",
                   "--trials", "20", "--out", str(out)) == 1
    *rows, _ = map(json.loads, out.read_text().splitlines())
    assert len(rows) == 20
    for t, row in enumerate(rows):
        result = qcsa_roundtrip(params, (8, t), tampered)
        assert (row["y"], row["expected"], row["pass"]) == (
            list(result.y), list(result.expected), result.passed), t


# The writers in cli emit these layouts directly; json itself is the referee,
# at sizes and in shapes the goldens above do not reach.
def assert_same_text(got: str, want: str):
    """Report the first difference only: a diff of megabytes would take minutes."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"first difference at char {at}: {got[at:at + 60]!r} vs {want[at:at + 60]!r}")


def _referee_bundle(args) -> str:
    p, n, l = args["p"], args["N"], args["L"]
    params = QcsaParams.default(PrimeField(p), n, l)
    if "alpha" in args:
        params = replace(params, alpha=tuple(args["alpha"]), beta=tuple(args["u"]))
    bundle = build_qcsa_system(params).to_dict()
    bundle["seed"] = DEFAULT_SEED
    if "beta" in args:
        bundle["Q_beta"] = qcsa_matrix(params.with_beta(args["beta"])).to_dict()
    return json.dumps(bundle, indent=2, sort_keys=True) + "\n"


LARGE_BUNDLES = {
    "256-64-65521": {"p": 65521, "N": 256, "L": 64},
    "255-64-2^31-1": {"p": 2**31 - 1, "N": 255, "L": 64},
    "256-64-65521-beta": {"p": 65521, "N": 256, "L": 64, "beta": range(2, 258)},
    "255-64-2^31-1-beta": {"p": 2**31 - 1, "N": 255, "L": 64,
                           "beta": range(2**31 - 2, 2**31 - 257, -1)},
    # Given --alpha, --u and --beta; at N = 2, L = 1 the list f has one entry.
    "2-1-13-points": {"p": 13, "N": 2, "L": 1, "alpha": (7, 3), "u": (5, 12), "beta": (4, 9)},
    "5-2-13-points": {"p": 13, "N": 5, "L": 2, "alpha": (12, 0, 10, 9, 8), "u": (1, 2, 3, 4, 11),
                      "beta": (6, 7, 8, 1, 10)},
}


@pytest.mark.parametrize("args", LARGE_BUNDLES.values(), ids=LARGE_BUNDLES)
def test_construct_bytes_match_json_at_large_n(capsys, args):
    argv = ["construct", "--p", str(args["p"]), "--N", str(args["N"]), "--L", str(args["L"])]
    for key in ("alpha", "u", "beta"):
        if key in args:
            argv += [f"--{key}", ",".join(map(str, args[key]))]
    assert run_cli(*argv) == 0
    assert_same_text(capsys.readouterr().out, _referee_bundle(args))


def _leaf(size: int, *zero_runs) -> np.ndarray:
    """``size`` nonzero residues below 2^31 - 1, but 0 on each [start, end) of ``zero_runs``."""
    arr = np.random.default_rng(size).integers(1, 2**31 - 1, size)
    for start, end in zero_runs:
        arr[start:end] = 0
    return arr


# Leaves at the edges of the writer's zero runs (16 or more entries), its
# 4096-entry chunks and its size guard (only a leaf of 4096 entries or more
# is searched for runs).
WRITER_LEAVES = {
    "runs-15-16-17": _leaf(5000, (100, 115), (200, 216), (300, 317)),
    "run-across-a-chunk": _leaf(9000, (4080, 4120)),
    "run-into-a-chunk-edge": _leaf(9000, (4060, 4096)),
    "run-from-a-chunk-edge": _leaf(9000, (4096, 4130)),
    "run-at-start": _leaf(5000, (0, 40)),
    "run-at-end": _leaf(5000, (4950, 5000)),
    "runs-at-both-ends": _leaf(4096, (0, 16), (4080, 4096)),
    "all-zero": np.zeros(10_000, dtype=np.int64),
    "no-zero": _leaf(10_000),
    "one-entry": np.array([7]),
    "one-zero": np.array([0]),
    "under-the-guard": _leaf(4095, (10, 60), (4000, 4095)),
    "at-the-guard": _leaf(4096, (10, 60), (4000, 4096)),
    "over-the-guard": _leaf(4097, (10, 60), (4000, 4097)),
}


@pytest.mark.parametrize("leaf", WRITER_LEAVES.values(), ids=WRITER_LEAVES)
def test_writer_leaves_match_json(leaf):
    # A matrix's data sits at the depth of a bundle's; the same entries as a
    # list take the writer's one leaf path too.
    doc = {"M": {"cols": 1, "data": leaf, "p": 2**31 - 1}, "flat": leaf.tolist()}
    want = json.dumps({**doc, "M": {**doc["M"], "data": leaf.tolist()}},
                      indent=2, sort_keys=True) + "\n"
    assert_same_text("".join(cli._json_chunks(doc)) + "\n", want)


# Recorded when the rate table had a writer of its own, before json.dump.
RATES_JSON_DIGESTS = {
    "2:40": (("--N", "2:40"),
             "9cd3afe074dbac3a9a390a66be58a7b5e38f0f62573ea13180e8feb200092a37"),
    "2:200": (("--N", "2:200"),
              "4694ee95fad3200e6a223640f75defefcea331f0d7fb5d0ae5f72e746c086603"),
    "2:6-L2:3": (("--N", "2:6", "--L", "2:3"),
                 "a75fcc1ee3c7255bc677c2517d533aa8086eae3061e42c2b55a3d1598ec6b628"),
}


@pytest.mark.parametrize("args,digest", RATES_JSON_DIGESTS.values(), ids=RATES_JSON_DIGESTS)
def test_rates_json_bytes_match_their_digest(capsys, args, digest):
    assert run_cli("rates", *args, "--format", "json") == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _referee_jsonl(params, argv, system=None) -> str:
    n, l, seed, trials = (int(argv[argv.index(flag) + 1])
                          for flag in ("--N", "--L", "--seed", "--trials"))
    summary = run_trials(params, seed, trials, system)
    rows = summary.pop("reports")
    summary["reduced"] = (params.N, params.L) != (n, l)
    summary["requested"] = {"N": n, "L": l}
    return "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in rows + [summary])


SIMULATE_REFEREE_RUNS = {
    # L = N/2: both interference tails are empty.
    "8-4-19": ("--p", "19", "--N", "8", "--L", "4", "--seed", "2", "--trials", "30"),
    "reduced-10-8-13": ("--p", "13", "--N", "10", "--L", "8", "--seed", "0", "--trials", "9"),
    # More trials than one block of rows.
    "64-32-2^31-1": ("--p", "2147483647", "--N", "64", "--L", "32", "--seed", "11",
                     "--trials", "300"),
    "zero-trials": ("--p", "13", "--N", "5", "--L", "2", "--seed", "1", "--trials", "0"),
}


@pytest.mark.parametrize("argv", SIMULATE_REFEREE_RUNS.values(), ids=SIMULATE_REFEREE_RUNS)
def test_simulate_rows_match_json(tmp_path, argv):
    out = tmp_path / "trials.jsonl"
    assert run_cli("simulate", *argv, "--out", str(out)) == 0
    p, n, l = (int(argv[argv.index(flag) + 1]) for flag in ("--p", "--N", "--L"))
    assert_same_text(out.read_text(), _referee_jsonl(reduced_params(PrimeField(p), n, l), argv))


def test_failing_simulate_rows_match_json(tmp_path, monkeypatch):
    params, tampered = _tamper_with_m_q(monkeypatch)
    argv = ("--p", "13", "--N", "6", "--L", "2", "--seed", "8", "--trials", "20")
    out = tmp_path / "trials.jsonl"
    assert run_cli("simulate", *argv, "--out", str(out)) == 1
    text = out.read_text()
    assert '"pass": false' in text and '"pass": true' in text
    assert_same_text(text, _referee_jsonl(params, argv, tampered))


# simulate writes each block of TRIAL_BLOCK trials as it runs; at the block
# edges its bytes must still be json's over run_trials' rows.
EDGE_TRIALS = [0, 1, scheme.TRIAL_BLOCK - 1, scheme.TRIAL_BLOCK, scheme.TRIAL_BLOCK + 1,
               scheme.TRIAL_BLOCK + 7]


@pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
@pytest.mark.parametrize("trials", EDGE_TRIALS)
def test_streamed_rows_match_json_at_block_edges(tmp_path, capsys, trials, to_stdout):
    argv = ("--p", "65521", "--N", "12", "--L", "5", "--seed", "4", "--trials", str(trials))
    out = tmp_path / "trials.jsonl"
    assert run_cli("simulate", *argv, *(() if to_stdout else ("--out", str(out)))) == 0
    captured = capsys.readouterr()
    text = captured.out if to_stdout else out.read_text()
    assert_same_text(text, _referee_jsonl(reduced_params(PrimeField(65521), 12, 5), argv))
    assert captured.out == (text if to_stdout else "")
    assert captured.err == (f"{trials}/{trials} trials passed at N=12 L=5 q=65521 "
                            "(12 qudits per trial for 10 desired symbols)\n")


@pytest.mark.parametrize("cols", [1, 5])
@pytest.mark.parametrize("top", [0, 1, 9, 10, 99, 100, 2**31 - 2, 2**32 - 1])
def test_int_rows_match_str(top, cols):
    """The JSONL writer's digit arithmetic, at each digit-count edge."""
    a = np.random.default_rng(top).integers(0, top + 1, size=(9, cols))
    a[:, -1] = np.minimum([top, 0, 1, 9, 10, 99, 100, 10**9, 2**32 - 1], top)
    assert cli._int_rows(a) == [str(row)[1:-1] for row in a.tolist()]


def test_failures_in_many_blocks_report_as_in_one(tmp_path, capsys, monkeypatch):
    """In blocks of 4 trials the passes and failures fall in several blocks;
    the rows, the pass count and the first failure stay those of one block."""
    params, tampered = _tamper_with_m_q(monkeypatch)
    argv = ("--p", "13", "--N", "6", "--L", "2", "--seed", "8", "--trials", "20")
    runs = []
    for block in (scheme.TRIAL_BLOCK, 4):
        monkeypatch.setattr(scheme, "TRIAL_BLOCK", block)
        out = tmp_path / f"trials-{block}.jsonl"
        assert run_cli("simulate", *argv, "--out", str(out)) == 1
        runs.append((out.read_text(), capsys.readouterr().err))
    assert runs[0] == runs[1]
    text, err = runs[1]
    assert_same_text(text, _referee_jsonl(params, argv, tampered))
    passes = [row["pass"] for row in map(json.loads, text.splitlines()[:-1])]
    assert len({t // 4 for t, ok in enumerate(passes) if ok}) > 1
    assert {t // 4 for t, ok in enumerate(passes) if not ok} == set(range(5))
    assert err.startswith(f"{sum(passes)}/20 trials passed") and err.count("\n") == 2


INVALID_SIMULATIONS = {
    "repeated-alpha": ("--alpha", "1,1,2,3"),
    "zero-u": ("--u", "0,1,1,1"),
    "negative-trials": ("--trials", "-1"),
    "refused-build": (),
}


def _refuse(params):
    raise ParameterError("no system for these parameters")


@pytest.mark.parametrize("argv", INVALID_SIMULATIONS.values(), ids=INVALID_SIMULATIONS)
def test_an_invalid_simulate_leaves_an_existing_out_untouched(tmp_path, monkeypatch, argv):
    # The channel is built before --out is opened, so its errors count too.
    monkeypatch.setattr("qcsa.scheme.qcsa_channel", _refuse)
    out = tmp_path / "trials.jsonl"
    out.write_bytes(b"an earlier run\n")
    assert run_cli("simulate", "--p", "13", "--N", "4", "--L", "2", *argv, "--out", str(out)) == 2
    assert out.read_bytes() == b"an earlier run\n"


def test_simulate_memory_stays_flat_in_trials(tmp_path, capsys):
    """simulate holds one block of trials at a time: 20,000 trials at N = 64
    trace under 8 MB, where building every row first took 109 MB."""
    argv = ("simulate", "--p", "2147483647", "--N", "64", "--L", "16", "--trials", "20000",
            "--out", str(tmp_path / "trials.jsonl"))
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak
    assert capsys.readouterr().err.startswith("20000/20000 trials passed")


def test_simulate_builds_only_the_channel(tmp_path, capsys):
    """simulate builds v and M_Q, not Qu, Qv, G, H or the Block-Diag of
    C^{-1}: one trial at N = 256 traces under 5 MB, where the whole bundle took 7.2 MB."""
    tracemalloc.start()
    try:
        assert run_cli("simulate", "--p", "65521", "--N", "256", "--L", "64", "--trials", "1",
                       "--out", str(tmp_path / "trials.jsonl")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak
    assert capsys.readouterr().err.startswith("1/1 trials passed")


def test_construct_memory_holds_no_int_lists(tmp_path):
    """construct writes from the int64 arrays, whose zero runs are constant
    text: N = 256 traces under 12 MB, where writing to_dict's int lists took 19.9 MB."""
    tracemalloc.start()
    try:
        assert run_cli("construct", "--p", "65521", "--N", "256", "--L", "64",
                       "--out", str(tmp_path / "bundle.json")) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000, peak


def _set(path, transform):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = transform(doc[last])
    return edit


def _del(path):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        del doc[last]
    return edit


# Each edit once gave "internal error" (exit 1), a silent 14/14 PASS or,
# for a missing key, a message without the key's parent.
MALFORMED_BUNDLES = {
    "M_Q entry 2^70": (_set(("M_Q", "data", 0), lambda x: 2**70), "M_Q: data[0]"),
    "M_Q entry x+0.5": (_set(("M_Q", "data", 0), lambda x: x + 0.5), "M_Q: data[0]"),
    "v entry x+0.5": (_set(("v", 1), lambda x: x + 0.5), "v[1]"),
    "M_Q entry x+p": (_set(("M_Q", "data", 0), lambda x: x + 13), "M_Q: data[0]"),
    "N true": (_set(("params", "N"), lambda x: True), "params: N"),
    "pi image float": (_set(("pi", "image", 0), float), "pi: image[0]"),
    # numpy would take each of these without complaint, or fail unnamed.
    "M_Q entry true": (_set(("M_Q", "data", 5), lambda x: True), "M_Q: data[5]"),
    "G entry 2^63": (_set(("G", "data", 2), lambda x: 2**63), "G: data[2]"),
    "Qu entry -1": (_set(("Qu", "data", 3), lambda x: -1), "Qu: data[3]"),
    "u entry true": (_set(("u", 0), lambda x: True), "u[0]"),
    "H data dict": (_set(("H", "data"), lambda x: {}), "H: data must be a list"),
    "pi n 2^64, image entry 2^63": (
        _set(("pi",), lambda pi: {"n": 2**64, "image": [2**63] + pi["image"][1:]}),
        "pi: image[0]"),
    "seed string": (_set(("seed",), lambda x: "abc"), "seed must be an integer"),
    "seed float": (_set(("seed",), float), "seed must be an integer"),
    "Q_beta entry 1.5": (
        lambda doc: doc.update(Q_beta=dict(doc["Qu"], data=[1.5] + doc["Qu"]["data"][1:])),
        "Q_beta: data[0]"),
    "Q_beta over another modulus": (
        lambda doc: doc.update(Q_beta=dict(doc["Qu"], p=11,
                                           data=[x % 11 for x in doc["Qu"]["data"]])),
        "Q_beta modulus"),
    "Q_beta 3 x 3": (
        lambda doc: doc.update(Q_beta=dict(doc["Qu"], rows=3, cols=3, data=doc["Qu"]["data"][:9])),
        "Q_beta must have shape"),
    "Qu rows missing": (_del(("Qu", "rows")), "Qu: missing key 'rows'"),
    "pi n missing": (_del(("pi", "n")), "pi: missing key 'n'"),
    "params alpha missing": (_del(("params", "alpha")), "params: missing key 'alpha'"),
    "v missing": (_del(("v",)), "bundle.json: missing key 'v'"),
    "pi missing": (_del(("pi",)), "bundle.json: missing key 'pi'"),
}


@pytest.mark.parametrize("edit,key", MALFORMED_BUNDLES.values(), ids=MALFORMED_BUNDLES)
def test_verify_rejects_malformed_entries(tmp_path, capsys, edit, key):
    out = tmp_path / "bundle.json"
    run_cli("construct", "--p", "13", "--N", "4", "--L", "1", "--out", str(out))
    doc = json.loads(out.read_text())
    edit(doc)
    out.write_text(json.dumps(doc))
    assert run_cli("verify", str(out)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


NOT_OBJECTS = {"list": [], "int": 5, "str": "abc", "bool": True}
# Each of these once exited 3 with Python's own TypeError text, such as
# "Qu: 'int' object is not subscriptable"; a top-level list blamed params.
# An edit maps the constructed bundle to the one written.
NON_OBJECT_BUNDLES = {
    **{f"bundle {kind}": (lambda doc, value=value: value,
                          f"bundle must be a JSON object, got {kind}")
       for kind, value in {**NOT_OBJECTS, "NoneType": None}.items()},
    **{f"{key} {kind}": (lambda doc, key=key, value=value: {**doc, key: value},
                         f"{key} must be an object, got {kind}")
       for key in ("params", "Qu", "Qv", "G", "H", "M_Q", "Q_beta", "pi")
       for kind, value in NOT_OBJECTS.items()},
    # long enough for the array reader, so the message comes from the re-read
    "Qu long int list": (lambda doc: {**doc, "Qu": list(range(2000))},
                         "Qu must be an object, got list"),
}


@pytest.mark.parametrize("edit,message", NON_OBJECT_BUNDLES.values(), ids=NON_OBJECT_BUNDLES)
def test_verify_names_a_value_that_is_not_an_object(tmp_path, capsys, edit, message):
    path = tmp_path / "bundle.json"
    run_cli("construct", "--p", "13", "--N", "4", "--L", "1", "--beta", "1,2,3,4",
            "--out", str(path))
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert run_cli("verify", str(path)) == 3
    assert capsys.readouterr() == ("", f"error: malformed bundle {path}: {message}\n")


# Well-formed values that contradict the rest of the bundle; no test
# reached these branches before.  N = 4, so pi must permute [1..8].
SELF_CONTRADICTING_BUNDLES = {
    "pi length 6": (lambda doc: {**doc, "pi": {"n": 6, "image": [1, 2, 3, 4, 5, 6]}},
                    "pi must permute [1..8], got length 6"),
    "u not beta": (lambda doc: {**doc, "u": [1, 2, 3, 4]}, "u disagrees with the parameter header"),
    "pi n past its image": (lambda doc: {**doc, "pi": {**doc["pi"], "n": 9}},
                            "pi: permutation length disagrees with its header"),
}


@pytest.mark.parametrize("edit,message", SELF_CONTRADICTING_BUNDLES.values(),
                         ids=SELF_CONTRADICTING_BUNDLES)
def test_verify_names_a_bundle_that_contradicts_itself(tmp_path, capsys, edit, message):
    path = tmp_path / "bundle.json"
    run_cli("construct", "--p", "13", "--N", "4", "--L", "1", "--beta", "1,2,3,4",
            "--out", str(path))
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert run_cli("verify", str(path)) == 3
    assert capsys.readouterr() == ("", f"error: malformed bundle {path}: {message}\n")


def test_verify_accepts_a_bundle_without_seed_or_q_beta(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    system = build_qcsa_system(QcsaParams.default(PrimeField(13), 5, 2))
    out.write_text(json.dumps(system.to_dict()))
    assert run_cli("verify", str(out)) == 0
    assert capsys.readouterr().out.endswith("14/14 checks passed\n")
    run_cli("construct", "--p", "13", "--N", "5", "--L", "2", "--beta", "1,2,3,4,5",
            "--seed", "-3", "--out", str(out))
    assert run_cli("verify", str(out)) == 0


# The bundle reader gives verify int64 arrays for flat int lists; it must
# read every file exactly as json.load followed by from_dict on plain lists.
def _reference_load_bundle(path):
    """The reader without arrays: ``json.load``, then ``from_dict`` on lists."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise BundleFormatError(f"cannot read bundle {path}: {exc}")
    try:
        return QcsaSystem.from_dict(doc)
    except KeyError as exc:
        raise BundleFormatError(f"malformed bundle {path}: missing key {exc}")
    except (TypeError, ValueError) as exc:
        raise BundleFormatError(f"malformed bundle {path}: {exc}")


@pytest.fixture(scope="module")
def reader_doc(tmp_path_factory):
    """A bundle with multi-digit entries and a Q_beta, as a plain document."""
    out = tmp_path_factory.mktemp("reader") / "bundle.json"
    assert run_cli("construct", "--p", "2147483647", "--N", "5", "--L", "2",
                   "--beta", "3,1,4,1,5", "--out", str(out)) == 0
    return json.loads(out.read_text())


MARKER = 123456789012345678  # 18 digits, which construct never writes here
LAYOUTS = {
    "compact": lambda doc: json.dumps(doc, ensure_ascii=False),
    "indent": lambda doc: json.dumps(doc, indent=2, ensure_ascii=False),
}


def _entry(path, token):
    """Write the bundle with the entry at ``path`` spelled as ``token``."""
    def make(doc, dump):
        _set(path, lambda x: MARKER)(doc)
        return dump(doc).replace(str(MARKER), token)
    return make


def _edited(edit):
    def make(doc, dump):
        edit(doc)
        return dump(doc)
    return make


def _bytes(transform):
    def make(doc, dump):
        return transform(dump(doc).encode())
    return make


ENTRY_PATHS = {"M_Q-first": ("M_Q", "data", 0), "M_Q-last": ("M_Q", "data", -1),
               "pi-last": ("pi", "image", -1)}
ENTRY_TOKENS = ["0", "7", "007", "-0", "-1", "1.0", "1e2", "+1", "NaN", "Infinity", "1" * 18,
                "1" * 19, "1" * 20, str(2**63 - 1), str(2**63), "5,", " 5 ", "[5]", "true", '"5"',
                "+", "-", "\x0b", "\x0c"]
READER_CASES = {f"{where} {token!r}": _entry(path, token)
                for where, path in ENTRY_PATHS.items() for token in ENTRY_TOKENS}
READER_CASES.update({
    "fresh": _edited(lambda doc: None),
    "bumped M_Q entry": _edited(_set(("M_Q", "data", 3), lambda x: (x + 1) % (2**31 - 1))),
    "G zeroed": _edited(_set(("G", "data"), lambda data: [0] * len(data))),
    "H := G": _edited(lambda doc: doc.update(H=doc["G"])),
    "pi null": _edited(_set(("pi",), lambda x: None)),
    "empty data": _edited(_set(("M_Q", "data"), lambda x: [])),
    "empty alpha": _edited(_set(("params", "alpha"), lambda x: [])),
    "nested data": _edited(_set(("M_Q", "data"), lambda x: [[1, 2], [3]])),
    "nested empty data": _edited(_set(("M_Q", "data"), lambda x: [[]])),
    "list in a string": _edited(_set(("seed",), lambda x: "[1, 2]")),
    "list after a colon in a string": _edited(_set(("seed",), lambda x: "x: [1, 2]")),
    "list after a colon in an unread string": _edited(lambda doc: doc.update(note="a: [1, 2]")),
    "list after a colon in a key": _edited(lambda doc: doc.update({"a: [1, 2]": 1})),
    "non-ASCII string": _edited(_set(("seed",), lambda x: "ü: [3]")),
    "non-ASCII key over an int list": _edited(lambda doc: doc.update({"ü": [1, 2]})),
    "duplicate key, the last one good": _bytes(lambda raw: b'{"M_Q": {"data": [1]}, ' + raw[1:]),
    "duplicate key, the last one bad": _bytes(lambda raw: raw[:-1] + b', "v": [1, 2]}'),
    "forged placeholder as seed": _bytes(lambda raw: raw.replace(b'"seed": 1729',
                                                                 b'"seed": \nNaN\n')),
    "forged placeholder as data": _entry(("M_Q", "data"), "\nNaN\n"),
    "NaN seed": _bytes(lambda raw: raw.replace(b'"seed": 1729', b'"seed": NaN')),
    "-Infinity seed": _bytes(lambda raw: raw.replace(b'"seed": 1729', b'"seed": -Infinity')),
    "UTF-8 BOM": _bytes(lambda raw: b"\xef\xbb\xbf" + raw),
    "invalid UTF-8 in a list": _bytes(lambda raw: raw.replace(b"1729", b"\xff")),
    "invalid UTF-8 in a string": _entry(("seed",), '"\udcff"'),
    "tabs": _bytes(lambda raw: raw.replace(b" ", b"\t")),
    "CR LF": _bytes(lambda raw: raw.replace(b"\n", b"\r\n")),
    "CR": _bytes(lambda raw: raw.replace(b"\n", b"\r")),
    "vertical tab in a list": _bytes(lambda raw: raw.replace(b", ", b",\x0b", 1)),
    "truncated in a data list": _bytes(lambda raw: raw[:raw.index(b"[", raw.index(b'"G"')) + 20]),
    "top-level list": _bytes(lambda raw: b"[1, 2, 3]"),
    "empty file": _bytes(lambda raw: b""),
    "deep nesting": _bytes(lambda raw: b'{"v": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
})
# A flat int list long enough for numpy at the default _MIN_ARRAY_BYTES, in
# place of a dict, a scalar or a list of lists: from_dict must fail on it
# with the message it gives for the same list read by json.
LONG_INTS = [7] * 1500
READER_CASES.update({f"long int list as {'.'.join(path)}": _edited(_set(path, lambda x: LONG_INTS))
                     for path in [("params",), ("params", "p"), ("params", "N"), ("Qu",),
                                  ("Qu", "rows"), ("M_Q",), ("M_Q", "p"), ("pi",), ("G",),
                                  ("Q_beta",), ("seed",)]})


# These bundles' lists are all shorter than cli._MIN_ARRAY_BYTES, so by
# default json reads every one of them; at 0 numpy takes all it can.
@pytest.mark.parametrize("min_bytes", [0, cli._MIN_ARRAY_BYTES], ids=["arrays", "default"])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("make", READER_CASES.values(), ids=READER_CASES)
def test_verify_reads_bundles_like_json_load(tmp_path, capsys, monkeypatch, reader_doc,
                                             layout, make, min_bytes):
    monkeypatch.setattr(cli, "_MIN_ARRAY_BYTES", min_bytes)
    text = make(copy.deepcopy(reader_doc), LAYOUTS[layout])
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogateescape")  # "\udcff" becomes the byte 0xff
    path = tmp_path / "bundle.json"
    path.write_bytes(text)
    got = run_cli("verify", str(path)), *capsys.readouterr()
    with monkeypatch.context() as m:
        m.setattr("qcsa.cli._load_bundle", _reference_load_bundle)
        want = run_cli("verify", str(path)), *capsys.readouterr()
    assert got == want


def _as_lists(value):
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize("layout", LAYOUTS)
def test_reader_gives_arrays_for_int_lists(tmp_path, monkeypatch, reader_doc, layout):
    monkeypatch.setattr(cli, "_MIN_ARRAY_BYTES", 0)
    path = tmp_path / "bundle.json"
    path.write_text(LAYOUTS[layout](reader_doc))
    doc = cli._read_json(str(path))
    arrays = [doc[key]["data"] for key in ("G", "H", "M_Q", "Q_beta", "Qu", "Qv")]
    arrays += [doc["params"][key] for key in ("alpha", "beta", "f")]
    arrays += [doc["pi"]["image"], doc["u"], doc["v"]]
    assert all(isinstance(a, np.ndarray) and a.dtype == np.int64 for a in arrays)
    assert _as_lists(doc) == reader_doc


# Where fromstring cannot read a list to its end, older numpy only warns and
# returns the entries it read, if any; such a list must be left to json.
@pytest.mark.parametrize("partial", [[], [7]], ids=["empty", "short"])
def test_reader_leaves_lists_fromstring_stops_in_to_json(tmp_path, monkeypatch, reader_doc,
                                                         partial):
    def lenient_fromstring(text, dtype, sep):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.array(partial, dtype=dtype)

    monkeypatch.setattr(cli, "_MIN_ARRAY_BYTES", 0)
    monkeypatch.setattr(np, "fromstring", lenient_fromstring)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(reader_doc))
    assert cli._read_json(str(path)) == reader_doc


def test_reader_leaves_short_lists_to_json(tmp_path):
    path = tmp_path / "bundle.json"
    assert run_cli("construct", "--p", "2147483647", "--N", "64", "--L", "16",
                   "--out", str(path)) == 0
    doc = cli._read_json(str(path))
    for key in ("G", "H", "M_Q", "Qu", "Qv"):  # 4,096 or more entries each
        assert isinstance(doc[key]["data"], np.ndarray)
    for short in (doc["u"], doc["v"], doc["params"]["alpha"], doc["pi"]["image"]):
        assert type(short) is list
    assert _as_lists(doc) == json.loads(path.read_text())


# One-byte edits anywhere in a small bundle, drawn from the bytes where
# numpy's and json's number grammars part: digits, signs, every JSON
# whitespace byte plus \v and \f, the structural bytes, the letters of
# NaN and one byte that is not ASCII.
FUZZ_BYTES = [bytes([b]) for b in b'0123456789+- \t\n\r\x0b\x0c,[]{}"Na\xe9']


@pytest.fixture(scope="module")
def fuzz_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "bundle.json"
    assert run_cli("construct", "--p", "65521", "--N", "6", "--L", "2", "--out", str(path)) == 0
    return path, path.read_bytes()


def _loaded(load, path):
    """The bundle that ``load`` reads from ``path`` as a dict, or its error message."""
    try:
        return load(str(path)).to_dict()
    except BundleFormatError as exc:
        return str(exc)


# Hypothesis runs every example inside one call of the test, so a
# function-scoped monkeypatch does not mix with @given: the reader's
# threshold is set and restored by hand.  At 0, numpy takes every int list.
@settings(max_examples=1500, derandomize=True, deadline=None)
@given(data=st.data())
def test_reader_reads_one_byte_edits_like_json_load(fuzz_bundle, data):
    path, raw = fuzz_bundle
    edit = data.draw(st.sampled_from(["insert", "replace", "delete"]))
    at = data.draw(st.integers(0, len(raw) - (edit != "insert")))
    byte = b"" if edit == "delete" else data.draw(st.sampled_from(FUZZ_BYTES))
    path.write_bytes(raw[:at] + byte + raw[at + (edit != "insert"):])
    saved, cli._MIN_ARRAY_BYTES = cli._MIN_ARRAY_BYTES, 0
    try:
        got = _loaded(cli._load_bundle, path)
    finally:
        cli._MIN_ARRAY_BYTES = saved
    assert got == _loaded(_reference_load_bundle, path)


def test_simulate_trials(tmp_path, capsys):
    out = tmp_path / "trials.jsonl"
    rc = run_cli("simulate", "--p", "13", "--N", "4", "--L", "2",
                 "--seed", "7", "--trials", "1000", "--out", str(out))
    assert rc == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 1001  # one per trial + summary
    assert all(row["pass"] for row in lines[:-1])
    assert all(row["costs"]["downloaded_qudits"] == 4 for row in lines[:-1])
    summary = lines[-1]
    assert summary["passed"] == 1000
    assert summary["costs_per_trial"]["downloaded_qudits"] == 4
    assert summary["costs_per_trial"]["desired_symbols"] == 4
    assert "1000/1000 trials passed" in capsys.readouterr().err


def test_simulate_zero_trials(tmp_path):
    out = tmp_path / "trials.jsonl"
    rc = run_cli("simulate", "--p", "13", "--N", "4", "--L", "2",
                 "--trials", "0", "--out", str(out))
    assert rc == 0
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["trials"] == 0


def test_simulate_applies_reduction(tmp_path):
    out = tmp_path / "trials.jsonl"
    rc = run_cli("simulate", "--p", "11", "--N", "4", "--L", "3",
                 "--trials", "10", "--out", str(out))
    assert rc == 0
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["reduced"] is True
    assert summary["requested"] == {"N": 4, "L": 3}
    assert summary["params"]["N"] == 2 and summary["params"]["L"] == 1
    assert summary["passed"] == 10


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ("simulate", "--p", "13", "--N", "5", "--L", "2", "--seed", "3", "--trials", "20")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_negative_residues_given_with_equals_canonicalize(tmp_path):
    # "--alpha -1,..." reads as a flag, so README asks for "--alpha=-1,...".
    negative, residues = tmp_path / "negative.jsonl", tmp_path / "residues.jsonl"
    args = ("simulate", "--p", "13", "--N", "4", "--L", "2", "--trials", "5")
    assert run_cli(*args, "--alpha=-1,-2,-3,-4", "--out", str(negative)) == 0
    assert run_cli(*args, "--alpha", "12,11,10,9", "--out", str(residues)) == 0
    assert negative.read_bytes() == residues.read_bytes()


def test_negative_beta_given_with_equals_canonicalizes(capsys):
    args = ("construct", "--p", "13", "--N", "4", "--L", "2")
    assert run_cli(*args, "--beta=-1,-2,-3,-4") == 0
    negative = capsys.readouterr().out
    assert run_cli(*args, "--beta=12,11,10,9") == 0
    assert negative == capsys.readouterr().out


def test_rates_table_csv(tmp_path):
    out = tmp_path / "rates.csv"
    rc = run_cli("rates", "--N", "2:6", "--out", str(out))
    assert rc == 0
    with open(out, newline="") as fh:
        rows = {(int(r["N"]), int(r["L"])): r for r in csv.DictReader(fh)}
    assert rows[(4, 1)]["R_C"] == "1/4"
    assert rows[(4, 1)]["R_Q"] == "1/2"
    assert rows[(6, 3)]["R_Q"] == "1"
    assert rows[(4, 3)]["N'"] == "2" and rows[(4, 3)]["L'"] == "1"
    assert rows[(4, 3)]["R_Q"] == "1"
    assert rows[(4, 3)]["qudits_per_symbol"] == "1"
    assert rows[(4, 1)]["dits_per_symbol"] == "4"
    assert rows[(4, 1)]["R_Q_decimal"] == "0.5"
    # full grid: all 1 <= L < N for N in 2..6
    assert len(rows) == sum(n - 1 for n in range(2, 7))


RATE_GRIDS = {
    "full": (("--N", "2:6"), [(n, l) for n in range(2, 7) for l in range(1, n)]),
    "L-filter": (("--N", "3:5", "--L", "2:3"), [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]),
}


@pytest.mark.parametrize("argv,grid", RATE_GRIDS.values(), ids=RATE_GRIDS)
def test_rates_csv_bytes_match_dictwriter(tmp_path, capsys, argv, grid):
    rows = [rate_report(n, l).to_dict() for n, l in grid]
    expected = io.StringIO()
    writer = csv.DictWriter(expected, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    assert run_cli("rates", *argv) == 0
    assert capsys.readouterr().out == expected.getvalue()
    out = tmp_path / "rates.csv"
    assert run_cli("rates", *argv, "--out", str(out)) == 0
    assert out.read_bytes() == expected.getvalue().encode()


def test_rates_table_json_with_l_filter(tmp_path):
    out = tmp_path / "rates.json"
    rc = run_cli("rates", "--N", "4", "--L", "1:2", "--format", "json", "--out", str(out))
    assert rc == 0
    rows = json.loads(out.read_text())
    assert [(r["N"], r["L"]) for r in rows] == [(4, 1), (4, 2)]


EMPTY_RATE_SELECTIONS = {
    "reversed-N": (("--N", "3:2"), "argument --N: empty range '3:2'"),
    "reversed-L": (("--N", "2:3", "--L", "5:1", "--format", "json"),
                   "argument --L: empty range '5:1'"),
    "L-past-N": (("--N", "4", "--L", "9"),
                 "invalid parameters: --N 4:4 --L 9:9 selects no pair with 1 <= L < N"),
    "L-zero": (("--N", "2:3", "--L", "0"),
               "invalid parameters: --N 2:3 --L 0:0 selects no pair with 1 <= L < N"),
}


@pytest.mark.parametrize("argv,message", EMPTY_RATE_SELECTIONS.values(),
                         ids=EMPTY_RATE_SELECTIONS)
def test_rates_rejects_an_empty_selection(tmp_path, capsys, argv, message):
    out = tmp_path / "rates.csv"
    assert run_cli("rates", *argv, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


UNWRITABLE_OUTPUTS = {
    "construct": ("construct", "--p", "13", "--N", "4", "--L", "2"),
    "simulate": ("simulate", "--p", "13", "--N", "4", "--L", "2"),
    "rates": ("rates", "--N", "4"),
}


@pytest.mark.parametrize("argv", UNWRITABLE_OUTPUTS.values(), ids=UNWRITABLE_OUTPUTS)
def test_an_unwritable_out_is_a_clean_error(tmp_path, capsys, argv):
    # This was once "internal error: [Errno 2] ...", for simulate after every trial ran.
    path = tmp_path / "missing" / "out.txt"
    assert run_cli(*argv, "--out", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {path}: No such file or directory\n"
    assert captured.out == ""


def test_output_dir_env_var(tmp_path, monkeypatch, capsys):
    for argv in (("rates", "--N", "3"), ("construct", "--p", "13", "--N", "4", "--L", "2"),
                 ("simulate", "--p", "13", "--N", "4", "--L", "2", "--trials", "5")):
        assert run_cli(*argv) == 0
        stdout = capsys.readouterr().out
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        assert run_cli(*argv, "--out", f"env_{argv[0]}") == 0
        assert (tmp_path / f"env_{argv[0]}").read_text() == stdout
        # absolute paths ignore the env var
        target = tmp_path / "abs" / argv[0]
        target.parent.mkdir(exist_ok=True)
        assert run_cli(*argv, "--out", str(target)) == 0
        assert target.read_text() == stdout
        monkeypatch.delenv(OUTPUT_DIR_ENV)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qcsa", "rates", "--N", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "1/4" in proc.stdout


def _loads(module: str, code: str) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; {code}; print({module!r} in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"  # after what the commands printed


def test_import_leaves_numpy_random_unloaded():
    """No command should pay for importing numpy.random."""
    if _loads("numpy.random", "import numpy"):
        pytest.skip("this numpy imports numpy.random itself")
    assert not _loads("numpy.random", "import qcsa.cli")


def test_simulate_leaves_numpy_random_unloaded(tmp_path):
    """simulate replays its streams itself (qcsa.stream), without numpy.random."""
    if _loads("numpy.random", "import numpy"):
        pytest.skip("this numpy imports numpy.random itself")
    out = tmp_path / "trials.jsonl"
    argv = ["simulate", "--p", "101", "--N", "6", "--L", "2", "--trials", "300", "--out", str(out)]
    assert not _loads("numpy.random", f"import qcsa.cli; qcsa.cli.main({argv!r})")
    assert len(out.read_text().splitlines()) == 301


@pytest.mark.parametrize("commands", [0, 2], ids=["import", "construct-verify"])
def test_construct_and_verify_leave_qcsa_stream_unloaded(tmp_path, commands):
    """Only simulate's trial engine imports qcsa.stream, so the other commands do not pay for it."""
    bundle = str(tmp_path / "bundle.json")
    argvs = [["construct", "--p", "101", "--N", "6", "--L", "2", "--out", bundle],
             ["verify", bundle]][:commands]
    code = "import qcsa.cli" + "".join(f"; assert qcsa.cli.main({argv!r}) == 0" for argv in argvs)
    assert not _loads("qcsa.stream", code)


def test_usage_errors_exit_2():
    assert run_cli("construct", "--p", "5", "--N", "2") == 2  # missing --L
    assert run_cli("nonsense") == 2


COMMAND_HELP = {
    "construct": "build a channel bundle and write it as JSON",
    "verify": "re-check every invariant of a bundle file",
    "simulate": "run seeded end-to-end trials",
    "rates": "exact rate table over an (N, L) grid",
}
COMMAND_FLAGS = {
    "construct": ["--p", "--N", "--L", "--alpha", "--f", "--u", "--beta", "--seed", "--out"],
    "verify": ["path"],
    "simulate": ["--p", "--N", "--L", "--alpha", "--f", "--u", "--seed", "--trials", "--out"],
    "rates": ["--N", "--L", "--out", "--format"],
}


def _help(capsys, monkeypatch, *argv) -> list:
    """The lines ``qcsa *argv`` prints at 80 columns.

    Argparse lays help out differently between Python versions, so the help
    tests check which names appear and in what order, not the whole text.
    """
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.splitlines()


def test_help_lists_each_command_with_its_help(capsys, monkeypatch):
    entries = [line.split(None, 1) for line in _help(capsys, monkeypatch, "-h")
               if line.startswith("    ")]
    assert entries == [[name, text] for name, text in COMMAND_HELP.items()]


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_command_help_lists_its_flags_in_order(capsys, monkeypatch, command):
    # An argument's entry starts two spaces in; a wrapped line starts further in.
    names = [line.split()[0] for line in _help(capsys, monkeypatch, command, "-h")
             if line.startswith("  ") and not line.startswith("   ")]
    assert "-h," in names
    assert [name for name in names if name != "-h,"] == COMMAND_FLAGS[command]


SIMULATE = ("simulate", "--p", "13", "--N", "4", "--L", "2")
# The last stderr line of each bad argument list; argparse prints its usage first.
BAD_ARGUMENTS = {
    "no-command": ((), "qcsa: error: the following arguments are required: command"),
    "rates-N-1": (("rates", "--N", "1"), "error: invalid parameters: need N >= 2, got 1"),
    "alpha-not-int": (("construct", "--p", "13", "--N", "4", "--L", "2", "--alpha", "1,x"),
                      "qcsa construct: error: argument --alpha: "
                      "expected comma-separated integers, got '1,x'"),
    "rates-N-range-not-int": (("rates", "--N", "2:x"),
                              "qcsa rates: error: argument --N: expected N or A:B, got '2:x'"),
    "negative-trials": ((*SIMULATE, "--trials", "-2"),
                        "error: invalid parameters: --trials must be nonnegative, got -2"),
    "negative-seed": ((*SIMULATE, "--seed", "-1"),
                      "error: invalid parameters: --seed must be nonnegative, got -1"),
    # simulate reduces (4, 3) to (2, 1); construct refuses it before counting --u.
    "construct-L-past-half-N": (("construct", "--p", "13", "--N", "4", "--L", "3", "--u", "1,1,1"),
                             "error: invalid parameters: L=3 exceeds N/2=2.0; not constructible"),
    # --u is checked as the parameters' beta, and --beta by construct itself; both name their flag.
    "construct-u-short": (("construct", "--p", "13", "--N", "4", "--L", "2", "--u", "1,2,3"),
                          "error: invalid parameters: --u must have N=4 entries, got 3"),
    "construct-beta-short": (("construct", "--p", "13", "--N", "4", "--L", "2", "--beta", "1,2,3"),
                             "error: invalid parameters: "
                             "--beta needs N=4 entries nonzero mod p, got (1, 2, 3)"),
    "construct-beta-zero": (("construct", "--p", "13", "--N", "4", "--L", "2",
                             "--beta", "1,2,13,4"),
                            "error: invalid parameters: "
                            "--beta needs N=4 entries nonzero mod p, got (1, 2, 13, 4)"),
}


@pytest.mark.parametrize("argv,last_line", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_bad_arguments_exit_2_and_say_why(capsys, argv, last_line):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and captured.err.endswith("\n") and lines[-1] == last_line
    assert len(lines) == 1 or lines[0].startswith(" ".join(["usage: qcsa", *argv[:1], ""]))


CONSTRUCT = ("construct", "--p", "13", "--N", "4", "--L", "2")
# Argument lists that main must parse exactly as the full command tree does.
# Each runs in a directory holding a valid bundle.json.
PARSES = {
    "nothing": (),
    "-h": ("-h",),
    "--help": ("--help",),
    "-h-bogus": ("-h", "--bogus"),
    "unknown-command": ("bogus",),
    "option-before-command": ("--foo", *CONSTRUCT),
    **{f"{command}-h": (command, "-h") for command in COMMAND_FLAGS},
    "construct-h-bogus": ("construct", "-h", "--bogus"),
    "construct": CONSTRUCT,
    "construct-bogus": (*CONSTRUCT, "--bogus"),
    "construct-missing-L": CONSTRUCT[:5],
    "construct-extra-positional": (*CONSTRUCT, "extra"),
    "construct-double-dash": (*CONSTRUCT, "--", "x"),
    "construct-repeated-N": (*CONSTRUCT, "--N", "5"),
    "construct-alpha-equals": (*CONSTRUCT, "--alpha=-1,-2,-3,-4"),
    "verify": ("verify", "bundle.json"),
    "verify-bogus": ("verify", "bundle.json", "--bogus"),
    "verify-no-path": ("verify",),
    "verify-two-paths": ("verify", "bundle.json", "bundle.json"),
    "simulate": (*SIMULATE, "--trials", "3"),
    "simulate-bogus": (*SIMULATE, "--trials", "3", "--bogus"),
    "simulate-bad-trials": (*SIMULATE, "--trials", "x"),
    "simulate-abbreviated-trials": (*SIMULATE, "--tri", "3"),
    "rates": ("rates", "--N", "2:4"),
    "rates-bogus": ("rates", "--N", "2:4", "--bogus"),
    "rates-format-xml": ("rates", "--N", "2:4", "--format", "xml"),
    **{f"bad-{name}": argv for name, (argv, _) in BAD_ARGUMENTS.items()},
}


def _outcome(capsys, argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("argv", PARSES.values(), ids=PARSES)
def test_main_parses_as_the_full_tree(tmp_path, capsys, monkeypatch, argv, columns):
    """Exit code, stdout and stderr, help text included, equal the full tree's in full."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", columns)
    assert main([*CONSTRUCT, "--out", "bundle.json"]) == 0
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._build_parser().parse_args(argv))
    assert got == _outcome(capsys, argv)


class TreeBuilt(Exception):
    pass


def _refuse_tree():
    raise TreeBuilt


def test_a_well_formed_command_builds_only_its_own_parser(tmp_path, capsys, monkeypatch):
    """Each command's bytes hold without the full tree, from one ArgumentParser."""
    monkeypatch.setattr(cli, "_build_parser", _refuse_tree)
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)

    def digest(*argv, out=None) -> str:
        built.clear()
        assert main(list(argv)) == 0
        assert built == [f"qcsa {argv[0]}"]
        text = capsys.readouterr().out if out is None else out.read_text()
        return hashlib.sha256(text.encode()).hexdigest()

    args, want = CONSTRUCT_DIGESTS[2]
    assert digest("construct", *args) == want
    bundle = tmp_path / "bundle.json"
    digest("construct", *args, "--out", str(bundle))
    # Recorded when main parsed every argument list with the full tree.
    assert digest("verify", str(bundle)) == (
        "1a372ac6d32b4c004c5c9ee2ca42ec20681efa858d89664cacf9eaa40926f25e")
    args, want = SIMULATE_DIGESTS[2]
    trials = tmp_path / "trials.jsonl"
    assert digest("simulate", *args, "--out", str(trials), out=trials) == want
    assert digest("rates", "--N", "2:6", "--format", "json") == (
        "e3459cc75b023f1d2c4f97b695732b887baa9952b69b2d5b3522f22c17f32900")
    for command in COMMAND_FLAGS:
        assert main([command, "-h"]) == 0


@pytest.mark.parametrize("argv", [("-h",), (), ("bogus",), (*CONSTRUCT, "--bogus")],
                         ids=["-h", "nothing", "unknown-command", "leftover-bogus"])
def test_help_and_usage_errors_build_the_full_tree(monkeypatch, argv):
    monkeypatch.setattr(cli, "_build_parser", _refuse_tree)
    with pytest.raises(TreeBuilt):
        main(list(argv))


HUGE = str(10**20)  # past 2**63
OVERSIZED_INPUTS = {
    "construct-alpha-past-int64": ("construct", "--p", "13", "--N", "4", "--L", "1",
                                   "--alpha", f"0,1,2,{HUGE}"),
    "simulate-u-past-int64": ("simulate", "--p", "13", "--N", "4", "--L", "1",
                              "--u", f"1,1,1,{HUGE}"),
    "construct-N-past-p": ("construct", "--p", "13", "--N", "3000000000", "--L", "1"),
    "simulate-N-past-p": ("simulate", "--p", "13", "--N", "3000000000", "--L", "1"),
    "construct-N-past-p-negative-L": ("construct", "--p", "13", "--N", "3000000000",
                                      "--L", "-2999999990"),
}


@pytest.mark.parametrize("argv", OVERSIZED_INPUTS.values(), ids=OVERSIZED_INPUTS)
def test_oversized_inputs_are_parameter_errors(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert "internal error" not in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_is_a_parameter_error(tmp_path, capsys):
    # The stream (seed, t) has no negative seeds: qcsa.stream raises
    # ValueError for one, as numpy's SeedSequence does.  This once left the
    # CLI as "internal error", exit 1.
    out = tmp_path / "trials.jsonl"
    assert run_cli("simulate", "--p", "13", "--N", "4", "--L", "2", "--seed", "-1",
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "internal error" not in err
    assert not out.exists()


def test_simulate_checks_room_at_the_reduced_point(tmp_path):
    # N + L = 18 > 13, but the reduced scheme (N', L') = (4, 2) fits in GF(13).
    out = tmp_path / "trials.jsonl"
    assert run_cli("simulate", "--p", "13", "--N", "10", "--L", "8",
                   "--trials", "5", "--out", str(out)) == 0
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["params"]["alpha"] == [0, 1, 2, 3] and summary["params"]["f"] == [10, 11]
    assert run_cli("simulate", "--p", "5", "--N", "10", "--L", "8", "--out", str(out)) == 2


POINT_COUNTS = {
    "extra-points": (("--N", "4", "--L", "2", "--alpha", "0,1,2,3,9", "--f", "7,8,11",
                      "--u", "1,1,1,1,5,6"), "alpha must have N=4 entries, got 5"),
    "extra-f": (("--N", "4", "--L", "2", "--f", "7,8,11"), "f must have L=2 entries, got 3"),
    "short-u": (("--N", "4", "--L", "2", "--u", "1,1,1"), "--u must have N=4 entries, got 3"),
    "zero-u": (("--N", "4", "--L", "2", "--u", "1,0,1,1"),
               "--u entries must be nonzero: (1, 0, 1, 1)"),
    "repeated-alpha": (("--N", "4", "--L", "2", "--alpha", "0,1,1,3"),
                       "alpha and f must be 6 pairwise distinct elements of GF(13): "
                       "alpha=(0, 1, 1, 3), f=(4, 5)"),
    "alpha-meets-f": (("--N", "4", "--L", "2", "--alpha", "0,1,2,4"),
                      "alpha and f must be 6 pairwise distinct elements of GF(13): "
                      "alpha=(0, 1, 2, 4), f=(4, 5)"),
    "no-room": (("--N", "10", "--L", "4"), "GF(13) has fewer than N + L = 14 elements"),
}


@pytest.mark.parametrize("argv,message", POINT_COUNTS.values(), ids=POINT_COUNTS)
def test_simulate_takes_the_point_counts_construct_takes(tmp_path, capsys, argv, message):
    # simulate once ignored the extra entries and exited 0.
    out = tmp_path / "out"
    for command in ("construct", "simulate"):
        assert run_cli(command, "--p", "13", *argv, "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"error: invalid parameters: {message}\n")
    assert not out.exists()


def test_a_reduced_simulate_takes_the_requested_point_counts(tmp_path, capsys):
    # N = 10, L = 8 runs at (N', L') = (4, 2) on the prefixes of N and L points.
    out = tmp_path / "trials.jsonl"
    argv = ("simulate", "--p", "13", "--N", "10", "--L", "8")
    assert run_cli(*argv, "--alpha", "0,1,2,3", "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: invalid parameters: alpha must have N=10 entries, got 4\n")
    assert not out.exists()
    assert run_cli(*argv, "--alpha", "0,1,2,3,4,5,6,7,8,9", "--f", "10,11,12,0,1,2,3,4",
                   "--u", ",".join(["1"] * 10), "--out", str(out)) == 0
    assert run_cli(*argv) == 0  # the default points have the same prefixes
    assert out.read_text() == capsys.readouterr().out
