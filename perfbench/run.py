"""End-to-end and per-layer benchmark of the qcsa CLI.

    python3 perfbench/run.py --workload sim-grid --seed 1 --seconds 36 --trace 0

Drives ``qcsa.cli.main`` in-process, from one process and one thread, as a
closed loop with one client: each invocation starts when the previous one
returns.  A workload is a seeded list of points (``inputs.py``); a round
runs ``construct``, ``verify`` on the written bundle and ``simulate`` at
every point, in order.  Rounds repeat while the next one, as long as the
longest so far, still ends within ``--seconds``; at least two always run.
Before each invocation the program's ``lru_cache`` tables are cleared, so
every invocation starts as cold as a fresh ``qcsa`` process.

Every output is checked without calling ``qcsa.scheme`` (``checks.py``).
The SHA-256 of every bundle and JSONL file is recorded, and a file whose
bytes change between rounds counts as a failure.

Every invocation is timed in seconds and, with the host speed measured
around it by a separate ruler process (``hostspeed.py``), in reference
seconds.  The gated trials/s, construct and verify times are in reference
seconds, because raw times on a shared VM spread too widely between runs;
the same metrics in seconds are in every report.  Set-up time and peak
memory are as measured.

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` runs traced and untraced rounds in the order
T U U T T U ..., so that each kind runs first equally often: traced rounds
wrap qcsa's public callables (``spans.py``) and give the per-layer
metrics, per round; the untraced rounds of the same process give the
tracing overhead, which is called unresolved while it is smaller than the
quartile spread of the untraced rounds.  The last line of standard output
is the result; the line before it is a report with sample counts,
quartiles, file hashes, layer shares, host speed and the environment.
Everything the run writes goes under ``.perfbench/`` in the checkout.
"""

import time

STARTED = time.perf_counter()  # setup_s counts from here

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTDIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
# A process imports once, so the import part of set-up is also timed in
# this many fresh interpreters, and set-up reports the median of all.
IMPORT_PROBES = 4
IMPORT_PROBE = ("import time; start = time.perf_counter(); import qcsa.cli; "
                "print(time.perf_counter() - start)")
# Two rounds at least: each point then has two samples, and a traced run
# has one traced and one untraced round.  Workloads are sized so that two
# rounds fit in the run length that BENCHMARK.json declares.
MIN_ROUNDS = 2
COMMANDS = ("construct", "verify", "simulate")

# Each workload's predicted dominant layers, written down before any measurement.
# Reports put the measured shares beside these; they never edit them.
PREDICTIONS = {
    "sim-grid": {
        "commands": ["simulate"],
        "layers": ["scheme", "cli"],
        "text": "per-trial Python overhead in scheme and JSONL encoding in cli "
                "dominate, while kernel work stays tiny",
    },
    "sim-wide": {
        "commands": ["simulate"],
        "layers": ["matrix"],
        "text": "each trial's transmit runs the chunked int64 kernel (matrix.matvec)",
    },
    "build-256": {
        "commands": ["construct", "verify"],
        "layers": ["matrix", "codes", "cli"],
        "text": "matrix inverse, rank and matmul, the codes builders, and 6-7.5 MB "
                "bundle writes and reads dominate",
    },
}

# The ruler kernel of each workload (hostspeed.py): the kind of work of the
# layers predicted above to dominate it.
SPEED_KERNEL = {"sim-grid": "interpreter", "sim-wide": "interpreter", "build-256": "arrays"}

PER_LAYER_TIMES = (
    "matrix.matvec", "matrix.matmul", "matrix.inverse", "matrix.rank",
    "codes.qcsa_matrix", "codes.dual_multipliers", "codes.csa_matrix",
    "nsumbox.build_qcsa_system", "nsumbox.build_qcsa_box", "nsumbox.verify_system",
    "nsumbox.verify_box", "nsumbox.to_dict", "nsumbox.from_dict", "nsumbox.transmit",
    "scheme.run_trials", "scheme.qcsa_roundtrip", "scheme.make_instances",
    "scheme.server_scale",
)
PER_LAYER_COUNTS = ("matrix.mac_ops", "nsumbox.checks_failed", "scheme.trials_failed",
                    "cli.bytes_written", "cli.nonzero_exits")
# The gated end-to-end metrics: set-up and memory as measured, the other
# times in reference seconds (hostspeed.py).  The same times in seconds,
# under the names simulate_trials_per_s, construct_s_p50 and verify_s_p50,
# are in every report.
END_TO_END = ("setup_s", "simulate_trials_per_ref_s", "construct_ref_s_p50",
              "verify_ref_s_p50", "peak_rss_mb")
UNITS = {"simulate_trials_per_s": "1/s", "construct_s_p50": "s", "verify_s_p50": "s",
         "simulate_trials_per_ref_s": "1/ref_s", "construct_ref_s_p50": "ref_s",
         "verify_ref_s_p50": "ref_s", "peak_rss_mb": "MB", "cli.bytes_written": "byte"}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def load_program():
    """Import qcsa.cli from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qcsa.cli

    where = Path(qcsa.cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"qcsa was imported from {where}, not from {src}")
    return qcsa.cli


def import_probes() -> list:
    """Seconds a fresh interpreter takes to import qcsa.cli (numpy included)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                 capture_output=True, text=True, timeout=60).stdout)
            for _ in range(IMPORT_PROBES)]


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"n": len(values), "p25": q1, "p50": q2, "p75": q3}


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Bench:
    """One workload's points, the program under test, and what its runs saw."""

    def __init__(self, cli, points, workdir: Path, ruler):
        from spans import QCSA_MODULES, Tracer

        self.cli = cli
        self.ruler = ruler
        self.in_round = False
        self.points = points
        workdir.mkdir(parents=True, exist_ok=True)
        self.bundle = workdir / "bundle.json"
        self.jsonl = workdir / "trials.jsonl"
        self.tracer = Tracer()
        caches = {}
        for name in QCSA_MODULES:
            for value in vars(sys.modules[name]).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
        self.caches = list(caches.values())
        self.hashes = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def invoke(self, argv, traced: bool):
        """One timed CLI call: (exit code, timing, stdout, (spans, counts) or None)."""
        for cache in self.caches:
            cache.cache_clear()
        if self.in_round:
            self.ruler.sample()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # counted as a failed operation
                rc = f"raised {exc!r}"
            end = time.perf_counter()
        trace = self.tracer.take() if traced else None
        return rc, {"seconds": end - start, "window": (start, end)}, out.getvalue(), trace

    def _record(self, command, point, problems, path=None) -> int:
        """Count one operation, hash its output file and check the hash repeats."""
        size = 0
        if path is not None and path.is_file():
            size = path.stat().st_size
            digest = sha256_of(path)
            if self.hashes.setdefault(f"{command} {point.key}", digest) != digest:
                problems = problems + [f"{path.name} bytes changed between rounds"]
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"command": command, "point": point.key,
                                      "problems": problems})
        return size

    def _simulate(self, point, traced: bool, label: str) -> dict:
        from checks import check_simulate

        rc, timing, _, trace = self.invoke(point.simulate_argv(str(self.jsonl)), traced)
        try:
            problems = check_simulate(rc, self.jsonl.read_text(), point)
        except OSError as exc:
            problems = [f"simulate wrote no output: {exc}"]
        size = self._record(label, point, problems, self.jsonl)
        return timing | {"bytes": size, "trace": trace, "trials": point.trials}

    def session(self, point, traced: bool) -> dict:
        """construct, verify and simulate at one point."""
        from checks import check_verify

        for path in (self.bundle, self.jsonl):
            path.unlink(missing_ok=True)
        out = {}
        rc, timing, _, trace = self.invoke(point.construct_argv(str(self.bundle)), traced)
        problems = [] if rc == 0 else [f"construct exited {rc}"]
        size = self._record("construct", point, problems, self.bundle)
        out["construct"] = timing | {"bytes": size, "trace": trace}

        rc, timing, stdout, trace = self.invoke(["verify", str(self.bundle)], traced)
        self._record("verify", point, check_verify(rc, stdout))
        out["verify"] = timing | {"bytes": 0, "trace": trace}

        out["simulate"] = self._simulate(point, traced, "simulate")
        return out

    def warm_up(self) -> None:
        """The untimed first invocation: simulate one trial at the first point."""
        self.jsonl.unlink(missing_ok=True)
        self._simulate(replace(self.points[0], trials=1), False, "warm-up")

    def round(self, traced: bool) -> dict:
        """One pass over every point, each time also in reference seconds."""
        start = time.perf_counter()
        self.ruler.sample(force=True)
        self.in_round = True
        if traced:
            self.tracer.install()
        try:
            sessions = [self.session(point, traced) for point in self.points]
        finally:
            if traced:
                self.tracer.uninstall()
            self.in_round = False
        self.ruler.sample(force=True)
        for session in sessions:
            for entry in session.values():
                entry["ref_seconds"] = entry["seconds"] * self.ruler.factor(*entry["window"])
        end = time.perf_counter()
        return {"traced": traced, "sessions": sessions, "seconds": end - start,
                "speed": self.ruler.summary(start, end)}


def end_to_end(rounds, ref: bool = False) -> dict:
    """Trials/s and construct and verify times of some rounds, in s or ref_s."""
    def secs(r, s, command):
        return s[command]["ref_seconds" if ref else "seconds"]

    # Each point's median over rounds first: the points of a workload differ
    # in cost, so a median over all invocations would jump between cost
    # levels; from three rounds on, one slow round does not move a point.
    def per_point(command):
        return [statistics.median(secs(r, r["sessions"][i], command) for r in rounds)
                for i in range(len(rounds[0]["sessions"]))]

    def every(command):
        return quartiles([secs(r, s, command) for r in rounds for s in r["sessions"]])

    unit = "ref_s" if ref else "s"
    trials = sum(s["simulate"]["trials"] for s in rounds[0]["sessions"])
    out = {f"simulate_trials_per_{unit}": {"value": trials / sum(per_point("simulate")),
                                           "samples": every("simulate")}}
    for command in ("construct", "verify"):
        out[f"{command}_{unit}_p50"] = {"value": statistics.fmean(per_point(command)),
                                        "samples": every(command)}
    return out


def tracing_overhead(traced_rounds, plain_rounds) -> dict:
    """Traced minus untraced value of each timed metric, beside the untraced spread.

    The spread is the quartile distance of the metric over single untraced
    rounds; an overhead no larger than it, or with one untraced round only,
    is unresolved.
    """
    traced, plain = end_to_end(traced_rounds), end_to_end(plain_rounds)
    out = {}
    for key in traced:
        overhead = traced[key]["value"] - plain[key]["value"]
        spread = None
        if len(plain_rounds) >= 2:
            q = quartiles([end_to_end([r])[key]["value"] for r in plain_rounds])
            spread = q["p75"] - q["p25"]
        out[key] = {"overhead": overhead, "traced": traced[key]["value"],
                    "untraced": plain[key]["value"], "untraced_rounds": len(plain_rounds),
                    "untraced_spread": spread,
                    "resolved": spread is not None and abs(overhead) > spread}
    return out


def _round_spans(round_, commands):
    """The spans of some commands of one round, with parents re-indexed."""
    spans, counts = [], {}
    for session in round_["sessions"]:
        for command in commands:
            inv_spans, inv_counts = session[command]["trace"]
            offset = len(spans)
            spans.extend((n, s, e, p + offset if p >= 0 else -1) for n, s, e, p in inv_spans)
            for key, value in inv_counts.items():
                counts[key] = counts.get(key, 0) + value
    return spans, counts


def layer_metrics(round_) -> dict:
    """Per-layer metrics of one traced round."""
    from spans import summarize

    spans, counts = _round_spans(round_, COMMANDS)
    summary = summarize(spans)
    out = {}
    for name in PER_LAYER_TIMES:
        entry = summary.get(name, {"total_s": 0.0, "calls": 0})
        out[f"{name}_s"] = entry["total_s"]
        out[f"{name}_calls"] = entry["calls"]
    main = summary.get("cli.main", {"self_s": 0.0, "calls": 0})
    out["cli.self_s"] = main["self_s"]
    out["cli.main_calls"] = main["calls"]
    for key in PER_LAYER_COUNTS:
        out[key] = counts.get(key, 0)
    out["cli.bytes_written"] = sum(s[c]["bytes"] for s in round_["sessions"] for c in COMMANDS)
    return out


def layer_shares(rounds, commands) -> dict:
    """Each layer's self time as a share of cli.main time, over some commands."""
    from spans import summarize

    by_layer, total = {}, 0.0
    for round_ in rounds:
        for name, entry in summarize(_round_spans(round_, commands)[0]).items():
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + entry["self_s"]
            if name == "cli.main":
                total += entry["total_s"]
    return {layer: seconds / total for layer, seconds in sorted(by_layer.items())}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        # The build's install paths say nothing about speed; leave them out.
        blas = {name: {k: v for k, v in dep.items() if not k.endswith("directory")}
                for name, dep in deps.items()}
    except TypeError:  # numpy before 1.25 can only print its config
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "git_commit": git_commit(),
        "thread_caps": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def write_spans(path: Path, rounds) -> None:
    with open(path, "w") as fh:
        for r, round_ in enumerate(rounds):
            for session in round_["sessions"]:
                for command in COMMANDS:
                    for name, start, end, parent in session[command]["trace"][0]:
                        fh.write(json.dumps([r, command, name, start, end, parent]) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from hostspeed import Ruler

    # One client thread; BLAS may not start more threads than that.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    cli = load_program()
    from inputs import workload_points

    import_s = time.perf_counter() - STARTED
    ruler = Ruler(SPEED_KERNEL[workload])
    try:
        return measure(cli, workload_points, ruler, import_s, workload, seed, seconds, trace)
    finally:
        ruler.close()


def measure(cli, workload_points, ruler, import_s, workload, seed, seconds, trace) -> dict:
    name = f"{workload}-seed{seed}-trace{int(trace)}"

    # Set-up: input generation and the untimed warm-up, repeated.  The ruler
    # is sampled around it, not inside it, and set-up stays in seconds.
    setup_start = time.perf_counter()
    ruler.sample(force=True)
    setups, bench = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        points = workload_points(workload, seed)
        if bench is None:
            bench = Bench(cli, points, OUTDIR / name, ruler)
        elif points != bench.points:
            raise RuntimeError("the same seed gave different inputs")
        bench.warm_up()
        setups.append(time.perf_counter() - start)
    ruler.sample(force=True)
    setup_speed = ruler.summary(setup_start, time.perf_counter())
    imports = [import_s] + import_probes()

    # Rounds T U U T T U ... when traced, so each kind runs first equally often.
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(bench.round(traced=trace and len(rounds) % 4 in (0, 3)))
        longest = max(r["seconds"] for r in rounds)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + longest > seconds:
            break
    measured_s = time.perf_counter() - start

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    e2e = end_to_end(plain) | end_to_end(plain, ref=True)
    e2e["setup_s"] = {"value": statistics.median(imports) + statistics.median(setups),
                      "samples": quartiles(setups), "import_s": quartiles(imports)}
    e2e["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                          "samples": {"n": 1}}

    report = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "points": len(bench.points), "rounds": len(plain),
        "traced_rounds": len(traced_rounds), "measured_s": measured_s,
        "fail_ratio": bench.failed / bench.attempted,
        "problems": bench.problems,
        "end_to_end": e2e,
        "rounds_s": [r["seconds"] for r in rounds],
        "host_speed": {"cpu": ruler.cpu, "setup": setup_speed,
                       "rounds": [r["speed"] for r in rounds]},
        "sha256": dict(sorted(bench.hashes.items())),
        "environment": environment(),
    }
    if trace:
        per_round = [layer_metrics(r) for r in traced_rounds]
        metrics = {key: (statistics.median(m[key] for m in per_round)
                         if key.endswith("_s") else per_round[0][key])
                   for key in per_round[0]}
        report["per_layer_counts_repeat"] = all(
            m[k] == per_round[0][k] for m in per_round for k in m if not k.endswith("_s"))
        report["tracing_overhead"] = tracing_overhead(traced_rounds, plain)
        report["tracing_overhead"]["setup_s"] = "set-up is never traced"
        report["tracing_overhead"]["peak_rss_mb"] = (
            "one process has one peak: compare with a --trace 0 run")
        prediction = PREDICTIONS[workload]
        focus = layer_shares(traced_rounds, prediction["commands"])
        dominant = max(focus, key=focus.get)
        report["layer_shares"] = {
            "prediction": prediction,
            "predicted_commands": focus,
            "all_commands": layer_shares(traced_rounds, COMMANDS),
            "dominant_layer": dominant,
            "dominant_share": focus[dominant],
            "prediction_holds": dominant in prediction["layers"],
        }
        spans_path = OUTDIR / f"{name}-spans.jsonl"
        write_spans(spans_path, traced_rounds)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {key: e2e[key]["value"] for key in END_TO_END}
    (OUTDIR / f"{name}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return {"report": report, "metrics": metrics,
            "attempted": bench.attempted, "failed": bench.failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PREDICTIONS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot load the qcsa program: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": result["report"]}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": value, "unit": unit_of(key)}
                    for key, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
