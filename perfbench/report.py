"""Run every workload and print all metrics, with units, in one table.

    python3 perfbench/report.py                       # seed 1, run_seconds per run
    python3 perfbench/report.py --seeds 1-10          # spread over ten seeds
    python3 perfbench/report.py --seeds 1-10 --write perfbench/baseline.json

For each workload this runs ``run.py --trace 0`` once per seed, and
``run.py --trace 1`` once on the first seed, each in a fresh process, one
after the other.  It prints every end-to-end metric (median over seeds, and
the quartile spread as a share of the median when there are several seeds),
every per-layer metric of the traced run, the tracing overhead, and each
workload's measured layer shares beside the prediction.  ``--write`` saves
all of it, with the environment and the output file hashes, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def workload_summary(workload: str, seeds: list, seconds: int) -> dict:
    untraced = []
    for seed in seeds:
        run = run_once(workload, seed, seconds, 0)
        untraced.append(run)
        print(f"  {workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in run["result"]["metrics"].items()),
            file=sys.stderr, flush=True)
    traced = run_once(workload, seeds[0], seconds, 1)
    end_to_end = {}
    for key, entry in sorted(untraced[0]["report"]["end_to_end"].items()):
        values = [run["report"]["end_to_end"][key]["value"] for run in untraced]
        end_to_end[key] = {
            "value": statistics.median(values), "unit": unit_of(key),
            "bound": BOUNDS.get(key), "runs": len(values), "spread": spread(values),
            "values": values, "samples_per_run": entry["samples"]["n"]}
    attempted = sum(run["result"]["attempted"] for run in untraced)
    failed = sum(run["result"]["failed"] for run in untraced)
    traced_e2e = traced["report"]["end_to_end"]
    first = untraced[0]["report"]
    return {
        "seeds": seeds,
        "seconds": seconds,
        "attempted": attempted,
        "fail_ratio": failed / attempted,
        "end_to_end": end_to_end,
        "per_layer": traced["result"]["metrics"],
        "per_layer_counts_repeat": traced["report"]["per_layer_counts_repeat"],
        "tracing_overhead": dict(
            traced["report"]["tracing_overhead"],
            peak_rss_mb=traced_e2e["peak_rss_mb"]["value"]
            - first["end_to_end"]["peak_rss_mb"]["value"]),
        "layer_shares": traced["report"]["layer_shares"],
        "sha256_seed": seeds[0],
        "sha256": first["sha256"],
        "environment": first["environment"],
    }


def print_summary(workload: str, s: dict) -> None:
    print(f"\n== {workload}  (seeds {s['seeds'][0]}..{s['seeds'][-1]}, {s['seconds']} s per run)")
    for key, e in s["end_to_end"].items():
        extra = ""
        if e["spread"] is not None:
            extra += f"  spread {e['spread']:.4f}"
        extra += "  (seconds, not gated)" if e["bound"] is None else f" of bound {e['bound']}"
        print(f"  {key:28s} {e['value']:14.6g} {e['unit']:6s}"
              f" n={e['samples_per_run']}/run{extra}")
    print(f"  {'fail_ratio':28s} {s['fail_ratio']:14.6g} {'ratio':6s}"
          f" of {s['attempted']} operations")
    print("  per layer (traced run, per round):")
    for key, e in s["per_layer"].items():
        print(f"    {key:34s} {e['value']:14.6g} {e['unit']}")
    print("  tracing overhead (traced minus untraced rounds of one process, beside the"
          " untraced rounds' quartile spread; peak_rss_mb: traced minus untraced run):")
    for key, value in s["tracing_overhead"].items():
        if isinstance(value, dict):
            spread = value["untraced_spread"]
            text = (f"{value['overhead']:+.6g}  spread "
                    f"{'n/a' if spread is None else f'{spread:.6g}'} over "
                    f"{value['untraced_rounds']} rounds"
                    f"{'' if value['resolved'] else '  unresolved'}")
        else:
            text = value if isinstance(value, str) else f"{value:+.6g}"
        print(f"    {key:28s} {text}")
    shares = s["layer_shares"]
    print(f"  predicted: {shares['prediction']['text']}")
    print(f"  measured:  {shares['dominant_layer']} {shares['dominant_share']:.1%} of "
          f"{'+'.join(shares['prediction']['commands'])} time; "
          f"prediction {'holds' if shares['prediction_holds'] else 'does not hold'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="N, A-B or A,B,C")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--write", help="save the summary as JSON to this file")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    summary = {}
    for workload in args.workloads.split(","):
        summary[workload] = workload_summary(workload, seeds, args.seconds)
        print_summary(workload, summary[workload])
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
