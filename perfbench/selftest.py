"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test run: it runs two
traced rounds of every workload, which takes a minute or two.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

CLI = run.load_program()
WORKDIR = run.ROOT / ".perfbench" / "selftest"


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_counts_repeat_for_fixed_seed(workload):
    """matrix.mac_ops, every _calls count and cli.bytes_written repeat exactly."""
    ruler = hostspeed.Ruler(run.SPEED_KERNEL[workload])
    counts = []
    for attempt in range(2):
        points = inputs.workload_points(workload, 7)
        bench = run.Bench(CLI, points, WORKDIR / f"{workload}-{attempt}", ruler)
        round_ = bench.round(traced=True)
        assert all(e["ref_seconds"] > 0 for s in round_["sessions"] for e in s.values())
        metrics = run.layer_metrics(round_)
        assert bench.failed == 0, bench.problems
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    ruler.close()
    assert counts[0] == counts[1]
    assert counts[0]["matrix.mac_ops"] > 0
    assert counts[0]["cli.bytes_written"] > 0
    assert all(counts[0][f"{name}_calls"] > 0 for name in run.PER_LAYER_TIMES)


def test_inputs_depend_only_on_the_seed():
    for workload in inputs.WORKLOADS:
        assert inputs.workload_points(workload, 3) == inputs.workload_points(workload, 3)
    assert inputs.workload_points("sim-wide", 3) != inputs.workload_points("sim-wide", 4)


def test_distinct_residues_is_a_draw_without_replacement():
    rng = inputs.np.random.default_rng(0)
    for p, k in ((3, 3), (23, 20), (inputs.P31, 319)):
        picks = inputs.distinct_residues(rng, p, k)
        assert len(picks) == k == len(set(picks))
        assert all(0 <= x < p for x in picks)


def test_simulate_check_catches_a_changed_output():
    point = inputs.workload_points("sim-wide", 5)[0]
    path = WORKDIR / "check.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    assert CLI.main(point.simulate_argv(str(path))) == 0
    lines = path.read_text().splitlines()
    assert checks.check_simulate(0, "\n".join(lines), point) == []
    row = json.loads(lines[3])
    row["y"][-1] = (row["y"][-1] + 1) % point.p
    bad = lines[:3] + [json.dumps(row)] + lines[4:]
    assert checks.check_simulate(0, "\n".join(bad), point) == [
        "trial 3: y differs from the replayed stream"]
    assert checks.check_simulate(1, "\n".join(lines), point) == ["simulate exited 1"]
