"""Correctness checks on what the qcsa CLI wrote, made without calling qcsa.

``simulate`` rows are replayed from their recorded stream: trial t of seed s
draws from ``default_rng((s, t))`` delta then nu for instance 1, then delta
then nu for instance 2, and the box output must be

    y = delta1 + tail1 + delta2 + tail2

where tail1 is the last floor(N/2) - L symbols of nu1 and tail2 the last
ceil(N/2) - L symbols of nu2, at the reduced point (N', L').  Each check
returns a list of problems; an empty list means the output is correct.
"""

import json

import numpy as np


def expected_y(p: int, n: int, l: int, seed: int, t: int) -> list:
    rng = np.random.default_rng((seed, t))
    d1 = rng.integers(0, p, size=l)
    nu1 = rng.integers(0, p, size=n - l)
    d2 = rng.integers(0, p, size=l)
    nu2 = rng.integers(0, p, size=n - l)
    tail1 = nu1[len(nu1) - (n // 2 - l):]
    tail2 = nu2[len(nu2) - ((n + 1) // 2 - l):]
    return np.concatenate([d1, tail1, d2, tail2]).tolist()


def check_verify(rc, stdout: str) -> list:
    problems = [] if rc == 0 else [f"verify exited {rc}"]
    lines = stdout.splitlines()
    if not lines:
        return problems + ["verify printed nothing"]
    checks = lines[:-1]
    failed = [line for line in checks if not line.startswith("PASS ")]
    if failed:
        problems.append(f"verify reported {failed[:3]}")
    if not checks or lines[-1] != f"{len(checks)}/{len(checks)} checks passed":
        problems.append(f"verify summary reads {lines[-1]!r}")
    return problems


def check_simulate(rc, text: str, point) -> list:
    """Replay every trial row of one simulate output and check its summary."""
    problems = [] if rc == 0 else [f"simulate exited {rc}"]
    n2, l2 = point.reduced
    lines = text.splitlines()
    if len(lines) != point.trials + 1:
        return problems + [f"expected {point.trials + 1} JSONL lines, got {len(lines)}"]
    for t, line in enumerate(lines[:-1]):
        row = json.loads(line)
        if row["seed"] != [point.seed, t]:
            problems.append(f"trial {t}: seed {row['seed']}")
        elif row["y"] != expected_y(point.p, n2, l2, point.seed, t):
            problems.append(f"trial {t}: y differs from the replayed stream")
        elif row["pass"] is not True:
            problems.append(f"trial {t}: pass is {row['pass']!r}")
        if len(problems) >= 3:
            return problems
    summary = json.loads(lines[-1])
    params = summary["params"]
    if (params["N"], params["L"], params["p"]) != (n2, l2, point.p):
        problems.append(f"summary params {params['N']},{params['L']},{params['p']}")
    if summary["trials"] != point.trials or summary["passed"] != point.trials:
        problems.append(f"summary {summary['passed']}/{summary['trials']} passed")
    if summary["reduced"] != ((n2, l2) != (point.n, point.l)):
        problems.append(f"summary reduced is {summary['reduced']!r}")
    return problems
