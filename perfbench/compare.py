"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` records that
run.py writes to ``.perfbench_out/``; copy that directory aside after the
runs of each commit.  Use the same seeds on both sides, ten or more per
workload.  For each workload and metric this prints both sides' median and
quartiles.  End-to-end metrics also get a verdict against their bound in
BENCHMARK.json:

- ``worse``: the after median is worse than the before median by more than
  the bound.
- ``unresolved``: the before runs spread wider than the bound, unless every
  after run beats every before run.
- ``ok``: neither of these.

Each verdict gives the signed change of the median; positive is worse.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory) -> dict:
    values = {}
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        record = json.loads(path.read_text())
        for metric, m in record["metrics"].items():
            values.setdefault((record["workload"], metric), []).append(m["value"])
    return values


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before, after, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    q1, med, q3 = quartiles(before)
    worse_by = sign * (statistics.median(after) - med) / med
    if worse_by > bound:
        return f"worse ({worse_by:+.1%})"
    beats = max(after) < min(before) if better == "lower" else min(after) > max(before)
    if (q3 - q1) / med > bound and not beats:
        return "unresolved"
    return f"ok ({worse_by:+.1%})"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    before, after = load(argv[0]), load(argv[1])
    for key in sorted(before.keys() & after.keys()):
        workload, metric = key
        b, a = before[key], after[key]
        row = f"{workload:12s} {metric:40s} n={len(b)}/{len(a)} "
        row += "before {:.6g} [{:.6g}, {:.6g}]".format(*(quartiles(b)[i] for i in (1, 0, 2)))
        row += "  after {:.6g} [{:.6g}, {:.6g}]".format(*(quartiles(a)[i] for i in (1, 0, 2)))
        if metric in bounds and statistics.median(b):
            row += "  " + verdict(b, a, bounds[metric]["bound"], bounds[metric]["better"])
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
