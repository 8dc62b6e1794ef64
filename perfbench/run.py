"""Benchmark entry point; run it from the root of a source checkout.

    python3 perfbench/run.py --workload elect --seed 1 --seconds 10 --trace 0

It imports anonqnet from ``src/`` of that checkout, runs one workload, writes
the full record under ``.perfbench_out/`` and prints, as its last line, the
result as one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).  Exit code 2 means the sources or the arguments are missing or wrong.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("elect", "branch_enum", "ghz_views", "compute")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    package = ROOT / "src" / "anonqnet"
    if not (package / "__init__.py").is_file():
        print(f"error: no anonqnet sources at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import anonqnet
    if Path(anonqnet.__file__).resolve().parent != package:
        print(f"error: imported anonqnet from {anonqnet.__file__}, not {package}",
              file=sys.stderr)
        return 2
    import bench

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"{stem}.spans.npz" if args.trace else None
    result, record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               spans_path=spans)
    record["host"] = bench.host(ROOT, args.seed)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["run_problems"] + record["failures"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"record: {OUT / stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
