"""Command-line entry point: elections, cat-state sharing, verification.

All commands emit JSON (floats printed with 17 significant digits so runs
are reproducible byte for byte) and use the exit-code contract 0 = success,
1 = verification or invariant failure, 2 = usage error.
"""
from __future__ import annotations

import argparse
import sys

from . import __version__
from .election import cost_breakdown, elect, elect_with_bound
from .errors import SimulationError
from .ghz import ghz_share
from .postelect import BUILTIN_FUNCTIONS, compute_function
from .topology import CATALOG_NAMES, Topology, catalog, load_graph_file
from .verify import SUITES, run_suites


def _fmt(value) -> str:
    """Render a JSON value with deterministic 17-significant-digit floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        import json
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{_fmt(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(payload, path) -> None:
    text = _fmt(payload) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _refuse_conflicting_graph_args(args) -> None:
    if args.graph and (args.catalog or args.n is not None):
        raise ValueError("--graph cannot be combined with --catalog or --n")


def _load_topology(args) -> Topology:
    _refuse_conflicting_graph_args(args)
    if args.graph:
        return load_graph_file(args.graph)
    if args.catalog:
        if args.n is None:
            raise ValueError("--catalog needs --n")
        return catalog(args.catalog, args.n)
    raise ValueError("supply --graph FILE or --catalog NAME --n N")


def _add_graph_args(parser, multi_n: bool = False) -> None:
    parser.add_argument("--graph", help="graph file (n/e/p records)")
    parser.add_argument("--catalog", choices=CATALOG_NAMES, help="catalog graph family")
    if multi_n:
        parser.add_argument("--n", type=int, nargs="+", help="party count(s)")
    else:
        parser.add_argument("--n", type=int, help="party count")
    parser.add_argument("--out", help="write JSON here instead of stdout")


def cmd_elect(args) -> int:
    topo = _load_topology(args)
    if args.upper_bound is not None:
        result = elect_with_bound(topo, args.upper_bound, seed=args.seed,
                                  all_branches=args.all_branches)
    else:
        result = elect(topo, seed=args.seed, all_branches=args.all_branches)
    payload = result.to_json()
    bad = [b for b in result.branches if b.leader_count != 1]
    payload["unique_leader_in_every_branch"] = not bad
    _emit(payload, args.out)
    return 0 if not bad else 1


def cmd_ghz(args) -> int:
    topo = _load_topology(args)
    result = ghz_share(topo, args.k, seed=args.seed, all_branches=args.all_branches)
    _emit(result.to_json(), args.out)
    return 0


def cmd_compute(args) -> int:
    topo = _load_topology(args)
    inputs = [int(tok) for tok in args.inputs.split(",")]
    fn = BUILTIN_FUNCTIONS[args.fn]
    run = compute_function(topo, inputs, fn, seed=args.seed)
    payload = {
        "function": args.fn,
        "inputs": inputs,
        "value": run.value,
        "values": list(run.values),
        "leader": run.leader,
        "ids": list(run.tree.ids),
        "cost": run.cost.to_json(),
    }
    _emit(payload, args.out)
    return 0


def cmd_cost_table(args) -> int:
    _refuse_conflicting_graph_args(args)
    rows = []
    sizes = args.n or []
    if args.graph:
        graphs = [("file", load_graph_file(args.graph))]
    else:
        if not (args.catalog and sizes):
            raise ValueError("cost-table needs --catalog NAME --n N [N ...] or --graph FILE")
        graphs = [(f"{args.catalog}-{n}", catalog(args.catalog, n)) for n in sizes]
    for label, topo in graphs:
        n = topo.n
        if n < 2:
            raise ValueError(f"cost-table needs at least two parties; {label} has {n}")
        costs = cost_breakdown(topo)
        row = {"graph": label, "n": n, "m": topo.m}
        for part, cost in costs.items():
            row[f"{part}_rounds"] = cost.rounds
            row[f"{part}_qubits"] = cost.qubits_sent
        qle, h0, h1 = costs["qle"], costs["h0"], costs["h1"]
        row["qle_rounds_over_n"] = qle.rounds / n
        row["qle_qubits_over_mn2"] = qle.qubits_sent / (topo.m * n * n)
        row["identity_qle_eq_2h0_plus_2h1"] = (
            (qle.rounds, qle.qubits_sent)
            == (2 * h0.rounds + 2 * h1.rounds, 2 * h0.qubits_sent + 2 * h1.qubits_sent))
        rows.append(row)
    if args.out and args.out.endswith(".csv"):
        cols = list(rows[0])
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(
                format(row[c], ".17g") if isinstance(row[c], float) else str(row[c])
                for c in cols))
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        _emit({"rows": rows}, args.out)
    return 0


def cmd_verify(args) -> int:
    report = run_suites(args.suite)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anonqnet",
        description="simulate exact algorithms on anonymous quantum networks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("elect", help="run leader election")
    _add_graph_args(p)
    p.add_argument("--upper-bound", type=int, default=None,
                   help="parties know only this bound on n")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--all-branches", action="store_true")
    p.set_defaults(handler=cmd_elect)

    p = sub.add_parser("ghz", help="share a generalized GHZ state")
    _add_graph_args(p)
    p.add_argument("--k", type=int, required=True, help="qudit dimension")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--all-branches", action="store_true")
    p.set_defaults(handler=cmd_ghz)

    p = sub.add_parser("compute", help="compute a labeled-graph function")
    _add_graph_args(p)
    p.add_argument("--fn", choices=sorted(BUILTIN_FUNCTIONS), required=True)
    p.add_argument("--inputs", required=True, help="comma-separated bits, one per party")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=cmd_compute)

    p = sub.add_parser("cost-table", help="measured costs and scaling ratios")
    _add_graph_args(p, multi_n=True)
    p.set_defaults(handler=cmd_cost_table)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   help=f"one of {', '.join(sorted(SUITES))}, or 'all'")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SimulationError as exc:
        # an invariant broke mid-run: report it as JSON, not as a traceback
        _emit({"error": type(exc).__name__, "message": str(exc)}, None)
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
