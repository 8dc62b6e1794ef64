"""The benchmark workloads: what each one calls, on which inputs, and why.

A workload is a fixed mix of calls into anonqnet's public entry points.  The
seed picks the port numbering of every graph, the call order within each pass
of the mix, and the inputs; the program sees only the built ``Topology``
objects and inputs.  Why each mix was chosen is in README.md.
"""
from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Callable

from anonqnet import election, ghz, postelect, topology

import checks


@dataclass(frozen=True)
class Call:
    """One closed-loop call: ``fn()`` is timed, ``check(result)`` is not."""

    label: str
    fn: Callable[[], Any]
    check: Callable[[Any], list]
    identity_topology: Any = None   # set on plain elections: check the cost identity
    item: int = 0                   # position in the unshuffled mix, the same in every pass


def random_ports(name: str, n: int, rng: random.Random) -> topology.Topology:
    """The catalog graph ``name``-``n`` under a uniformly random port numbering."""
    base = topology.catalog(name, n)
    edges = sorted(tuple(sorted(e)) for e in base.edges)
    ports = []
    for v in range(n):
        incident = [frozenset(e) for e in edges if v in e]
        labels = list(range(1, len(incident) + 1))
        rng.shuffle(labels)
        ports.append(dict(zip(incident, labels)))
    return topology.build_graph(n, edges, ports)


# Entry points are looked up on their modules at call time, so the tracer's
# rebinding of module attributes is seen by every call.

def elect_call(label, topo) -> Call:
    return Call(label, lambda: election.elect(topo, all_branches=True),
                lambda r: checks.check_election(r, topo.n), identity_topology=topo)


def bound_call(label, topo, bound: int) -> Call:
    return Call(label,
                lambda: election.elect_with_bound(topo, bound, all_branches=True),
                lambda r: checks.check_election(r, topo.n))


def ghz_call(label, topo, k: int) -> Call:
    return Call(label,
                lambda: ghz.ghz_share(topo, k, all_branches=True),
                lambda r: checks.check_ghz(r, k, topo.n))


def compute_call(label, topo, inputs: tuple, fn_name: str, slot: int) -> Call:
    fn = postelect.BUILTIN_FUNCTIONS[fn_name]
    # the sampling seed of the election is the slot, not the workload seed:
    # the sampled leader fixes the spanning tree and so the metered cost,
    # which must not change with the workload seed
    return Call(label,
                lambda: postelect.compute_function(topo, inputs, fn, seed=slot),
                lambda r: checks.check_compute(r, topo, inputs, fn_name))


# (kind, catalog family, n, parameter) per call of one pass
MIXES = {
    "elect": [("elect", fam, n, None)
              for n in (4, 5) for fam in ("ring", "path", "star", "complete")]
             + [("elect", "ring", 6, None)],
    "branch_enum": [("bound", "ring", 4, 6), ("bound", "complete", 3, 6),
                    ("bound", "ring", 3, 5), ("bound", "path", 3, 5),
                    ("ghz", "ring", 3, 4), ("ghz", "ring", 3, 5)],
    "ghz_views": [("ghz", "ring", 5, 3), ("ghz", "star", 5, 3),
                  ("ghz", "complete", 5, 2), ("ghz", "path", 6, 2),
                  ("ghz", "ring", 6, 2), ("ghz", "complete", 4, 3)],
    # parameter: (input, function) pairs per graph and pass
    "compute": [("compute", fam, 4, 4) for fam in ("ring", "star", "complete", "path")],
}

# Seconds one pass of each mix took on the reference host (2 shared cores,
# Python 3.11, numpy 2.4).  A run of ``seconds`` makes ceil(seconds / this)
# whole passes, so both sides of a comparison time the same calls and the
# tail is the same order statistic of the same sample size.
PASS_SECONDS = {"elect": 3.5, "branch_enum": 2.6, "ghz_views": 1.2, "compute": 1.3}

FRESH_PORTS = {"elect"}   # a new port numbering for every call, not one per graph


class Workload:
    """A seeded workload; ``pass_calls(i)`` gives pass i of its mix."""

    def __init__(self, name: str, seed: int, mix=None):
        self.name = name
        self.seed = seed
        self.mix = MIXES[name] if mix is None else mix
        rng = self._rng("graphs")
        self.graphs = [random_ports(fam, n, rng) for _kind, fam, n, _p in self.mix]

    def _rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def pass_calls(self, index: int) -> list:
        rng = self._rng(index)
        calls = []
        for (kind, fam, n, param), topo in zip(self.mix, self.graphs):
            if self.name in FRESH_PORTS:
                topo = random_ports(fam, n, rng)
            label = f"{kind} {fam}-{n}"
            if kind == "elect":
                calls.append(elect_call(label, topo))
            elif kind == "bound":
                calls.append(bound_call(f"{label} N={param}", topo, param))
            elif kind == "ghz":
                calls.append(ghz_call(f"{label} k={param}", topo, param))
            else:
                for slot in range(param):
                    inputs = tuple(rng.randrange(2) for _ in range(n))
                    fn_name = rng.choice(sorted(checks.ORACLES))
                    calls.append(compute_call(f"{label} {fn_name}", topo, inputs, fn_name, slot))
        calls = [dataclasses.replace(c, item=i) for i, c in enumerate(calls)]
        rng.shuffle(calls)
        return calls
