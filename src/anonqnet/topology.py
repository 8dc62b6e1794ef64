"""Connected port-numbered graphs: the substrate every party program runs on.

Node indices exist only in the harness; party programs never see them.  What a
party can observe is its degree and its locally numbered ports 1..deg.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

Edge = frozenset


def _edge(u: int, v: int) -> Edge:
    return frozenset((u, v))


@dataclass(frozen=True)
class Topology:
    """An undirected, connected, simple graph with a port numbering.

    ``ports[v]`` maps each edge incident to ``v`` to a port label in
    ``1..deg(v)``; the labeling of one node is independent of all others.
    ``memo`` holds results that protocols derive from n, edges and ports
    alone (the election, see ``election.elect``); it is not a field, so
    ``dataclasses.replace`` starts a new topology with an empty one.
    Instances are safe to share between concurrent runs: every memo entry is
    immutable, depends on nothing but the topology, and is inserted with
    ``dict.setdefault``.
    """

    n: int
    edges: frozenset
    ports: tuple  # ports[v] is a dict {edge: port}

    @cached_property
    def memo(self) -> dict:
        return {}

    @cached_property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple:
        nbrs = [set() for _ in range(self.n)]
        for e in self.edges:
            u, v = sorted(e)
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(tuple(sorted(s)) for s in nbrs)

    @cached_property
    def _links(self) -> tuple:
        # _links[v][port] = (neighbor, port at neighbor)
        table = [dict() for _ in range(self.n)]
        for e in self.edges:
            u, v = e
            table[u][self.ports[u][e]] = (v, self.ports[v][e])
            table[v][self.ports[v][e]] = (u, self.ports[u][e])
        return tuple(table)

    def degree(self, v: int) -> int:
        return len(self.ports[v])

    def link(self, v: int, port: int) -> tuple:
        """Return ``(neighbor, port at neighbor)`` across ``port`` of node ``v``."""
        try:
            return self._links[v][port]
        except KeyError:
            raise ValueError(f"node {v} has no port {port}") from None

    def _bfs(self, source: int):
        dist = [-1] * self.n
        dist[source] = 0
        queue = [source]
        for v in queue:
            for u in self.adjacency[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return dist


def default_ports(n: int, edges: Iterable[Edge]) -> tuple:
    """Number each node's incident edges 1..deg, sorted by neighbor index."""
    ports = [dict() for _ in range(n)]
    nbrs = [[] for _ in range(n)]
    for e in edges:
        u, v = sorted(e)
        nbrs[u].append(v)
        nbrs[v].append(u)
    for v in range(n):
        for i, u in enumerate(sorted(nbrs[v]), start=1):
            ports[v][_edge(v, u)] = i
    return tuple(ports)


def build_graph(n: int, edges: Iterable[Sequence[int]], ports=None) -> Topology:
    """Validate and construct a :class:`Topology`.

    ``ports`` may be omitted (the deterministic default numbering is used) or
    given as a sequence of ``{edge: port}`` dicts, one per node.
    """
    if n < 1:
        raise ValueError("party count must be at least 1")
    edge_set = set()
    for pair in edges:
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        e = _edge(u, v)
        if e in edge_set:
            raise ValueError(f"duplicate edge ({u},{v})")
        edge_set.add(e)
    if ports is None:
        port_tables = default_ports(n, edge_set)
    else:
        port_tables = tuple(dict(p) for p in ports)
    topo = Topology(n=n, edges=frozenset(edge_set), ports=port_tables)
    _validate(topo)
    return topo


def _validate(topo: Topology) -> None:
    seen = [set() for _ in range(topo.n)]
    for e in topo.edges:
        for v in e:
            seen[v].add(e)
    for v in range(topo.n):
        table = topo.ports[v]
        if set(table) != seen[v]:
            raise ValueError(f"port table of node {v} does not cover its incident edges")
        labels = sorted(table.values())
        if labels != list(range(1, len(seen[v]) + 1)):
            raise ValueError(f"ports of node {v} are not a bijection onto 1..deg")
    if topo.n > 1:
        dist = topo._bfs(0)
        if min(dist) < 0:
            raise ValueError("graph is not connected")


def is_automorphism(topo: Topology, perm: Sequence[int]) -> bool:
    """True iff ``perm`` preserves both adjacency and port labels."""
    if sorted(perm) != list(range(topo.n)):
        return False
    for e in topo.edges:
        u, v = sorted(e)
        img = _edge(perm[u], perm[v])
        if img not in topo.edges:
            return False
        if topo.ports[perm[u]][img] != topo.ports[u][e]:
            return False
        if topo.ports[perm[v]][img] != topo.ports[v][e]:
            return False
    return True


def relabel(values: Sequence, aut: Sequence[int]) -> list:
    """Per-party ``values`` moved along ``aut``: party ``aut[v]`` gets ``values[v]``."""
    moved = [None] * len(values)
    for v, value in enumerate(values):
        moved[aut[v]] = value
    return moved


def automorphisms(topo: Topology) -> list:
    """All port-preserving automorphisms, by brute force (n <= 8)."""
    if topo.n > 8:
        raise ValueError("exhaustive automorphism search is limited to n <= 8")
    return [perm for perm in itertools.permutations(range(topo.n)) if is_automorphism(topo, perm)]


def catalog(name: str, n: int) -> Topology:
    """Canonical test graphs with deterministic port numberings.

    Rings and complete graphs get rotation-symmetric ports (port p of node v
    leads to node v+p mod n) so that their cyclic automorphisms survive port
    preservation; other families use the default numbering.
    """
    if name == "ring":
        if n < 2:
            raise ValueError("ring needs n >= 2")
        if n == 2:
            return build_graph(2, [(0, 1)])
        edges = [(v, (v + 1) % n) for v in range(n)]
        ports = [
            {_edge(v, (v + 1) % n): 1, _edge(v, (v - 1) % n): 2}
            for v in range(n)
        ]
        return build_graph(n, edges, ports)
    if name == "path":
        if n < 2:
            raise ValueError("path needs n >= 2")
        return build_graph(n, [(v, v + 1) for v in range(n - 1)])
    if name == "complete":
        if n < 2:
            raise ValueError("complete graph needs n >= 2")
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        ports = [
            {_edge(v, (v + p) % n): p for p in range(1, n)}
            for v in range(n)
        ]
        return build_graph(n, edges, ports)
    if name == "star":
        if n < 2:
            raise ValueError("star needs n >= 2")
        return build_graph(n, [(0, v) for v in range(1, n)])
    if name == "torus2d":
        a = _torus_rows(n)
        b = n // a
        edges = set()
        for i in range(a):
            for j in range(b):
                v = i * b + j
                edges.add(tuple(sorted((v, i * b + (j + 1) % b))))
                edges.add(tuple(sorted((v, ((i + 1) % a) * b + j))))
        return build_graph(n, sorted(edges))
    raise ValueError(f"unknown catalog graph {name!r}")


def _torus_rows(n: int) -> int:
    # wrap-around on a side of length 2 would duplicate edges, so both sides
    # must be at least 3
    best = 0
    for a in range(3, int(n ** 0.5) + 1):
        if n % a == 0 and n // a >= 3:
            best = a
    if best == 0:
        raise ValueError(f"torus2d needs n = a*b with a, b >= 3; n={n} has no such factorization")
    return best


CATALOG_NAMES = ("ring", "path", "complete", "star", "torus2d")


_RECORD_FIELDS = {"n": 1, "e": 2, "p": 3}


def load_graph(text: str) -> Topology:
    """Parse the plain-text graph format.

    First line ``n <count>``, one ``e <u> <v>`` line per edge, and optional
    ``p <v> <edge-index> <port>`` lines (edge indices are 0-based positions in
    the order the ``e`` lines appear).  Port lines override the default
    numbering; the result must still be a bijection per node.  A second port
    line for the same node and edge is refused.
    """
    n = None
    edges = []
    overrides = {}   # (node, edge index): port
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, *fields = line.split()
        if tag not in _RECORD_FIELDS:
            raise ValueError(f"line {lineno}: unknown record {tag!r}")
        if len(fields) != _RECORD_FIELDS[tag]:
            raise ValueError(f"line {lineno}: record {tag!r} needs "
                             f"{_RECORD_FIELDS[tag]} fields, got {len(fields)}")
        try:
            values = tuple(int(f) for f in fields)
        except ValueError:
            raise ValueError(f"line {lineno}: record {tag!r} needs integer fields, "
                             f"got {' '.join(fields)!r}") from None
        if tag == "n":
            if n is not None:
                raise ValueError(f"line {lineno}: second 'n' record")
            (n,) = values
        elif tag == "e":
            edges.append(values)
        else:
            if values[:2] in overrides:
                raise ValueError(f"line {lineno}: second 'p' record for node {values[0]} "
                                 f"on edge {values[1]}")
            overrides[values[:2]] = values[2]
    if n is None:
        raise ValueError("missing 'n <count>' line")
    if not overrides:
        return build_graph(n, edges)
    ports = [dict(p) for p in default_ports(n, {_edge(u, v) for u, v in edges})]
    for (v, idx), port in overrides.items():
        if not (0 <= idx < len(edges)):
            raise ValueError(f"port override references edge index {idx} out of range")
        e = _edge(*edges[idx])
        if v not in e:
            raise ValueError(f"port override: node {v} is not an endpoint of edge {idx}")
        ports[v][e] = port
    return build_graph(n, edges, ports)


def load_graph_file(path) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(fh.read())


def dump_graph(topo: Topology) -> str:
    """Serialize a topology in the graph file format, ports included."""
    lines = [f"n {topo.n}"]
    ordered = sorted(tuple(sorted(e)) for e in topo.edges)
    index = {_edge(u, v): i for i, (u, v) in enumerate(ordered)}
    for u, v in ordered:
        lines.append(f"e {u} {v}")
    for v in range(topo.n):
        for e, p in sorted(topo.ports[v].items(), key=lambda item: index[item[0]]):
            lines.append(f"p {v} {index[e]} {p}")
    return "\n".join(lines) + "\n"
