"""What a unique leader unlocks: identifiers, graph recognition, functions.

Once one party is distinguished, anonymity is broken for good: the leader
walks a depth-first token through the network, hands out identifiers, learns
the whole adjacency structure, and can then evaluate any function of the
labeled graph or reroute qudits.  These steps are computed centrally here
with every message explicitly metered; traversals are counted as sequential
token walks without pipelining.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .election import elect
from .qsim import SparseState, gate
from .runtime import CostReport, sequential
from .topology import Topology


@dataclass(frozen=True)
class SpanningTree:
    root: int
    parent: tuple          # parent[v]; None at the root
    preorder: tuple        # nodes in visit order
    ids: tuple             # ids[v] in 1..n, leader gets 1
    depths: tuple          # depths[v]: tree edges from the root to v
    height: int            # max(depths)


def spanning_tree(topology: Topology, leader: int) -> tuple:
    """Depth-first tree from the leader, children visited in port order.

    The token crosses each tree edge twice, 2(n - 1) moves in all; on first
    arrival at a node, one notify/acknowledge exchange with its neighbors
    tells the walk which ports still lead to unvisited parties (Awerbuch,
    Inf. Process. Lett. 20(3), 1985).  A second walk hands out identifiers in
    visit order.  Rounds stay linear in n, traffic linear in m.
    """
    n = topology.n
    if not 0 <= leader < n:
        raise ValueError(f"leader {leader} outside 0..{n - 1}")
    parent = [None] * n
    depths = [None] * n    # None until the walk first reaches the node
    depths[leader] = 0
    order = [leader]
    # iterative, so that a long path does not reach the recursion limit
    path = [leader]
    while path:
        v = path[-1]
        for port in range(1, topology.degree(v) + 1):
            u, _q = topology.link(v, port)
            if depths[u] is None:
                parent[u] = v
                depths[u] = depths[v] + 1
                order.append(u)
                path.append(u)
                break
        else:
            path.pop()
    ids = [0] * n
    for i, v in enumerate(order, start=1):
        ids[v] = i
    tree = SpanningTree(root=leader, parent=tuple(parent), preorder=tuple(order),
                        ids=tuple(ids), depths=tuple(depths), height=max(depths))

    # pass 1: token walk (1 bit per move) plus one notify/ack round pair per
    # node; pass 2: the identifier walk carries a counter up to n
    moves = 2 * (n - 1)
    notify = 2 * sum(topology.degree(v) for v in range(n))
    pass1 = CostReport(moves + 2 * n, moves + notify, moves + notify, ())
    id_bits = max(1, n.bit_length())
    pass2 = CostReport(moves, moves, moves * id_bits, ())
    return tree, sequential(pass1, pass2)


def recognize_graph(topology: Topology, tree: SpanningTree) -> tuple:
    """The adjacency matrix in identifier space, known to every party.

    Parties swap identifiers with their neighbors, leaves start adjacency
    matrices up the tree with internal nodes merging, and the leader
    broadcasts the result back down.
    """
    n = topology.n
    adj = np.zeros((n, n), dtype=int)
    for e in topology.edges:
        u, v = sorted(e)
        adj[tree.ids[u] - 1, tree.ids[v] - 1] = 1
        adj[tree.ids[v] - 1, tree.ids[u] - 1] = 1
    id_bits = max(1, n.bit_length())
    id_swap = CostReport(1, 2 * topology.m, 2 * topology.m * id_bits, ())
    matrix_symbols = (n - 1) * n * n
    gather = CostReport(tree.height, matrix_symbols, matrix_symbols, ())
    broadcast = CostReport(tree.height, matrix_symbols, matrix_symbols, ())
    return adj, sequential(id_swap, gather, broadcast)


def majority(adj: np.ndarray, labels: Sequence[int]) -> int:
    return 1 if 2 * sum(labels) > len(labels) else 0


def parity(adj: np.ndarray, labels: Sequence[int]) -> int:
    return sum(labels) % 2


def all_equal(adj: np.ndarray, labels: Sequence[int]) -> int:
    return 1 if len(set(labels)) == 1 else 0


def labeled_cycle_exists(adj: np.ndarray, labels: Sequence[int]) -> int:
    """Is there a cycle on which every node carries label 1?

    Any such cycle lies in the subgraph induced by the label-1 nodes, so this
    reduces to cycle detection there.
    """
    n = len(labels)
    keep = [i for i in range(n) if labels[i] == 1]
    index = {v: i for i, v in enumerate(keep)}
    parent = list(range(len(keep)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in keep:
        for v in keep:
            if v <= u or not adj[u][v]:
                continue
            ru, rv = find(index[u]), find(index[v])
            if ru == rv:
                return 1
            parent[ru] = rv
    return 0


BUILTIN_FUNCTIONS = {
    "majority": majority,
    "parity": parity,
    "all-equal": all_equal,
    "labeled-cycle": labeled_cycle_exists,
}


@dataclass
class FunctionRun:
    values: tuple            # one per party; all equal
    leader: int
    tree: SpanningTree
    adjacency: np.ndarray
    cost: CostReport

    @property
    def value(self):
        return self.values[0]


def compute_function(topology: Topology, inputs: Sequence[int],
                     fn: Callable, seed: Optional[int] = None) -> FunctionRun:
    """Elect, build the tree, recognize the graph, evaluate, broadcast.

    ``inputs`` holds one bit per party.  ``fn(adjacency, labels)`` sees the
    graph in identifier space with ``labels[i]`` the input of the party
    holding identifier i+1; it must not care which consistent relabeling it
    is given.  The election is simulated once per topology object (see
    ``elect``), but every call is charged its full cost.
    """
    n = topology.n
    if len(inputs) != n:
        raise ValueError(f"expected {n} inputs")
    if any(x not in (0, 1) for x in inputs):
        raise ValueError(f"inputs must be bits 0 or 1, got {list(inputs)}")
    election = elect(topology, seed=seed)
    branch = election.sampled
    (leader,) = branch.leaders
    tree, tree_cost = spanning_tree(topology, leader)
    adj, rec_cost = recognize_graph(topology, tree)
    labels = [0] * n
    for v in range(n):
        labels[tree.ids[v] - 1] = inputs[v]
    value = fn(adj, labels)
    label_symbols = sum(tree.depths)
    gather = CostReport(tree.height, label_symbols, label_symbols, ())
    broadcast = CostReport(tree.height, n - 1, n - 1, ())
    cost = sequential(election.cost, tree_cost, rec_cost, gather, broadcast)
    return FunctionRun(values=(value,) * n, leader=leader, tree=tree,
                       adjacency=adj, cost=cost)


def unitary_from_first_column(column: np.ndarray) -> np.ndarray:
    """Complete a unit vector to a unitary having it as the first column."""
    col = np.asarray(column, dtype=complex)
    norm = np.linalg.norm(col)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("column must be a unit vector")
    d = len(col)
    seed_mat = np.eye(d, dtype=complex)
    seed_mat[:, 0] = col
    q, r = np.linalg.qr(seed_mat)
    q[:, 0] *= r[0, 0] / abs(r[0, 0])
    return q


def gather_scatter_state(topology: Topology, leader: int, state: SparseState,
                         register: str, transform: np.ndarray) -> tuple:
    """Route every party's qudit to the leader, transform, route back.

    The route is ``spanning_tree(topology, leader)``, and the cost is that
    tree's cost followed by the hops.  Ownership is tracked by relabeling
    rather than hop-by-hop state updates, but every hop is metered: each
    qudit travels its tree distance twice.
    ``transform`` acts on the gathered qudits ordered by identifier, and the
    i-th output qudit ends up at the party holding identifier i.  It must
    pass ``qsim.gate()``, or ``ValueError`` is raised.
    """
    lay = state.layout
    n = lay.n_parties
    if topology.n != n:
        raise ValueError("state and topology disagree on the party count")
    k = lay.dim(register)
    tree, tree_cost = spanning_tree(topology, leader)
    dim = k ** n
    unitary = gate(transform)
    if unitary.dim != dim:
        raise ValueError(f"transform must be {dim}x{dim}")

    # the slot of the qudit that identifier i + 1 holds, most significant first
    order = [lay.slots(register)[p] for p in tree.preorder]
    amps: dict = {}
    for key, amp in state.amps.items():
        index = 0
        for s in order:
            index = index * k + key[s]
        for out, coeff in unitary.columns[index]:
            nk = list(key)
            for s in reversed(order):
                out, nk[s] = divmod(out, k)
            nk = tuple(nk)
            amps[nk] = amps.get(nk, 0j) + coeff * amp
    final = SparseState(lay, amps)

    hops = sum(tree.depths)
    qudit_bits = max(1, (k - 1).bit_length())
    hop_cost = CostReport(4 * max(n - 1, 0), 2 * hops, 2 * hops * qudit_bits, ())
    return final, sequential(tree_cost, hop_cost)
