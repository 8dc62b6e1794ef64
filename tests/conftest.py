"""Shared helpers: brute-force oracles and graph generators for tests."""
import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import strategies as st

from anonqnet import election
from anonqnet.subroutines import run_cached
from anonqnet.topology import build_graph, catalog, relabel


def catalog_cases(n_min, n_max, names=("ring", "path", "complete", "star")):
    """(name, n, topology) for every catalog family in the size range."""
    out = []
    for name in names:
        for n in range(max(n_min, 2), n_max + 1):
            out.append((name, n, catalog(name, n)))
    return out


def case_ids(cases):
    return [f"{name}-{n}" for name, n, _topo in cases]


@pytest.fixture
def election_runs(monkeypatch):
    """Arguments of every ``election._amplified_coins`` call made in the test."""
    calls = []
    original = election._amplified_coins

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(election, "_amplified_coins", counting)
    return calls


def in_two_threads(fn):
    """Results of ``fn()`` run by two threads released together.

    The interpreter switches threads every 10 microseconds meanwhile, so the
    two runs interleave finely enough to meet in a shared memo.
    """
    start = threading.Barrier(2)

    def run():
        start.wait(timeout=60)
        return fn()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run) for _ in range(2)]
            return [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)


def cached_run_equivariant(sub, topo, inputs, aut):
    """``run_cached`` outputs move along ``aut`` with the inputs; costs stay."""
    out, cost = run_cached(sub, topo, tuple(inputs))
    return run_cached(sub, topo, tuple(relabel(inputs, aut))) == (tuple(relabel(out, aut)), cost)


# brute-force oracles: these never touch the simulator


def oracle_all_zeros(x):
    return 1 if sum(x) == 0 else 0


def oracle_weight_is_one(x):
    return 1 if sum(x) == 1 else 0


def oracle_consistency(pairs):
    marked = [r for r, z in pairs if z == 1]
    return 1 if (not marked or len(set(marked)) == 1) else 0


def oracle_modular_sum(x, k):
    return sum(x) % k


def all_bit_vectors(n):
    return list(itertools.product(range(2), repeat=n))


@st.composite
def connected_graphs(draw, max_n=6):
    """Random connected simple graph: a random tree plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in edges]
    extra = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=len(candidates))
                 if candidates else st.just([]))
    edges.update(extra)
    return build_graph(n, sorted(edges))


@st.composite
def shuffled_ports(draw, max_n=6):
    """A ``connected_graphs`` draw with each node's port labels permuted."""
    topo = draw(connected_graphs(max_n))
    ports = []
    for table in topo.ports:
        perm = draw(st.permutations(range(1, len(table) + 1)))
        ports.append({e: perm[p - 1] for e, p in table.items()})
    return build_graph(topo.n, [sorted(e) for e in topo.edges], ports)
