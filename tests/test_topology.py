import itertools

import pytest
from hypothesis import given, settings

from anonqnet.topology import (automorphisms, build_graph, catalog, dump_graph,
                               is_automorphism, load_graph, relabel)

from conftest import catalog_cases, connected_graphs, shuffled_ports


def test_triangle():
    topo = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert topo.n == 3 and topo.m == 3
    assert all(topo.degree(v) == 2 for v in range(3))


def test_ring_catalog():
    topo = catalog("ring", 5)
    assert topo.m == 5


def test_complete_and_star():
    assert catalog("complete", 4).m == 6
    star = catalog("star", 4)
    assert star.degree(0) == 3
    assert sorted(star.degree(v) for v in range(4)) == [1, 1, 1, 3]


def test_torus():
    topo = catalog("torus2d", 9)
    assert topo.n == 9
    assert all(topo.degree(v) == 4 for v in range(9))
    with pytest.raises(ValueError):
        catalog("torus2d", 6)  # needs both sides >= 3


def test_build_errors():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1)])  # disconnected
    with pytest.raises(ValueError):
        build_graph(2, [(0, 0)])  # self-loop
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1), (1, 0)])  # duplicate
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])  # out of range
    with pytest.raises(ValueError):
        # non-bijective ports: both edges of node 1 share port 1
        e01, e12 = frozenset((0, 1)), frozenset((1, 2))
        build_graph(3, [(0, 1), (1, 2)],
                    ports=[{e01: 1}, {e01: 1, e12: 1}, {e12: 1}])


def test_default_ports_sorted_by_neighbor():
    topo = build_graph(3, [(0, 1), (0, 2)])
    assert topo.link(0, 1) == (1, 1)
    assert topo.link(0, 2) == (2, 1)


def _reference_is_automorphism(topo, perm):
    # independent re-statement of the predicate, used to cross-check search
    for e in topo.edges:
        u, v = sorted(e)
        img = frozenset((perm[u], perm[v]))
        if img not in topo.edges:
            return False
        if topo.ports[perm[u]][img] != topo.ports[u][e]:
            return False
        if topo.ports[perm[v]][img] != topo.ports[v][e]:
            return False
    return True


def test_ring_automorphisms_include_rotation():
    topo = catalog("ring", 4)
    auts = automorphisms(topo)
    assert (0, 1, 2, 3) in auts
    assert (1, 2, 3, 0) in auts
    brute = [p for p in itertools.permutations(range(4))
             if _reference_is_automorphism(topo, p)]
    assert sorted(auts) == sorted(brute)


def test_path_automorphisms():
    topo = catalog("path", 3)
    auts = automorphisms(topo)
    assert (0, 1, 2) in auts
    brute = [p for p in itertools.permutations(range(3))
             if _reference_is_automorphism(topo, p)]
    assert sorted(auts) == sorted(brute)


def test_k2_automorphisms():
    auts = automorphisms(catalog("complete", 2))
    assert sorted(auts) == [(0, 1), (1, 0)]


def test_automorphism_size_guard():
    topo = catalog("ring", 4)
    assert not is_automorphism(topo, (0, 2, 1, 3))
    with pytest.raises(ValueError):
        automorphisms(catalog("ring", 9))


def test_relabel_moves_each_value_to_the_image_party():
    # party aut[v] receives the value party v held: the ring-3 rotation
    assert relabel(["a", "b", "c"], (1, 2, 0)) == ["c", "a", "b"]


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=5))
def test_automorphism_group_property(topo):
    auts = automorphisms(topo)
    index = {a: i for i, a in enumerate(auts)}
    assert tuple(range(topo.n)) in index
    for a in auts:
        inverse = [0] * topo.n
        for v, img in enumerate(a):
            inverse[img] = v
        assert tuple(inverse) in index
        for b in auts:
            composed = tuple(a[b[v]] for v in range(topo.n))
            assert composed in index


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=6))
def test_ports_always_bijective(topo):
    for v in range(topo.n):
        assert sorted(topo.ports[v].values()) == list(range(1, topo.degree(v) + 1))


def _check_links(topo):
    for v in range(topo.n):
        for p in range(1, topo.degree(v) + 1):
            u, q = topo.link(v, p)
            edge = frozenset((u, v))
            assert topo.ports[v][edge] == p and topo.ports[u][edge] == q
            assert topo.link(u, q) == (v, p)
        for missing in (0, topo.degree(v) + 1):
            with pytest.raises(ValueError):
                topo.link(v, missing)


def test_link_is_an_involution():
    for _name, _n, topo in catalog_cases(2, 5):
        _check_links(topo)

    @settings(max_examples=40, deadline=None)
    @given(shuffled_ports(max_n=5))
    def random_ports(topo):
        _check_links(topo)

    random_ports()


def test_graph_file_round_trip():
    topo = catalog("ring", 4)
    text = dump_graph(topo)
    again = load_graph(text)
    assert again.n == topo.n and again.edges == topo.edges
    assert again.ports == topo.ports


def test_graph_file_default_ports():
    text = "n 3\ne 0 1\ne 1 2\n"
    topo = load_graph(text)
    assert topo.link(1, 1) == (0, 1)


def test_graph_file_skips_comment_lines():
    topo = load_graph("# a 3-party path\nn 3\n  # its edges\ne 0 1\ne 1 2\n")
    path = catalog("path", 3)
    assert topo.edges == path.edges and topo.ports == path.ports
    # a comment still counts as a line in error messages
    with pytest.raises(ValueError, match="^line 2: unknown record 'z'$"):
        load_graph("# header\nz 0 1\n")


def test_graph_file_errors():
    with pytest.raises(ValueError):
        load_graph("e 0 1\n")  # missing n
    with pytest.raises(ValueError):
        load_graph("n 2\nz 0 1\n")
    with pytest.raises(ValueError):
        load_graph("n 2\ne 0 1\np 0 5 1\n")  # bad edge index
    for short in ("n\n", "n 2\ne 0\n", "n 2\ne 0 1\np 0 0\n"):
        with pytest.raises(ValueError, match="line"):
            load_graph(short)
    with pytest.raises(ValueError, match="line 2"):
        load_graph("n 2\ne 0 1 1\n")  # one field too many
    for text, lineno in (("n 2\ne 0 x\n", 2), ("n 2\ne 0 1\np 0 0 1.5\n", 3), ("n two\n", 1)):
        with pytest.raises(ValueError, match=f"line {lineno}: .*integer"):
            load_graph(text)
    with pytest.raises(ValueError, match="line 4: second 'n' record"):
        load_graph("n 3\ne 0 1\ne 1 2\nn 4\n")
