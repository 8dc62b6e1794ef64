"""Frozen seeded sampling and branch enumeration order.

A seeded run's sampled branch decides, for instance, which leader the compute
pipeline builds its spanning tree from, and so its metered cost; the JSON
branch lists are ordered.  The values below were recorded once from the
implementation and must not move when the sampler or the enumeration is
reorganized.
"""
import hashlib

import pytest

from anonqnet.election import elect, elect_with_bound
from anonqnet.ghz import ghz_share
from anonqnet.topology import catalog

RUNS = {
    "elect ring-4": lambda **kw: elect(catalog("ring", 4), **kw),
    "elect_with_bound ring-3 N=4": lambda **kw: elect_with_bound(catalog("ring", 3), 4, **kw),
    "ghz_share ring-3 k=3": lambda **kw: ghz_share(catalog("ring", 3), 3, **kw),
}

SAMPLED_INDEX = {   # seeds 0..9
    "elect ring-4": [3, 0, 3, 0, 0, 2, 3, 1, 0, 1],
    "elect_with_bound ring-3 N=4": [108, 33, 116, 41, 41, 68, 105, 44, 40, 57],
    "ghz_share ring-3 k=3": [32, 3, 39, 6, 6, 22, 29, 8, 6, 12],
}

# (branch count, sha256 of the ordered "(outcomes) probability" lines)
BRANCH_LIST = {
    "elect_with_bound ring-3 N=4":
        (192, "649a9102e17ee1357467abba716f603e380ccc36671d21c74f6c432b7bdf4c47"),
    "ghz_share ring-3 k=3":
        (43, "75cd46b8d922daec5416d1b1687e3b413419f447d6dd4986592338efc3e7eab1"),
}


def branch_rows(result) -> list:
    return [(getattr(b, "guess_outcomes", None) or b.attempt_outcomes, b.probability)
            for b in result.branches]


@pytest.mark.parametrize("name", sorted(SAMPLED_INDEX))
def test_sampled_index_is_frozen(name):
    assert [RUNS[name](seed=s).sampled_index for s in range(10)] == SAMPLED_INDEX[name]


@pytest.mark.parametrize("name", sorted(BRANCH_LIST))
def test_branch_list_is_frozen(name):
    rows = branch_rows(RUNS[name](all_branches=True))
    text = "\n".join(f"{outcomes} {format(float(p), '.17g')}" for outcomes, p in rows)
    assert (len(rows), hashlib.sha256(text.encode()).hexdigest()) == BRANCH_LIST[name]
