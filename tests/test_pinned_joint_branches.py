"""Frozen joint branches of the cross-product results.

``elect_with_bound`` and ``ghz_share`` each end in a product of independent
measurements, one per guess of n or one per parallel cat attempt.  The values
below were recorded once from the implementation, on the calls of the
``branch_enum`` benchmark mix with default port numberings.  They hold every
field of every branch, the probabilities to 17 digits, and the sampled index
of one seed, so that any reorganization of the enumeration must keep each
branch, its order and each probability's last bit.
"""
import hashlib

import pytest

from anonqnet.election import elect_with_bound
from anonqnet.ghz import ghz_share
from anonqnet.topology import catalog

SEED = 7

RUNS = {
    "elect_with_bound ring-4 N=6": lambda: elect_with_bound(catalog("ring", 4), 6, seed=SEED),
    "elect_with_bound complete-3 N=6":
        lambda: elect_with_bound(catalog("complete", 3), 6, seed=SEED),
    "elect_with_bound path-3 N=5": lambda: elect_with_bound(catalog("path", 3), 5, seed=SEED),
    "ghz_share ring-3 k=4": lambda: ghz_share(catalog("ring", 3), 4, seed=SEED),
    "ghz_share ring-3 k=5": lambda: ghz_share(catalog("ring", 3), 5, seed=SEED),
}

# (branch count, sampled index, sha256 of one line of fields per branch)
PINNED = {
    "elect_with_bound ring-4 N=6": (
        65536, 18504, "caa7a6331b6115873ba0ccbe8be869f3c90b3b91ba24516638b4d8cd76dcb376"),
    "elect_with_bound complete-3 N=6": (
        12288, 2852, "803f3a16eca3b4439bda9eb6191ca3f06d8d3630c04474ba200d194af5e63f08"),
    "elect_with_bound path-3 N=5": (
        1536, 356, "3543978de75c61c2da12c3ec661d60ed9082f9cfe6178a948b34fb8d3dc30f1c"),
    "ghz_share ring-3 k=4": (
        499, 82, "bd08c1cd8458829bff95b9df56fe6f3c04cfa03143fcc6cca9977d77346b611d"),
    "ghz_share ring-3 k=5": (
        7221, 1523, "59b0f065a9f0e1054ff3d9df9779b8ea8dc92c3878fe1767068e44b55ddaf891"),
}


def branch_line(b) -> str:
    p = format(b.probability, ".17g")
    if hasattr(b, "guess_outcomes"):
        return f"{b.guess_outcomes} {p} {b.verified} {b.winner_guess} {b.outcomes} {b.leaders}"
    return f"{b.attempt_outcomes} {p} {b.source_attempt} {b.pair} {b.distill_outcome}"


@pytest.mark.parametrize("name", sorted(PINNED))
def test_joint_branches_are_frozen(name):
    result = RUNS[name]()
    text = "\n".join(map(branch_line, result.branches))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(result.branches), result.sampled_index, digest) == PINNED[name]
    # JSON output and exact comparisons rely on plain Python floats
    assert all(type(b.probability) is float for b in result.branches)
