"""The rewritten consistency checks in ``anonqnet.verify`` can fail.

Each test breaks the consistency test by monkeypatch, runs the whole suite
and requires exactly the consistency checks to read false.
"""
from anonqnet import subroutines, verify

GRAPHS = [f"{name}-{n}" for name in ("ring", "path", "complete", "star") for n in range(2, 6)]


def failed(checks) -> list:
    return [c.name for c in checks if not c.passed]


def test_oracles_catch_a_wrong_flood_split(monkeypatch):
    # a marked party floods its bit in both runs instead of r and 1 - r
    monkeypatch.setattr(subroutines, "_flood_inputs",
                        lambda rz: (rz[0], rz[0]) if rz[1] else (0, 0))
    assert failed(verify.suite_oracles()) == [
        f"{g}: consistency matches enumeration" for g in GRAPHS]


def test_anonymity_catches_a_party_dependent_consistency(monkeypatch):
    original = verify.run_cached

    def first_party_flipped(sub, topology, inputs):
        out, cost = original(sub, topology, inputs)
        if sub.zeros is not None:
            out = (1 - out[0],) + out[1:]
        return out, cost

    monkeypatch.setattr(verify, "run_cached", first_party_flipped)
    assert failed(verify.suite_anonymity()) == [
        f"{g}: flooding and consistency traces equivariant" for g in ("ring-4", "complete-3")]
