"""The checks in ``anonqnet.verify`` can fail.

Each test breaks one input of a suite by monkeypatch, runs the suite and
requires exactly the checks that read that input to be false.
"""
import pytest

from anonqnet import subroutines, verify
from anonqnet.postelect import majority

def failed(checks) -> list:
    return [c.name for c in checks if not c.passed]


def small_catalog(monkeypatch):
    # the graphs stop at n = 3, since the full suite takes seconds
    original = verify._catalog_cases
    monkeypatch.setattr(verify, "_catalog_cases",
                        lambda n_min, n_max: original(n_min, min(n_max, 3)))
    return [f"{name}-{n}" for name in ("ring", "path", "complete", "star") for n in (2, 3)]


def test_oracles_catch_a_wrong_flood_split(monkeypatch):
    # a marked party floods its bit in both runs instead of r and 1 - r
    monkeypatch.setattr(subroutines, "_flood_tables",
                        lambda table: (table[:, :, 0] & table[:, :, 1],) * 2)
    small = small_catalog(monkeypatch)
    assert failed(verify.suite_oracles()) == [
        f"{g}: consistency matches enumeration" for g in small]


def test_anonymity_catches_a_party_dependent_consistency(monkeypatch):
    original = verify.run_row

    def first_party_flipped(sub, topology, inputs):
        out, cost = original(sub, topology, inputs)
        if sub.zeros is not None:
            out = (1 - out[0],) + out[1:]
        return out, cost

    monkeypatch.setattr(verify, "run_row", first_party_flipped)
    assert failed(verify.suite_anonymity()) == [
        f"{g}: flooding and consistency traces equivariant" for g in ("ring-4", "complete-3")]


GRAPHS_UP_TO_4 = [f"{name}-{n}" for name in ("ring", "path", "complete", "star") for n in range(2, 5)]


@pytest.mark.parametrize("superposed,check", [
    (False, "all classical inputs exact"),
    (True, "uniform superposition exact"),
])
def test_h1_catches_a_sign_flipped_input(monkeypatch, superposed, check):
    # negate the input state of one kind of run: the single classical inputs,
    # or the uniform superposition; the other kind still passes
    original = verify.unique_one_state

    def flipped(amplitudes):
        if (len(amplitudes) > 1) == superposed:
            amplitudes = {x: -amp for x, amp in amplitudes.items()}
        return original(amplitudes)

    monkeypatch.setattr(verify, "unique_one_state", flipped)
    assert failed(verify.suite_h1()) == [f"{g}: {check}" for g in GRAPHS_UP_TO_4]


def test_postelect_catches_a_wrong_function(monkeypatch):
    # the pipeline computes majority where the reference evaluates parity
    monkeypatch.setattr(verify, "BUILTIN_FUNCTIONS",
                        {**verify.BUILTIN_FUNCTIONS, "parity": majority})
    assert failed(verify.suite_postelect()) == [
        f"{g}: function pipeline matches direct evaluation" for g in GRAPHS_UP_TO_4]


def test_oracles_catch_a_wrong_modulus(monkeypatch):
    # each sum is taken modulo k + 1
    original_sum = verify.modular_sum_views
    monkeypatch.setattr(verify, "modular_sum_views", lambda k, n: original_sum(k + 1, n))
    small = small_catalog(monkeypatch)
    assert failed(verify.suite_oracles()) == [
        f"{g}: modular sum (k={k}) matches enumeration" for g in small for k in (2, 3, 5)]
