"""The checks in ``anonqnet.verify`` can fail.

Each test breaks one input of a suite by monkeypatch, runs the suite and
requires exactly the checks that read that input to be false.
"""
import dataclasses
import itertools

import numpy as np
import pytest

from anonqnet import subroutines, verify
from anonqnet.postelect import majority
from anonqnet.runtime import SizedMessage
from anonqnet.subroutines import ClassicalSubroutine


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


ANONYMITY_GRAPHS = ("ring-4", "complete-3")


def test_anonymity_catches_a_party_dependent_consistency(monkeypatch):
    original = verify.run_cached

    def first_party_flipped(sub, topology, table):
        out, cost = original(sub, topology, table)
        if sub.zeros is not None:
            out = out.copy()
            out[:, 0] = 1 - out[:, 0]
        return out, cost

    monkeypatch.setattr(verify, "run_cached", first_party_flipped)
    assert failed(verify.suite_anonymity()) == [
        f"{g}: flooding and consistency traces equivariant" for g in ANONYMITY_GRAPHS]


def first_party_built(program, n, send, recv):
    """``program`` whose parties know whether they were built first in a run.

    ``send(first, outbox)`` and ``recv(inbox)`` rewrite the messages a party
    sends and receives; the engine builds party 0 first.
    """
    built = itertools.count()
    return dataclasses.replace(
        program,
        init=lambda x, deg: (next(built) % n == 0, program.init(x, deg)),
        send=lambda state, r: send(state[0], program.send(state[1], r)),
        recv=lambda state, inbox, r: (state[0], program.recv(state[1], recv(inbox), r)),
        finish=lambda state: program.finish(state[1]))


def test_anonymity_catches_a_party_dependent_flood_payload(monkeypatch):
    # party 0 sends a set bit as 2, and every party reads any nonzero symbol
    # as a set bit: outputs, costs and the message pattern are unchanged
    original = verify.all_zeros_flooding

    def first_party_sends_twos(delta):
        return ClassicalSubroutine(first_party_built(
            dataclasses.replace(original(delta).program, symbol_dim=3), delta,
            lambda first, outbox: {p: 2 * m if first else m for p, m in outbox.items()},
            lambda inbox: {q: (m != 0).astype(np.int64) for q, m in inbox.items()}))

    monkeypatch.setattr(verify, "all_zeros_flooding", first_party_sends_twos)
    assert failed(verify.suite_anonymity()) == [
        f"{g}: flooding and consistency traces equivariant" for g in ANONYMITY_GRAPHS]


def test_anonymity_catches_a_party_dependent_view_payload(monkeypatch):
    # every (port, view) entry carries whether party 0 sent it, and every
    # party drops that flag on receipt: outputs, costs and sizes are unchanged
    original = verify.modular_sum_views

    def first_party_flagged(k, n):
        def send(first, outbox):
            return {p: SizedMessage([(*entry, first) for entry in m.payload], m.symbols)
                    for p, m in outbox.items()}

        def recv(inbox):
            return {q: [entry[:2] for entry in payload] for q, payload in inbox.items()}

        return ClassicalSubroutine(first_party_built(original(k, n).program, n, send, recv),
                                   input_dims=(k,))

    monkeypatch.setattr(verify, "modular_sum_views", first_party_flagged)
    assert failed(verify.suite_anonymity()) == [
        f"{g}: ghz transport layer equivariant" for g in ANONYMITY_GRAPHS]


def test_anonymity_catches_a_party_dependent_unique_one(monkeypatch):
    # the procedure gets the input where party 0 alone holds a 1 wrong
    original = verify.exactly_one_algorithm

    def wrong_for_party_0(topology):
        procedure = original(topology)
        evaluate_many = procedure.evaluate_many
        first = (1,) + (0,) * (topology.n - 1)
        procedure.evaluate_many = lambda xs: [
            dataclasses.replace(report, value=1 - report.value) if x == first else report
            for x, report in zip(xs, evaluate_many(xs))]
        return procedure

    monkeypatch.setattr(verify, "exactly_one_algorithm", wrong_for_party_0)
    assert failed(verify.suite_anonymity()) == [
        f"{g}: unique-one outputs and costs equivariant" for g in ANONYMITY_GRAPHS]


def test_anonymity_catches_a_party_dependent_election(monkeypatch):
    # the branches that elect party 0 weigh twice what they should
    original = verify.elect

    def favouring_party_0(topology, **kwargs):
        result = original(topology, **kwargs)
        return dataclasses.replace(result, branches=[
            dataclasses.replace(b, probability=2 * b.probability) if b.leaders == (0,) else b
            for b in result.branches])

    monkeypatch.setattr(verify, "elect", favouring_party_0)
    assert failed(verify.suite_anonymity()) == [
        f"{g}: election branch distribution equivariant" for g in ANONYMITY_GRAPHS]


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
