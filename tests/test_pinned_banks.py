"""Frozen guess-bank reports of the unique-one procedure.

Every input's ``InputReport`` value and phase, and every field of its
``BankReport``s but the cost, are hashed from their reprs, so a single bank
amplitude that moves by one ulp fails the digest.  The values below were
recorded once from the implementation and must not move when the banks are
reorganized, nor when the banks of every input run together as blocks of one
state.
"""
import hashlib
import math
from itertools import product

import pytest

from anonqnet.election import ExactlyOneProcedure, unique_one_state
from anonqnet.topology import catalog

PROCEDURES = {   # (family, n, n_known)
    "ring-4": ("ring", 4, 4),
    "complete-4": ("complete", 4, 4),
    "star-5": ("star", 5, 5),
    "ring-6": ("ring", 6, 6),
    "ring-3 N=5": ("ring", 3, 5),
}

# sha256 of the ordered report lines, one per input and one per bank
DIGEST = {
    "ring-4":
        "a507e0b2b65b222e2441ccdc5d80475b3e910162c0974bc3fe34419e31078d6b",
    "complete-4":
        "a507e0b2b65b222e2441ccdc5d80475b3e910162c0974bc3fe34419e31078d6b",
    "star-5":
        "cf07716147380e31806201725d038130099d50317a0d556e5a6990a106ce4c5e",
    "ring-6":
        "8a10d3f64d280eee007dd7dbd0510de06921e34f3dc152c74646c9488b5602b9",
    "ring-3 N=5":
        "31267c68d4bf4d2b024d260c24347f6b1e383575cc805fabc45de8a299c4df03",
}


def report_lines(procedure: ExactlyOneProcedure, n: int) -> list:
    lines = []
    for x in product((0, 1), repeat=n):
        report = procedure.evaluate_many([x])[0]
        lines.append(f"{x} {report.value!r} {report.phase!r}")
        lines.extend(f"  {b.guess!r} {b.max_consistent_amp!r} {b.max_inconsistent_amp!r} "
                     f"{b.inversion_residual!r} {b.inversion_phase_error!r} {b.restored_amp!r}"
                     for b in report.banks)
    return lines


@pytest.mark.parametrize("name", sorted(PROCEDURES))
def test_bank_reports_are_frozen(name):
    family, n, n_known = PROCEDURES[name]
    procedure = ExactlyOneProcedure(catalog(family, n), n_known)
    text = "\n".join(report_lines(procedure, n))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST[name]


@pytest.mark.parametrize("name", sorted(PROCEDURES))
def test_bank_reports_are_frozen_when_every_input_runs_as_a_block(name, monkeypatch):
    family, n, n_known = PROCEDURES[name]
    procedure = ExactlyOneProcedure(catalog(family, n), n_known)
    runs = []
    run_bank = procedure._run_bank
    monkeypatch.setattr(procedure, "_run_bank", lambda xs: runs.append(xs) or run_bank(xs))
    # one coherent application to the uniform superposition fills the memo
    # for every input with one blocked run of the banks
    amp = 1 / math.sqrt(2 ** n)
    procedure.apply(unique_one_state(dict.fromkeys(product((0, 1), repeat=n), amp)),
                    "bit", "res")
    assert len(runs) == 1 and len(runs[0]) == 2 ** n
    text = "\n".join(report_lines(procedure, n))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST[name]
