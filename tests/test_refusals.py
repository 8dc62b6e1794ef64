"""Argument refusals that no protocol run reaches, one case per message."""
import re

import pytest

from anonqnet.election import exactly_one_algorithm
from anonqnet.errors import SimulationError
from anonqnet.postelect import compute_function, majority
from anonqnet.qsim import SparseState, apply_coherent_subroutine, init_state, layout
from anonqnet.runtime import run_classical
from anonqnet.subroutines import all_zeros_flooding, modular_sum_views
from anonqnet.topology import catalog


def coherent_flood(parties, fiducial=0):
    state = init_state(layout(parties, [("x", 2), ("y", 2)]))
    return apply_coherent_subroutine(state, all_zeros_flooding(3), catalog("ring", 3),
                                     "x", "y", fiducial=fiducial)


REFUSALS = [
    ("engine-input-count",
     lambda: run_classical(catalog("ring", 3), all_zeros_flooding(3).program, [0, 0]),
     ValueError, "expected 3 inputs, got 2"),
    ("coherent-party-count", lambda: coherent_flood(2),
     ValueError, "topology and layout disagree on the party count"),
    ("coherent-fiducial", lambda: coherent_flood(3, fiducial=2),
     ValueError, "fiducial out of range"),
    ("state-without-support", lambda: SparseState(layout(1, [("q", 2)]), {(0,): 0j}),
     SimulationError, "state has no support left"),
    ("bound-below-party-count", lambda: exactly_one_algorithm(catalog("ring", 4), 3),
     ValueError, "known bound below the true party count"),
    ("function-input-count", lambda: compute_function(catalog("ring", 3), [0, 1], majority),
     ValueError, "expected 3 inputs"),
    ("sum-modulus", lambda: modular_sum_views(1, 3),
     ValueError, "modulus must be at least 2"),
    ("sum-party-count",
     lambda: run_classical(catalog("complete", 2), modular_sum_views(5, 4).program, [1, 1]),
     ValueError, "modular_sum[5,4] was built for 4 parties, not 2"),
    ("sum-input-range",
     lambda: run_classical(catalog("ring", 3), modular_sum_views(2, 3).program, [0, 2, 0]),
     ValueError, "input 2 outside 0..1"),
    ("flood-negative-rounds", lambda: all_zeros_flooding(-1),
     ValueError, "round bound must be nonnegative"),
]


@pytest.mark.parametrize("call,error,message", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_refusal(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
