"""Desk-scale simulator of anonymous synchronous quantum networks.

Exact leader election, symmetric-predicate subroutines, cat-state sharing,
and the post-election toolbox, with exact round and bit metering throughout.
"""

from .topology import Topology, automorphisms, build_graph, catalog, load_graph_file
from .runtime import CostReport, PartyProgram, run_classical, verify_anonymity
from .subroutines import (all_zeros_flooding, consistency_from_all_zeros,
                          modular_sum_views, view)
from .qsim import (MeasurementBranch, RegisterLayout, SparseState, branches,
                   fidelity, init_state, layout)
from .amplify import exact_amplify, phase_angle
from .election import (ElectionBranch, ElectionResult, elect, elect_with_bound,
                       exactly_one_algorithm, guess_success_probability,
                       success_probability)
from .ghz import cat_state, fourier_gate, ghz_share, phase1, phase2
from .postelect import (compute_function, gather_scatter_state,
                        recognize_graph, spanning_tree)

__version__ = "0.1.0"
