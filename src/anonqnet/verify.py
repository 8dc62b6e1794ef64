"""The acceptance checks, one suite per criterion, runnable from the command line.

Each suite re-derives its expectations from first principles (explicit
enumeration, direct linear algebra) and compares them against the simulator,
so the implementation and its oracle stay two separate routes.  These suites
are the only implementation of the checks: ``anonqnet verify`` runs them, and
the pytest acceptance module runs each one and pins its list of check names,
which spell out the cases covered.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .amplify import phase_angles
from .election import (cost_breakdown, elect, elect_with_bound,
                       exactly_one_algorithm, unique_one_state)
from .ghz import cat_state, fourier_gate, ghz_share
from .postelect import (BUILTIN_FUNCTIONS, compute_function,
                        gather_scatter_state, recognize_graph, spanning_tree,
                        unitary_from_first_column)
from .qsim import (SparseState, apply_all_parties, fidelity, gate, init_state,
                   layout)
from .runtime import parallel, run_classical, verify_anonymity
from .subroutines import (all_zeros_flooding, consistency_from_all_zeros,
                          modular_sum_views, run_cached)
from .topology import automorphisms, catalog, relabel


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _catalog_cases(n_min: int, n_max: int, names=("ring", "path", "complete", "star")):
    for name in names:
        for n in range(max(n_min, 2), n_max + 1):
            yield name, n, catalog(name, n)


# ---------------------------------------------------------------------------
# suite: angles


def amplification_model(a: float, theta: float, phi: float) -> np.ndarray:
    """Direct 2x2 model of the iterate on span{good, bad}; good is |1>.

    Everything here is plain matrix arithmetic, independent of the sparse
    engine and of the angle formula under test.
    """
    prep = np.array([
        [math.sqrt(1.0 - a), math.sqrt(a)],
        [math.sqrt(a), -math.sqrt(1.0 - a)],
    ], dtype=complex)
    flag_good = np.diag([1.0, cmath.exp(1j * theta)])
    flag_zero = np.diag([cmath.exp(1j * phi), 1.0])
    iterate = -(prep @ flag_zero @ np.linalg.inv(prep) @ flag_good)
    return iterate @ (prep @ np.array([1.0, 0.0], dtype=complex))


def suite_angles() -> list:
    checks = []
    grid = [round(0.26 + 0.04 * i, 10) for i in range(19) if 0.26 + 0.04 * i <= 0.985]
    grid.append(1.0)
    worst = 0.0
    for a in grid:
        pair = phase_angles(a)
        out = amplification_model(a, pair.theta, pair.phi)
        worst = max(worst, abs(out[0]))
    checks.append(Check(f"bad amplitude < 1e-10 on {len(grid)} grid points", worst < 1e-10,
                        f"worst |bad| = {worst:.3e}"))
    anchors = [(0.25, math.pi), (0.5, math.pi / 2), (1.0, math.pi / 3)]
    for a, expect in anchors:
        got = phase_angles(a).theta
        checks.append(Check(f"theta({a}) anchor", abs(got - expect) < 1e-12,
                            f"got {got!r}, expected {expect!r}"))
    roots_ok = True
    for a in grid:
        z = complex(1 - 1 / (2 * a), 0) + 1j * math.sqrt(max(0.0, 1 / a - 1 / (4 * a * a)))
        residue = abs(a * z * z + (1 - 2 * a) * z + a)
        roots_ok &= residue < 1e-9
    checks.append(Check("closed form solves the phase quadratic", roots_ok))
    return checks


# ---------------------------------------------------------------------------
# suite: h1 (the unique-one procedure)


def suite_h1() -> list:
    checks = []
    for name, n, topo in _catalog_cases(2, 4):
        proc = exactly_one_algorithm(topo)
        bad = []
        worst_residue = 0.0
        for x in itertools.product(range(2), repeat=n):
            out, _cost = proc.apply(unique_one_state({x: 1.0}), "bit", "res")
            ((key, amp),) = out.amps.items()
            if set(out.symbols(key, "res")) != {_weight_is_one(x)} or abs(amp - 1.0) > 1e-10:
                bad.append(x)
            for b in proc.evaluate(x).banks:
                worst_residue = max(worst_residue, b.inversion_residual,
                                    b.inversion_phase_error)
        checks.append(Check(f"{name}-{n}: all classical inputs exact", not bad,
                            f"failures: {bad}"))
        checks.append(Check(f"{name}-{n}: guess-bank ancillas restored within 1e-10",
                            worst_residue <= 1e-10,
                            f"worst ancilla residue or phase error {worst_residue:.3e}"))
        # uniform superposition input
        uniform = 2 ** (-n / 2)
        out, _cost = proc.apply(
            unique_one_state({x: uniform for x in itertools.product(range(2), repeat=n)}),
            "bit", "res")
        off = 0.0
        for key, amp in out.amps.items():
            x = out.symbols(key, "bit")
            if set(out.symbols(key, "res")) != {_weight_is_one(x)}:
                off += abs(amp) ** 2
            else:
                off += abs(amp - uniform) ** 2
        checks.append(Check(f"{name}-{n}: uniform superposition exact", off < 1e-20,
                            f"off-target mass {off:.3e}"))
    return checks


def _weight_is_one(x) -> int:
    return 1 if sum(x) == 1 else 0


# ---------------------------------------------------------------------------
# suite: qle


def suite_qle() -> list:
    checks = []
    for name, n, topo in _catalog_cases(2, 5):
        result = elect(topo, all_branches=True)
        counts = {b.leader_count for b in result.branches}
        total = result.total_probability()
        ok = counts == {1} and abs(total - 1.0) < 1e-9
        checks.append(Check(f"{name}-{n}: one leader per branch", ok,
                            f"leader counts {counts}, total probability {total!r}"))
    return checks


# ---------------------------------------------------------------------------
# suite: costs


def suite_costs() -> list:
    checks = []
    for name, n, topo in _catalog_cases(2, 5):
        costs = cost_breakdown(topo)
        h0, cs, h1, qle = costs["h0"], costs["cs"], costs["h1"], costs["qle"]
        flood_ok = (h0.qubits_sent == 2 * topo.m * n and h0.rounds == n)
        # rounds, qubits, bits and per-round detail: two floods side by side
        cs_ok = cs == parallel(h0, h0)
        qle_ok = (qle.qubits_sent == 2 * h0.qubits_sent + 2 * h1.qubits_sent
                  and qle.rounds == 2 * h0.rounds + 2 * h1.rounds)
        checks.append(Check(f"{name}-{n}: flooding sends exactly 2mn", flood_ok,
                            f"{h0.qubits_sent} qubits in {h0.rounds} rounds"))
        checks.append(Check(f"{name}-{n}: consistency costs exactly 2x flooding", cs_ok))
        checks.append(Check(f"{name}-{n}: election = 2(flood) + 2(unique-one)", qle_ok,
                            f"{qle.qubits_sent} = 2*{h0.qubits_sent} + 2*{h1.qubits_sent}"))
    return checks


# ---------------------------------------------------------------------------
# suite: scaling


#: one mod-k sum over n parties runs D = 2(n-1) rounds of 2m messages, and the
#: round-r message is an entry port plus a view of r+1 levels, folded into at
#: most n slots of 2n symbols per level (``subroutines.view_size``), so it
#: meters at most 2m (D + n^2 D (D+1)) = 4m (n-1)(1 + n^2 (2n-1)) < 8 m n^4
VIEW_SUM_CONSTANT = 8


#: the largest ring and complete graph the scaling suite runs
MAX_RING = 6


def suite_scaling() -> list:
    rows = []
    for n in range(3, MAX_RING + 1):
        topo = catalog("ring", n)
        result = elect(topo, all_branches=True)
        rows.append((n, result.cost.rounds / n,
                     result.cost.qubits_sent / (topo.m * n * n)))
    round_ratio = max(r for _n, r, _q in rows)
    qubit_ratio = max(q for _n, _r, q in rows)
    sums, ghz_rounds = [], []
    for name, n, topo in _catalog_cases(3, MAX_RING, ("ring", "complete")):
        _out, cost, _events = run_classical(topo, modular_sum_views(2, n).program, [0] * n)
        sums.append((f"{name}-{n}", cost.qubits_sent / (topo.m * n ** 4)))
        ghz_rounds.append((f"{name}-{n}", ghz_share(topo, 2, all_branches=True).cost.rounds,
                           2 * (n - 1)))
    return [
        Check(f"rings 3..{MAX_RING}: rounds/n bounded", round_ratio <= 30,
              f"ratios {[(n, round(r, 2)) for n, r, _q in rows]}"),
        Check(f"rings 3..{MAX_RING}: qubits/(m n^2) bounded", qubit_ratio <= 70,
              f"ratios {[(n, round(q, 2)) for n, _r, q in rows]}"),
        Check(f"mod-2 sum, rings and complete 3..{MAX_RING}: "
              f"qubits <= {VIEW_SUM_CONSTANT} m n^4",
              all(ratio <= VIEW_SUM_CONSTANT for _g, ratio in sums),
              f"qubits/(m n^4) {[(g, round(ratio, 2)) for g, ratio in sums]}"),
        Check(f"ghz k=2, rings and complete 3..{MAX_RING}: rounds = 2(n-1)",
              all(got == want for _g, got, want in ghz_rounds),
              f"(graph, rounds, 2(n-1)) {ghz_rounds}"),
    ]


# ---------------------------------------------------------------------------
# suite: upper-bound


def suite_upper_bound() -> list:
    checks = []
    cases = [("complete", 2), ("ring", 3), ("path", 3)]
    for name, n in cases:
        topo = catalog(name, n)
        for bound in range(n, 5):
            result = elect_with_bound(topo, max(bound, 2), all_branches=True)
            counts = {b.leader_count for b in result.branches}
            total = result.total_probability()
            ok = counts == {1} and abs(total - 1.0) < 1e-9
            checks.append(Check(f"{name}-{n}, bound {max(bound, 2)}: one leader per branch",
                                ok, f"counts {counts}, total {total!r}"))
    return checks


# ---------------------------------------------------------------------------
# suite: lemma-a (Fourier gate applied to cat states)


def suite_lemma_a() -> list:
    checks = []
    for k in (2, 3, 5):
        fourier = gate(fourier_gate(k))
        worst = 1.0
        for t in range(k):
            for n in range(1, 5):
                state = apply_all_parties(cat_state(k, t, n), "share", fourier)
                support = [y for y in itertools.product(range(k), repeat=n)
                           if (t + sum(y)) % k == 0]
                amp = 1.0 / math.sqrt(len(support))
                reference = SparseState(layout(n, [("share", k)]),
                                        {tuple(y): amp for y in support})
                worst = min(worst, fidelity(state, reference))
        checks.append(Check(f"k={k}, t=0..{k - 1}, n=1..4: Fourier^n on cat(k,t) is "
                            f"uniform over t+sum=0 (mod k)",
                            worst > 1.0 - 1e-10, f"worst fidelity {worst!r}"))
    return checks


# ---------------------------------------------------------------------------
# suite: ghz


def _gate_allowed(gate: str, k: int) -> bool:
    return gate in (f"fourier[{k}]", f"fourier_dag[{k}]", f"add_mod_{k}",
                    f"sum_mod_{k}_blackbox", "measure")


def suite_ghz() -> list:
    checks = []
    for k in (2, 3):
        for name in ("ring", "complete"):
            for n in (2, 3, 4):
                topo = catalog(name, n)
                result = ghz_share(topo, k, all_branches=True)
                reference = cat_state(k, 0, n)
                fids = [fidelity(b.state, reference) for b in result.branches]
                total = result.total_probability()
                ok = min(fids) >= 1.0 - 1e-9 and abs(total - 1.0) < 1e-9
                checks.append(Check(f"ghz k={k} {name}-{n}: every branch is the target cat",
                                    ok, f"min fidelity {min(fids)!r}, branches {len(result.branches)}"))
                alien = [g for g in result.gates_used if not _gate_allowed(g, k)]
                checks.append(Check(f"ghz k={k} {name}-{n}: constant gate inventory",
                                    not alien, f"gates {result.gates_used}"))
    return checks


# ---------------------------------------------------------------------------
# suite: anonymity


def _branch_distribution(result) -> dict:
    dist = {}
    for b in result.branches:
        dist[b.outcomes] = dist.get(b.outcomes, 0.0) + b.probability
    return dist


def _permuted_distribution(dist: dict, perm) -> dict:
    out = {}
    for outcome, p in dist.items():
        moved = tuple(relabel(outcome, perm))
        out[moved] = out.get(moved, 0.0) + p
    return out


def _dist_close(a: dict, b: dict, tol: float) -> bool:
    keys = set(a) | set(b)
    return all(abs(a.get(key, 0.0) - b.get(key, 0.0)) <= tol for key in keys)


def suite_anonymity() -> list:
    checks = []
    for name, n in (("ring", 4), ("complete", 3)):
        topo = catalog(name, n)
        auts = automorphisms(topo)
        checks.append(Check(f"{name}-{n}: nontrivial automorphism group", len(auts) > 1,
                            f"group order {len(auts)}"))
        zeros = all_zeros_flooding(n)
        cons = consistency_from_all_zeros(zeros)
        flood_ok = True
        for aut in auts:
            for x in itertools.product(range(2), repeat=n):
                flood_ok &= verify_anonymity(topo, zeros.program, list(x), aut)
            # a consistency run's messages are two flood runs, checked above;
            # its outputs and cost must move along with its inputs
            for rz in itertools.product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=n):
                out, cost = run_cached(cons, topo, rz)
                flood_ok &= (run_cached(cons, topo, tuple(relabel(rz, aut)))
                             == (tuple(relabel(out, aut)), cost))
        checks.append(Check(f"{name}-{n}: flooding and consistency traces equivariant",
                            flood_ok))
        proc = exactly_one_algorithm(topo)
        h1_ok = True
        for aut in auts:
            for x in itertools.product(range(2), repeat=n):
                at_x, at_moved = proc.evaluate(x), proc.evaluate(tuple(relabel(x, aut)))
                h1_ok &= (at_x.value == at_moved.value
                          and at_x.cost.qubits_sent == at_moved.cost.qubits_sent)
        checks.append(Check(f"{name}-{n}: unique-one outputs and costs equivariant", h1_ok))
        dist = _branch_distribution(elect(topo, all_branches=True))
        qle_ok = all(_dist_close(_permuted_distribution(dist, aut), dist, 1e-10)
                     for aut in auts)
        checks.append(Check(f"{name}-{n}: election branch distribution equivariant", qle_ok))
        # ghz communication happens only in the modular-sum subroutine; its
        # message events must map onto each other exactly under every
        # automorphism
        sub = modular_sum_views(2, n)
        ghz_ok = all(
            verify_anonymity(topo, sub.program, list(x), aut)
            for aut in auts
            for x in itertools.product(range(2), repeat=n)
        )
        checks.append(Check(f"{name}-{n}: ghz transport layer equivariant", ghz_ok))
    return checks


# ---------------------------------------------------------------------------
# suite: postelect


def suite_postelect() -> list:
    checks = []
    for name, n, topo in _catalog_cases(2, 6):
        tree, _cost = spanning_tree(topo, 0)
        adj, _rc = recognize_graph(topo, tree)
        ok = True
        for u in range(n):
            for v in range(n):
                expect = 1 if frozenset((u, v)) in topo.edges else 0
                ok &= adj[tree.ids[u] - 1][tree.ids[v] - 1] == expect
        ok &= sorted(adj.sum(axis=0)) == sorted(topo.degree(v) for v in range(n))
        checks.append(Check(f"{name}-{n}: recognized graph matches ground truth", ok))
    for name, n, topo in _catalog_cases(2, 4):
        mismatches = []
        for x in itertools.product(range(2), repeat=n):
            for fn_name, fn in BUILTIN_FUNCTIONS.items():
                run = compute_function(topo, list(x), fn, seed=5)
                if set(run.values) != {_direct_function(fn_name, topo, x)}:
                    mismatches.append((x, fn_name))
        checks.append(Check(f"{name}-{n}: function pipeline matches direct evaluation",
                            not mismatches, f"mismatches: {mismatches[:5]}"))
    for n in (2, 3, 4):
        topo = catalog("path", n)
        lay = layout(n, [("q", 2)])
        state = init_state(lay, 0)
        target = cat_state(2, 0, n, register="q")
        vec = np.zeros(2 ** n, dtype=complex)
        for key, amp in target.amps.items():
            idx = 0
            for sym in key:
                idx = idx * 2 + sym
            vec[idx] = amp
        final, _cost = gather_scatter_state(topo, 0, state, "q",
                                            unitary_from_first_column(vec))
        fid = fidelity(final, target)
        checks.append(Check(f"path-{n}: gather/scatter prepares the cat state",
                            fid > 1.0 - 1e-9, f"fidelity {fid!r}"))
    return checks


def _direct_function(fn_name: str, topo, x) -> int:
    n = topo.n
    if fn_name == "majority":
        return 1 if 2 * sum(x) > n else 0
    if fn_name == "parity":
        return sum(x) % 2
    if fn_name == "all-equal":
        return 1 if len(set(x)) == 1 else 0
    if fn_name == "labeled-cycle":
        # brute force: search for a cycle among label-1 nodes
        ones = [v for v in range(n) if x[v] == 1]
        for size in range(3, len(ones) + 1):
            for combo in itertools.permutations(ones, size):
                if combo[0] != min(combo):
                    continue
                edges = list(zip(combo, combo[1:] + combo[:1]))
                if all(frozenset(e) in topo.edges for e in edges):
                    return 1
        return 0
    raise ValueError(fn_name)


# ---------------------------------------------------------------------------
# suite: oracles


def suite_oracles() -> list:
    checks = []
    for name, n, topo in _catalog_cases(2, 5):
        zeros = all_zeros_flooding(n)
        bad = [x for x in itertools.product(range(2), repeat=n)
               if _flood_disagrees(topo, zeros, x)]
        checks.append(Check(f"{name}-{n}: all-zeros matches enumeration", not bad,
                            f"failures {bad[:3]}"))
        cons = consistency_from_all_zeros(zeros)
        bad = []
        for rz in itertools.product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=n):
            out, _c = run_cached(cons, topo, rz)
            marked = [r for r, z in rz if z == 1]
            expect = 1 if (not marked or len(set(marked)) == 1) else 0
            if any(o != expect for o in out):
                bad.append(rz)
        checks.append(Check(f"{name}-{n}: consistency matches enumeration", not bad,
                            f"failures {bad[:3]}"))
    for name, n, topo in _catalog_cases(2, 5):
        for k in (2, 3, 5):
            sub = modular_sum_views(k, n)
            bad = []
            for x in itertools.product(range(k), repeat=n):
                out, _c, _t = run_classical(topo, sub.program, list(x))
                if any(o != sum(x) % k for o in out):
                    bad.append(x)
            checks.append(Check(f"{name}-{n}: modular sum (k={k}) matches enumeration",
                                not bad, f"failures {bad[:3]}"))
    return checks


def _flood_disagrees(topo, zeros, x) -> bool:
    out, _c, _t = run_classical(topo, zeros.program, list(x))
    expect = 1 if sum(x) == 0 else 0
    return any(o != expect for o in out)


# ---------------------------------------------------------------------------


SUITES = {
    "angles": suite_angles,
    "h1": suite_h1,
    "qle": suite_qle,
    "costs": suite_costs,
    "scaling": suite_scaling,
    "upper-bound": suite_upper_bound,
    "lemma-a": suite_lemma_a,
    "ghz": suite_ghz,
    "anonymity": suite_anonymity,
    "postelect": suite_postelect,
    "oracles": suite_oracles,
}


def run_suites(names) -> dict:
    """Run the named suites ("all" for everything); returns a JSON-ready report."""
    if names == "all" or names == ["all"]:
        names = list(SUITES)
    elif isinstance(names, str):
        names = [names]
    report = {"suites": {}, "passed": True}
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
        checks = SUITES[name]()
        ok = all(c.passed for c in checks)
        report["suites"][name] = {
            "passed": ok,
            "checks": [c.to_json() for c in checks],
        }
        report["passed"] &= ok
    return report
