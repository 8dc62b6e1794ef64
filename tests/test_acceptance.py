"""Acceptance criteria, one test per criterion, at their stated tolerances.

The checks themselves live in ``anonqnet.verify``, one suite per criterion.
Each test runs its suite, requires every check to pass, and requires the
suite's check names to equal the cases frozen here, so a suite cannot drop a
case without a failing test.  Each test prints a single PASS/FAIL line so the
module doubles as a report.
"""
from anonqnet.verify import SUITES

FAMILIES = ("ring", "path", "complete", "star")


def cases(n_min, n_max, families=FAMILIES):
    return [f"{name}-{n}" for name in families for n in range(n_min, n_max + 1)]


def report(criterion: str, suite: str, expected_names: list) -> list:
    checks = SUITES[suite]()
    failures = [(c.name, c.detail) for c in checks if not c.passed]
    names = [c.name for c in checks]
    if names != expected_names:
        failures.append(("check names differ from the frozen cases",
                         sorted(set(names) ^ set(expected_names))))
    print(f"ACCEPTANCE {criterion}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"{criterion}: {failures[:10]}"
    return checks


def test_criterion_01_exact_leader_election():
    report("01 exact leader election", "qle",
           [f"{g}: one leader per branch" for g in cases(2, 5)])


def test_criterion_02_phase_angle_exactness():
    report("02 phase-angle exactness", "angles", [
        "bad amplitude < 1e-10 on 20 grid points",
        "theta(0.25) anchor", "theta(0.5) anchor", "theta(1.0) anchor",
        "closed form solves the phase quadratic",
    ])


def test_criterion_03_unique_one_exactness():
    report("03 unique-one exactness", "h1", [
        f"{g}: {what}" for g in cases(2, 4)
        for what in ("all classical inputs exact",
                     "guess-bank ancillas restored within 1e-10",
                     "uniform superposition exact")])


def test_criterion_04_cost_identities():
    report("04 cost identities", "costs", [
        f"{g}: {what}" for g in cases(2, 5)
        for what in ("flooding sends exactly 2mn",
                     "consistency costs exactly 2x flooding",
                     "election = 2(flood) + 2(unique-one)")])


def test_criterion_05_scaling_table():
    checks = report("05 scaling table", "scaling", [
        "rings 3..6: rounds/n bounded", "rings 3..6: qubits/(m n^2) bounded",
        "mod-2 sum, rings and complete 3..6: qubits <= 8 m n^4",
        "ghz k=2, rings and complete 3..6: rounds = 2(n-1)"])
    for check in checks:
        print(f"  {check.name}: {check.detail}")


def test_criterion_06_upper_bound_variant():
    report("06 upper-bound variant", "upper-bound", [
        f"{name}-{n}, bound {bound}: one leader per branch"
        for name, n in (("complete", 2), ("ring", 3), ("path", 3))
        for bound in range(n, 5)])


def test_criterion_07_fourier_on_cat_states():
    report("07 Fourier-on-cat lemma", "lemma-a", [
        f"k={k}, t=0..{k - 1}, n=1..4: Fourier^n on cat(k,t) is uniform over t+sum=0 (mod k)"
        for k in (2, 3, 5)])


def test_criterion_08_ghz_sharing():
    report("08 ghz sharing exactness", "ghz", [
        f"ghz k={k} {g}: {what}" for k in (2, 3) for g in cases(2, 4, ("ring", "complete"))
        for what in ("every branch is the target cat", "constant gate inventory")])


def test_criterion_09_anonymity_equivariance():
    report("09 anonymity equivariance", "anonymity", [
        f"{g}: {what}" for g in ("ring-4", "complete-3")
        for what in ("nontrivial automorphism group",
                     "flooding and consistency traces equivariant",
                     "unique-one outputs and costs equivariant",
                     "election branch distribution equivariant",
                     "ghz transport layer equivariant")])


def test_criterion_10_post_election_pipeline():
    report("10 post-election pipeline", "postelect",
           [f"{g}: recognized graph matches ground truth" for g in cases(2, 6)]
           + [f"{g}: function pipeline matches direct evaluation" for g in cases(2, 4)]
           + [f"path-{n}: gather/scatter prepares the cat state" for n in (2, 3, 4)])


def test_criterion_11_subroutine_oracle_equivalence():
    report("11 subroutine oracle equivalence", "oracles",
           [f"{g}: {what}" for g in cases(2, 5)
            for what in ("all-zeros matches enumeration",
                         "consistency matches enumeration")]
           + [f"{g}: modular sum (k={k}) matches enumeration"
              for g in cases(2, 5) for k in (2, 3, 5)])
