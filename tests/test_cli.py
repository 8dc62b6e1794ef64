import hashlib
import json

import pytest

from anonqnet.cli import load_state, main
from anonqnet.election import elect
from anonqnet.qsim import fidelity
from anonqnet.topology import catalog, dump_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_elect_all_branches(capsys):
    code, out = run_cli(capsys, "elect", "--catalog", "ring", "--n", "4",
                        "--all-branches")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["branches"]) == 4
    assert payload["unique_leader_in_every_branch"] is True
    assert all(b["leader_party"] is not None for b in payload["branches"])


def test_elect_seeded_sampling(capsys):
    code1, out1 = run_cli(capsys, "elect", "--catalog", "complete", "--n", "2",
                          "--seed", "7")
    code2, out2 = run_cli(capsys, "elect", "--catalog", "complete", "--n", "2",
                          "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["sampled_index"] in (0, 1)


def test_result_json_shape(capsys):
    result = elect(catalog("ring", 3), seed=1)
    code, out = run_cli(capsys, "elect", "--catalog", "ring", "--n", "3", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert "sampled_index" in payload
    branch = payload["branches"][0]
    assert set(branch) >= {"outcomes", "probability", "leader_party", "statuses"}
    assert payload["cost"]["qubits_sent"] == result.cost.qubits_sent


def test_elect_with_graph_file_and_bound(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(dump_graph(catalog("ring", 3)), encoding="utf-8")
    code, out = run_cli(capsys, "elect", "--graph", str(path),
                        "--upper-bound", "5", "--all-branches")
    assert code == 0
    payload = json.loads(out)
    assert all(len(b["leaders"]) == 1 for b in payload["branches"])


def test_ghz_emits_state_and_cost(capsys):
    code, out = run_cli(capsys, "ghz", "--k", "2", "--catalog", "ring",
                        "--n", "3", "--all-branches")
    assert code == 0
    payload = json.loads(out)
    assert payload["cost"]["qubits_sent"] > 0
    assert len(payload["branches"]) >= 4
    state = load_state(payload["branches"][0]["state"])
    from anonqnet.ghz import cat_state
    assert fidelity(state, cat_state(2, 0, 3)) > 1 - 1e-9


def test_ghz_sampled_branch(capsys):
    code, out = run_cli(capsys, "ghz", "--k", "2", "--catalog", "ring",
                        "--n", "3", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    index = payload["sampled_index"]
    assert 0 <= index < len(payload["branches"])
    state = load_state(payload["branches"][index]["state"])
    from anonqnet.ghz import cat_state
    assert fidelity(state, cat_state(2, 0, 3)) > 1 - 1e-9


def test_compute_majority(capsys):
    code, out = run_cli(capsys, "compute", "--catalog", "ring", "--n", "5",
                        "--fn", "majority", "--inputs", "1,1,1,0,0", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1
    assert payload["values"] == [1] * 5


def test_cost_table_identity_column(capsys):
    code, out = run_cli(capsys, "cost-table", "--catalog", "ring", "--n", "3", "4")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["n"] for r in rows] == [3, 4]
    assert all(r["identity_qle_eq_2h0_plus_2h1"] for r in rows)
    assert all(r["qle_rounds_over_n"] <= 30 for r in rows)


def test_cost_table_identity_column_checks_rounds(capsys, monkeypatch):
    import anonqnet.cli
    from anonqnet.runtime import CostReport, sequential

    breakdown = anonqnet.cli.cost_breakdown

    def one_round_more(topo):
        costs = dict(breakdown(topo))
        costs["qle"] = sequential(costs["qle"], CostReport(1, 0, 0))
        return costs

    monkeypatch.setattr(anonqnet.cli, "cost_breakdown", one_round_more)
    code, out = run_cli(capsys, "cost-table", "--catalog", "ring", "--n", "3")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["identity_qle_eq_2h0_plus_2h1"] is False


def test_verify_single_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "angles")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["suites"]["angles"]["passed"] is True


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _out = run_cli(capsys, "verify", "--suite", "nonsense")
    assert code == 2


def test_verify_runs_every_suite_in_order(tmp_path, capsys, monkeypatch):
    import anonqnet.cli
    from anonqnet.verify import Check

    monkeypatch.setattr(anonqnet.cli, "SUITES", {
        "good": lambda: [Check("holds", True)],
        "bad": lambda: [Check("holds", True), Check("breaks", False, "why")],
    })
    path = tmp_path / "report.json"
    code, out = run_cli(capsys, "verify", "--out", str(path))
    assert code == 1 and out == ""
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert list(payload["suites"]) == ["good", "bad"]
    assert payload["suites"]["good"] == {
        "passed": True, "checks": [{"name": "holds", "passed": True, "detail": ""}]}
    assert payload["suites"]["bad"]["passed"] is False
    assert payload["suites"]["bad"]["checks"][1] == {
        "name": "breaks", "passed": False, "detail": "why"}
    assert payload["passed"] is False
    code, out = run_cli(capsys, "verify", "--suite", "good")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["elect", "--catalog", "nope", "--n", "3"])
    assert err.value.code == 2


def test_missing_graph_spec_is_usage_error(capsys):
    code = main(["elect"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: supply --graph FILE or --catalog NAME --n N\n"


CONFLICT = "--graph cannot be combined with --catalog or --n"


@pytest.mark.parametrize("argv,message", [
    (["elect", "--catalog", "ring"], "--catalog needs --n"),
    (["cost-table"], "cost-table needs --catalog NAME --n N [N ...] or --graph FILE"),
    (["elect", "--graph", "GRAPH", "--catalog", "ring", "--n", "5"], CONFLICT),
    (["elect", "--graph", "GRAPH", "--n", "7"], CONFLICT),
    (["ghz", "--graph", "GRAPH", "--catalog", "ring", "--k", "2"], CONFLICT),
    (["cost-table", "--graph", "GRAPH", "--catalog", "ring", "--n", "4", "5"], CONFLICT),
    (["cost-table", "--graph", "GRAPH", "--n", "4"], CONFLICT),
])
def test_incomplete_graph_spec_is_usage_error(tmp_path, capsys, argv, message):
    # GRAPH stands for a valid file: the 3-party path
    graph = tmp_path / "p3.txt"
    graph.write_text(dump_graph(catalog("path", 3)), encoding="utf-8")
    code = main([str(graph) if arg == "GRAPH" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cost_table_on_one_party_graph_is_usage_error(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("n 1\n", encoding="utf-8")
    code = main(["cost-table", "--graph", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: cost-table needs at least two parties; file has 1\n"


def test_out_file_written(tmp_path, capsys):
    path = tmp_path / "result.json"
    code, out = run_cli(capsys, "elect", "--catalog", "ring", "--n", "3",
                        "--all-branches", "--out", str(path))
    assert code == 0 and out == ""
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert len(payload["branches"]) == 3


def test_floats_have_17_significant_digits(capsys):
    _code, out = run_cli(capsys, "elect", "--catalog", "ring", "--n", "3",
                         "--all-branches")
    payload = json.loads(out)
    third = payload["branches"][0]["probability"]
    # the printed value reproduces the double exactly
    assert third == float(format(third, ".17g"))
    assert abs(third - 1 / 3) < 1e-9


def test_cost_table_csv(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, _out = run_cli(capsys, "cost-table", "--catalog", "ring",
                         "--n", "3", "--out", str(path))
    assert code == 0
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("graph,")
    assert len(lines) == 2


def test_compute_rejects_non_bit_inputs(capsys):
    code = main(["compute", "--catalog", "ring", "--n", "3", "--fn", "parity",
                 "--inputs", "2,3,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bits" in captured.err


def test_truncated_graph_record_is_usage_error(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("n 3\ne 0 1\ne 1\n", encoding="utf-8")
    code = main(["elect", "--graph", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line 3" in captured.err


def test_invariant_failure_is_json_with_exit_code_1(capsys, monkeypatch):
    import anonqnet.cli
    from anonqnet.errors import ExactnessError

    def broken(*_args, **_kwargs):
        raise ExactnessError("bank residue 1e-3")

    monkeypatch.setattr(anonqnet.cli, "elect", broken)
    code, out = run_cli(capsys, "elect", "--catalog", "ring", "--n", "3")
    assert code == 1
    assert json.loads(out) == {"error": "ExactnessError", "message": "bank residue 1e-3"}


# sha256 of the exact stdout of each command; any change to these bytes is a
# change to the CLI contract and must be made on purpose
GOLDEN_STDOUT = {
    "elect --catalog ring --n 4 --all-branches":
        "1cf202008a0bb315e1479809a05b94ee1d2fb1e6c5c37f195ac3f2a3eab03fda",
    "elect --catalog ring --n 3 --upper-bound 5 --seed 3":
        "66aad286d325b1dcc3ef2b30519da69e37a98d67ccca8670fc659fbcc054d045",
    "ghz --k 3 --catalog ring --n 3 --all-branches":
        "1ee54637c9c652611a95ce1277fce52265cd690b1d20a3f74122d09966544b36",
    "compute --catalog ring --n 5 --fn majority --inputs 1,1,1,0,0 --seed 1":
        "e418bfa58861c100f5b25c7f7adc54912dd0b57f210f8b2293b0927e607398b5",
    "cost-table --catalog ring --n 3 4 5":
        "dbedd1416a2f330bb12f7a463b9ef4b617b1db9811db496a8c8d1e8dd79b6e47",
}


@pytest.mark.parametrize("command", list(GOLDEN_STDOUT))
def test_golden_stdout(capsys, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT[command]
