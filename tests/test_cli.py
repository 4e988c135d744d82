"""End-to-end CLI tests: JSON round-trips, exit codes, determinism, and
the bench CSV format.
"""

import json

from click.testing import CliRunner

from alghull import lattice
from alghull.cli import main

runner = CliRunner()


def _invoke(args, stdin=None):
    return runner.invoke(main, args, input=stdin, catch_exceptions=False)


def test_hull_matrix_roundtrip(tmp_path):
    payload = {"matrix": [[0, 2], [1, 0]]}  # companion of x^2 - 2
    src = tmp_path / "in.json"
    src.write_text(json.dumps(payload))
    result = _invoke(["hull", str(src)])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["dim"] == 1
    assert data["certification"] == "proven"
    assert data["witnesses"]["lambda_basis"] == [[1, 1]]
    assert data["basis"] == [[["0", "2"], ["1", "0"]]]


def test_hull_reads_stdin():
    result = _invoke(["hull", "-"], stdin=json.dumps({"matrix": [[1, 1], [0, 1]]}))
    assert result.exit_code == 0
    assert json.loads(result.output)["dim"] == 2


def test_hull_lie_algebra():
    payload = {"lie_algebra": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]}
    result = _invoke(["hull", "-"], stdin=json.dumps(payload))
    assert result.exit_code == 0
    assert json.loads(result.output)["dim"] == 3


def test_hull_group_route(tmp_path):
    group = tmp_path / "group.json"
    group.write_text(json.dumps([[2, 1]]))  # swap, 1-indexed
    payload = {"matrix": [[0, 2], [1, 0]]}
    result = _invoke(["hull", "-", "--group", str(group)],
                     stdin=json.dumps(payload))
    assert result.exit_code == 0
    assert json.loads(result.output)["dim"] == 1


def test_hull_lie_algebra_rejects_group(tmp_path):
    group = tmp_path / "group.json"
    group.write_text(json.dumps([[2, 1]]))
    payload = {"lie_algebra": [[[0, 2], [1, 0]]]}
    result = runner.invoke(main, ["hull", "-", "--group", str(group)],
                           input=json.dumps(payload))
    assert result.exit_code == 2
    assert "--group" in result.output


def test_relations_command():
    payload = {
        "poly": [-2, 0, 1],
        "targets": [[[1, [1, 0]]], [[1, [0, 1]]]],
    }
    result = _invoke(["relations", "-"], stdin=json.dumps(payload))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["basis"] == [[1, 1]]
    assert data["certification"] == "proven"
    assert data["bounds"]["M_prime"] == 3


def test_relations_heuristic_mode_reports_proven_on_both_routes(tmp_path):
    payload = {"poly": [-2, 0, 1], "targets": [[[1, [1, 0]]], [[1, [0, 1]]]]}
    group = tmp_path / "group.json"
    group.write_text(json.dumps([[2, 1]]))  # swap, 1-indexed
    for route, extra in (("lll", []), ("galois", ["--group", str(group)])):
        out = {}
        for mode in ("proven", "heuristic"):
            result = _invoke(["relations", "-", "--mode", mode] + extra,
                             stdin=json.dumps(payload))
            assert result.exit_code == 0
            data = out[mode] = json.loads(result.output)
            assert data["route"] == route
            assert data["basis"] == [[1, 1]]
            assert data["certification"] == "proven"
            assert data["verification_k"] is None
        assert out["heuristic"]["bounds"] == out["proven"]["bounds"]


def test_relations_group_is_validated_not_trusted(tmp_path):
    # x^4 - 10x^2 + 1 (Galois group V4): a caller's S4 passes the root-action
    # check and once cut the relations a_i + a_j = 0 out, leaving
    # [[1, 1, 1, 1]] "proven"; on x^5 - x - 1 a transposition of roots in
    # Frobenius orbits of lengths 2 and 3 (p = 7) fails the check
    group = tmp_path / "group.json"
    group.write_text(json.dumps([[2, 3, 4, 1], [2, 1, 3, 4]]))
    targets = [[[1, [1 if j == i else 0 for j in range(4)]]] for i in range(4)]
    result = _invoke(["relations", "-", "--group", str(group)],
                     stdin=json.dumps({"poly": [1, 0, -10, 0, 1], "targets": targets}))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert lattice.hnf(data["basis"]) == ((1, 0, 0, 1), (0, 1, 1, 0))
    assert data["certification"] == "proven"
    group.write_text(json.dumps([[2, 1, 3, 4, 5]]))
    targets = [[[1, [1 if j == i else 0 for j in range(5)]]] for i in range(5)]
    result = runner.invoke(main, ["relations", "-", "--group", str(group)],
                           input=json.dumps({"poly": [-1, -1, 0, 0, 0, 1],
                                             "targets": targets}))
    assert result.exit_code == 2
    assert "root-action" in result.output


def test_hull_rejects_a_group_order_frobenius_rules_out():
    # x^5 - 2 has Galois group of order 20; Frobenius at the working prime
    # has order 2 (LLL route) or 5 (permutation route), neither divides 1
    payload = json.dumps({"matrix": [[0, 0, 0, 0, 2], [1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                                     [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]})
    result = runner.invoke(main, ["hull", "-", "--group-order", "1"], input=payload)
    assert result.exit_code == 2
    assert "f_p" in result.output


def test_group_order_the_prime_scan_rules_out_exits_2(tmp_path):
    # x^5 - x - 1 (Galois group S5): Frobenius has order 6 at p = 7 and 5 at
    # p = 11, so no group order outside 30Z is possible; f_p = 2 at the LLL
    # route's prime p = 67 let 2 through
    poly = [-1, -1, 0, 0, 0, 1]
    targets = [[[1, [1 if j == i else 0 for j in range(5)]]] for i in range(5)]
    companion = [[0, 0, 0, 0, 1], [1, 0, 0, 0, 1], [0, 1, 0, 0, 0],
                 [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]
    group = tmp_path / "group.json"
    group.write_text(json.dumps([[2, 1, 3, 4, 5], [2, 3, 4, 5, 1]]))
    calls = [
        (["relations", "-", "--group-order", "2"], {"poly": poly, "targets": targets}),
        (["relations", "-", "--group-order", "6", "--group", str(group)],
         {"poly": poly, "targets": targets}),
        (["hull", "-", "--group-order", "2"], {"matrix": companion}),
        (["iszero", "-", "--group-order", "2"], {"poly": poly, "target": targets[0][0:1]}),
    ]
    for args, payload in calls:
        result = runner.invoke(main, args, input=json.dumps(payload))
        assert result.exit_code == 2, (args, result.output)
        assert "the lcm of the orders of Frobenius" in result.output, args


def test_iszero_command():
    payload = {"poly": [-2, 0, 1], "target": [[1, [1, 0]], [1, [0, 1]]]}
    result = _invoke(["iszero", "-"], stdin=json.dumps(payload))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["result"] is True
    payload["poly"] = [-1, -1, 1]
    result = _invoke(["iszero", "-"], stdin=json.dumps(payload))
    assert json.loads(result.output)["result"] is False


def test_iszero_rejects_a_group_order_frobenius_rules_out_for_a_zero_target():
    # x^5 - 2 at p = 19 has f_p = 2; the empty target once answered True
    payload = {"poly": [-2, 0, 0, 0, 0, 1], "target": []}
    result = runner.invoke(main, ["iszero", "-", "--group-order", "1"],
                           input=json.dumps(payload))
    assert result.exit_code == 2
    assert "f_p = 2" in result.output


def test_iszero_heuristic_mode():
    payload = {"poly": [-2, 0, 1], "target": [[1, [1, 0]], [1, [0, 1]]],
               "k": 3}
    result = _invoke(["iszero", "-", "--mode", "heuristic"],
                     stdin=json.dumps(payload))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["result"] is True and data["mode"] == "heuristic"


def test_lll_command():
    result = _invoke(["lll", "-"], stdin=json.dumps([[1, 1, 1], [-1, 0, 2], [3, 5, 6]]))
    assert result.exit_code == 0
    rows = [[int(x) for x in row] for row in json.loads(result.output)]
    assert len(rows) == 3


def test_lll_command_rejects_ragged_rows():
    result = runner.invoke(main, ["lll", "-"], input=json.dumps([[1, 0, 0], [0, 1]]))
    assert result.exit_code == 2
    assert "equal length" in result.output


def test_jordan_command():
    result = _invoke(["jordan", "-"], stdin=json.dumps({"matrix": [[1, 1], [0, 1]]}))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["semisimple"] == [["1", "0"], ["0", "1"]]
    assert data["nilpotent"] == [["0", "1"], ["0", "0"]]


def test_oracle_commands():
    payload = {"poly": [-2, 0, 0, 0, 1]}
    result = _invoke(["oracle-deg4", "-", "--trust-assertion"],
                     stdin=json.dumps(payload))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["kind"] == "span"
    assert data["gammas"] == [["0", "1", "0", "0"], ["0", "0", "0", "1"]]
    result = _invoke(["oracle-deg6", "-", "--trust-assertion"],
                     stdin=json.dumps({"poly": [-2, 0, 0, 0, 0, 0, 1]}))
    assert json.loads(result.output)["kind"] == "span"


def test_oracle_requires_assertion():
    result = runner.invoke(main, ["oracle-deg4", "-"],
                           input=json.dumps({"poly": [-2, 0, 0, 0, 1]}))
    assert result.exit_code == 2


def test_input_error_exit_code():
    result = runner.invoke(main, ["hull", "-"], input="{not json")
    assert result.exit_code == 2
    result = runner.invoke(main, ["hull", "-"], input=json.dumps({"nope": 1}))
    assert result.exit_code == 2


def test_unknown_mode_exits_2_before_any_work():
    # a nilpotent matrix, zero generators and a zero target never reach
    # the code that branches on the mode
    for command, payload in (
        ("hull", {"matrix": [[0, 1], [0, 0]], "mode": "bogus"}),
        ("hull", {"lie_algebra": [[[0, 0], [0, 0]]], "mode": "bogus"}),
        ("iszero", {"poly": [-2, 0, 1], "target": [], "mode": "bogus"}),
        ("relations", {"poly": [-2, 0, 1], "targets": [[[1, [1, 0]]]],
                       "mode": "bogus"}),
    ):
        result = _invoke([command, "-"], stdin=json.dumps(payload))
        assert result.exit_code == 2, payload
        assert "unknown mode" in result.output


def test_verbose_flag_is_gone():
    payload = json.dumps({"matrix": [[0, 2], [1, 0]]})
    for command in ("hull", "relations", "iszero"):
        result = runner.invoke(main, [command, "-", "--verbose"], input=payload)
        assert result.exit_code == 2, command
        assert "--verbose" in result.output


def test_hull_delta_flag_is_gone():
    # the relation search's size threshold is the LLL bound for delta = 3/4,
    # so hull takes no delta; lll keeps its own
    result = runner.invoke(main, ["hull", "-", "--delta", "1/2"],
                           input=json.dumps({"matrix": [[0, 2], [1, 0]]}))
    assert result.exit_code == 2
    assert "--delta" in result.output
    result = runner.invoke(main, ["lll", "-", "--delta", "1/2"],
                           input=json.dumps([[1, 0], [0, 1]]))
    assert result.exit_code == 0, result.output


def test_deterministic_output():
    payload = json.dumps({"matrix": [[0, 2], [1, 0]], "seed": 0})
    a = json.loads(_invoke(["hull", "-"], stdin=payload).output)
    b = json.loads(_invoke(["hull", "-"], stdin=payload).output)
    a.pop("timings")
    b.pop("timings")
    assert a == b


def test_out_option(tmp_path):
    dest = tmp_path / "out.json"
    result = _invoke(["hull", "-", "--out", str(dest)],
                     stdin=json.dumps({"matrix": [[0, 2], [1, 0]]}))
    assert result.exit_code == 0 and result.output == ""
    assert json.loads(dest.read_text())["dim"] == 1


def test_bench_command(tmp_path):
    entries = [
        {"label": "x^2-2", "poly": [-2, 0, 1], "group_order": 2,
         "group_kind": "frobenius", "expected_dim": 1},
        {"label": "x^4-2", "poly": [-2, 0, 0, 0, 1], "group_order": 8,
         "group_kind": "radical", "expected_dim": 2},
    ]
    src = tmp_path / "corpus.json"
    src.write_text(json.dumps(entries))
    plot = tmp_path / "plot.dat"
    result = _invoke(["bench", str(src), "--plot-data", str(plot)])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "label,route,mode,p,f_p,k,seconds,dim,ok"
    assert len(lines) == 5  # header + 2 entries x 2 routes
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[1] in ("A", "B")
        assert fields[8] == "yes"
        float(fields[6])  # seconds parse
    plot_lines = plot.read_text().strip().splitlines()
    assert plot_lines[0].startswith("#")
    assert len(plot_lines) == 5


def test_bench_isolates_bad_entries(tmp_path):
    entries = [
        {"label": "bad", "poly": [1, 2], "group_kind": "frobenius"},
        {"label": "x^2-2", "poly": [-2, 0, 1], "group_order": 2,
         "group_kind": "frobenius", "expected_dim": 1},
    ]
    src = tmp_path / "corpus.json"
    src.write_text(json.dumps(entries))
    result = _invoke(["bench", str(src)])
    assert result.exit_code == 0
    assert "error" in result.output
    assert result.output.count("x^2-2") == 2
