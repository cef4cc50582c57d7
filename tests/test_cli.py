"""Golden runs of the command-line harness: gen -> run -> verify on a seeded
instance, with the exit codes for success (0), a failed verification (1)
and bad input (2)."""

import json

from wdcolor.cli import main


def _main(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _write_coloring(path, assignment):
    path.write_text(json.dumps({
        "num_colors": 2,
        "assignment": {str(v): col for v, col in assignment.items()},
    }))
    return str(path)


def test_gen_run_verify_round_trip(tmp_path, capsys):
    prefix = str(tmp_path / "sp")
    code, out, _ = _main(
        capsys, ["gen", "random-series-parallel", "--n", "30", "--seed", "5", "--out", prefix]
    )
    assert code == 0
    assert json.loads(out)["written"] == [prefix + ".txt"]

    graph = prefix + ".txt"
    reports = []
    for i in range(2):
        out_path = str(tmp_path / ("run%d.json" % i))
        code, out, _ = _main(
            capsys, ["run", "tw", "--graph", graph, "--ell", "1", "--seed", "5", "--out", out_path]
        )
        assert code == 0
        with open(out_path) as fh:
            assert fh.read() == out
        reports.append(out)
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["ok"] and report["colors"] <= 2
    hops = report["measured"]["maxWeakDiameterHops"]
    assert hops >= 1

    coloring = str(tmp_path / "coloring.json")
    with open(coloring, "w") as fh:
        json.dump(report["coloring"], fh)
    verify = ["verify", "--graph", graph, "--ell", "1", "--coloring", coloring]
    code, out, _ = _main(capsys, verify + ["--bound", str(hops)])
    assert code == 0
    measured = json.loads(out)
    assert measured["ok"] and measured["measured"]["maxWeakDiameterHops"] == hops
    code, out, _ = _main(capsys, verify + ["--bound", str(hops - 1)])
    assert code == 1
    assert not json.loads(out)["ok"]


def test_bad_graph_file_exits_2(tmp_path, capsys):
    graph = tmp_path / "bad.txt"
    graph.write_text("0 1 1\n1 2\n")
    code, out, err = _main(capsys, ["run", "tw", "--graph", str(graph), "--ell", "1"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "parse-error"


def test_verify_rejects_a_partial_coloring(tmp_path, capsys):
    prefix = str(tmp_path / "g5")
    code, _, _ = _main(capsys, ["gen", "grid", "--rows", "5", "--cols", "5", "--out", prefix])
    assert code == 0
    coloring = _write_coloring(tmp_path / "one.json", {0: 1})
    code, out, _ = _main(
        capsys,
        ["verify", "--graph", prefix + ".txt", "--ell", "1", "--coloring", coloring, "--bound", "0"],
    )
    assert code == 1
    report = json.loads(out)
    assert not report["ok"]
    assert "misses 24 of 25 graph vertices" in report["failure"]
    assert str(list(range(1, 25))) in report["failure"]
