"""Golden runs of the command-line harness: gen -> run -> verify on a seeded
instance, with the exit codes for success (0), a failed verification (1)
and bad input (2)."""

import json

import pytest

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


def _gen(capsys, tmp_path, name, argv):
    prefix = str(tmp_path / name)
    code, _, _ = _main(capsys, ["gen"] + argv + ["--out", prefix])
    assert code == 0
    return prefix


def _run_twice(capsys, tmp_path, argv):
    """Run argv twice; both must exit 0, write the report they print, and
    write the same bytes.  Returns the parsed report."""
    reports = []
    for i in range(2):
        out_path = tmp_path / ("report%d.json" % i)
        code, out, _ = _main(capsys, argv + ["--out", str(out_path)])
        assert code == 0
        assert out_path.read_text() == out
        reports.append(out)
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["ok"]
    return report


def test_run_planar_with_rotation(tmp_path, capsys):
    g = _gen(capsys, tmp_path, "g6", ["grid", "--rows", "6", "--cols", "6"])
    report = _run_twice(
        capsys, tmp_path,
        ["run", "planar", "--graph", g + ".txt", "--ell", "1", "--rotation", g + ".rotation.json"],
    )
    assert report["pipeline"] == "planar"
    assert report["colors"] <= 4
    assert set(report["coloring"]["assignment"]) == {str(v) for v in range(36)}


def test_run_layered(tmp_path, capsys):
    g = _gen(capsys, tmp_path, "g6", ["grid", "--rows", "6", "--cols", "6"])
    report = _run_twice(
        capsys, tmp_path,
        ["run", "layered", "--graph", g + ".txt", "--ell", "1",
         "--layers", g + ".layers.json", "--eps0", "1"],
    )
    assert report["pipeline"] == "layered"
    assert report["colors"] <= 4


def test_run_partition(tmp_path, capsys):
    g = _gen(capsys, tmp_path, "sp", ["random-series-parallel", "--n", "20", "--seed", "3"])
    report = _run_twice(capsys, tmp_path, ["run", "partition", "--graph", g + ".txt", "--r", "1"])
    assert report["r"] == "1"
    covered = {v for coll in report["partition"]["collections"] for part in coll for v in part}
    assert covered == set(range(20))


def test_dilation_two_scales(tmp_path, capsys):
    g = _gen(capsys, tmp_path, "sp", ["random-series-parallel", "--n", "20", "--seed", "3"])
    report = _run_twice(capsys, tmp_path, ["dilation", "--graph", g + ".txt", "--scales", "1,2"])
    assert [row["ell"] for row in report["rows"]] == ["1", "2"]
    assert report["scale_covariant"]


def test_run_tw_with_a_wide_supplied_decomposition(tmp_path, capsys):
    # the 16x16 grid's own decomposition has width 45: the bound recursion
    # runs 46**2 levels deep and the proved bound has over 4300 digits
    g = _gen(capsys, tmp_path, "g16", ["grid", "--rows", "16", "--cols", "16"])
    code, out, _ = _main(
        capsys, ["run", "tw", "--graph", g + ".txt", "--ell", "1", "--td", g + ".td.json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["width"] == 45
    assert len(report["proved_bound"]) > 4300


def test_zero_denominator_weight_exits_2(tmp_path, capsys):
    graph = tmp_path / "zero.txt"
    graph.write_text("0 1 1\n1 2 1/0\n")
    code, out, err = _main(capsys, ["run", "tw", "--graph", str(graph), "--ell", "1"])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "parse-error" and "line 2" in error["message"]


@pytest.mark.parametrize(
    "coloring",
    [
        {"num_colors": 2, "assignment": [1, 2]},
        {"num_colors": 2, "assignment": {"0": 1, "1": 1.9, "2": 1}},
        {"num_colors": 2, "assignment": {"0": 1, "1": True, "2": 1}},
        {"num_colors": 2.7, "assignment": {"0": 1, "1": 2, "2": 1}},
        {"num_colors": True, "assignment": {"0": 1, "1": 1, "2": 1}},
        {"num_colors": 2, "assignment": {"0": 1, "1.0": 2, "2": 1}},
        {"num_colors": 2, "assignment": {"0": 1, "1": "2", "2": 1}},
    ],
    ids=["list", "float-colour", "bool-colour", "float-count", "bool-count", "float-key", "string-colour"],
)
def test_verify_rejects_non_integer_coloring_json(tmp_path, capsys, coloring):
    graph = tmp_path / "p3.txt"
    graph.write_text("0 1 1\n1 2 1\n")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(coloring))
    code, out, err = _main(
        capsys,
        ["verify", "--graph", str(graph), "--ell", "1", "--coloring", str(path), "--bound", "5"],
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "parse-error"


def test_run_tw_rejects_a_fractional_bag_member(tmp_path, capsys):
    graph = tmp_path / "p3.txt"
    graph.write_text("0 1 1\n1 2 1\n")
    td = tmp_path / "td.json"
    td.write_text(json.dumps({
        "nodes": [{"id": 0, "bag": [0, 1]}, {"id": 1, "bag": [1, 2.5]}],
        "edges": [[0, 1]],
        "root": 0,
    }))
    code, out, err = _main(
        capsys, ["run", "tw", "--graph", str(graph), "--ell", "1", "--td", str(td)]
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert "bag member must be a JSON integer" in error["message"]
