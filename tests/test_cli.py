"""Golden runs of the command-line harness: gen -> run -> verify on a seeded
instance, with the exit codes for success (0), a failed verification (1)
and bad input (2)."""

import contextlib
import io
import json
import os
import pathlib
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert report["failure"] == "coloring misses 24 of 25 graph vertices: [1, 2, 3, 4, 5]"


def test_verify_rejects_ids_that_are_not_graph_vertices(tmp_path, capsys):
    # one edge of weight 2 at ell = 1: the power graph subdivides it with a
    # vertex of id 2, which a colouring must not be able to reach
    graph = tmp_path / "edge.txt"
    graph.write_text("0 1 2\n")
    verify = ["verify", "--graph", str(graph), "--ell", "1", "--bound", "1", "--coloring"]
    code, out, _ = _main(capsys, verify + [_write_coloring(tmp_path / "ok.json", {0: 1, 1: 1})])
    assert code == 0 and json.loads(out)["ok"]
    stray = _write_coloring(tmp_path / "stray.json", {0: 1, 1: 1, 2: 1})
    code, out, _ = _main(capsys, verify + [stray])
    assert code == 1
    report = json.loads(out)
    assert not report["ok"] and "measured" not in report
    assert report["failure"] == "coloring names 1 ids that are not graph vertices: [2]"

    path = tmp_path / "path.txt"
    path.write_text("0 1 1\n1 2 1\n")
    far = _write_coloring(tmp_path / "far.json", {0: 1, 1: 2, 2: 1, 7: 2, -4: 2})
    code, out, _ = _main(capsys, ["verify", "--graph", str(path), "--ell", "1", "--coloring", far])
    assert code == 1
    assert json.loads(out)["failure"] == "coloring names 2 ids that are not graph vertices: [-4, 7]"


def test_verify_rejects_a_negative_bound_on_an_empty_graph(tmp_path, capsys):
    graph = tmp_path / "empty.txt"
    graph.write_text("")
    coloring = _write_coloring(tmp_path / "empty.json", {})
    verify = ["verify", "--graph", str(graph), "--ell", "1", "--coloring", coloring]
    code, out, _ = _main(capsys, verify + ["--bound", "0"])
    assert code == 0 and json.loads(out)["ok"]
    code, out, err = _main(capsys, verify + ["--bound", "-1"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "invalid-input"


def test_verify_rejects_a_negative_bound_as_input_not_as_a_failed_check(tmp_path, capsys):
    graph = tmp_path / "path.txt"
    graph.write_text("0 1 1\n1 2 1\n")
    coloring = _write_coloring(tmp_path / "split.json", {0: 1, 1: 2, 2: 1})
    verify = ["verify", "--graph", str(graph), "--ell", "1", "--coloring", coloring]
    code, out, _ = _main(capsys, verify + ["--bound", "0"])
    assert code == 0 and json.loads(out)["measured"]["maxWeakDiameterHops"] == 0
    for bound in ("-1", "-1/2"):
        code, out, err = _main(capsys, verify + ["--bound=" + bound])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "invalid-input" and "nonnegative" in error["message"]


def test_verify_reads_a_negative_rational_bound_after_a_space(tmp_path, capsys):
    # argparse alone takes "-1/2" for an option and exits with its usage text
    graph = tmp_path / "path.txt"
    graph.write_text("0 1 1\n1 2 1\n")
    coloring = _write_coloring(tmp_path / "split.json", {0: 1, 1: 2, 2: 1})
    verify = ["verify", "--graph", str(graph), "--ell", "1", "--coloring", coloring]
    code, out, err = _main(capsys, verify + ["--bound", "-1/2"])
    assert code == 2 and out == ""
    assert _main(capsys, verify + ["--bound=-1/2"])[2] == err
    assert json.loads(err)["error"] == {"code": "invalid-input", "message": "bound must be nonnegative, got -1/2"}


def test_run_reads_a_negative_rational_ell_after_a_space(tmp_path, capsys):
    graph = tmp_path / "path.txt"
    graph.write_text("0 1 1\n1 2 1\n")
    run = ["run", "tw", "--graph", str(graph)]
    code, out, err = _main(capsys, run + ["--ell", "-1/2"])
    assert code == 2 and out == ""
    assert _main(capsys, run + ["--ell=-1/2"])[2] == err
    assert json.loads(err)["error"]["code"] == "invalid-input"


@pytest.mark.parametrize("value", ["0", "-1/2"])
@pytest.mark.parametrize("pipeline", ["tw", "planar", "layered", "partition", "verify"])
def test_a_non_positive_scale_is_bad_input_named_by_its_flag(tmp_path, capsys, pipeline, value):
    graph = tmp_path / "path.txt"
    graph.write_text("0 1 1\n1 2 1\n")
    flag = "--r" if pipeline == "partition" else "--ell"
    if pipeline == "verify":
        coloring = _write_coloring(tmp_path / "split.json", {0: 1, 1: 2, 2: 1})
        argv = ["verify", "--coloring", coloring]
    else:
        argv = ["run", pipeline]
    code, out, err = _main(capsys, argv + ["--graph", str(graph), flag, value])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "code": "invalid-input",
        "message": "%s must be positive, got %s" % (flag, value),
    }


@pytest.mark.parametrize("value", ["0", "-1/2"])
@pytest.mark.parametrize("flag", ["--eps0", "--scales"])
def test_a_non_positive_resolution_or_sweep_scale_is_bad_input(tmp_path, capsys, flag, value):
    prefix = str(tmp_path / "grid")
    assert _main(capsys, ["gen", "grid", "--rows", "3", "--cols", "3", "--out", prefix])[0] == 0
    if flag == "--eps0":
        argv = ["run", "layered", "--ell", "1", "--layers", prefix + ".layers.json", flag, value]
    else:
        argv = ["dilation", flag, value]
    code, out, err = _main(capsys, argv + ["--graph", prefix + ".txt"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "code": "invalid-input",
        "message": "%s must be positive, got %s" % (flag, value),
    }


@pytest.mark.parametrize("value", ["3", "0", "-2"])
@pytest.mark.parametrize("pipeline", ["planar", "layered"])
def test_a_slab_width_factor_below_4_is_bad_input_before_any_pipeline_work(
    tmp_path, capsys, monkeypatch, pipeline, value
):
    import wdcolor.geodesic as geodesic

    built = []
    monkeypatch.setattr(geodesic, "tripod_decomposition", lambda *args: built.append(args))
    monkeypatch.setattr(geodesic, "layering_projection", lambda *args: built.append(args))
    prefix = str(tmp_path / "grid")
    assert _main(capsys, ["gen", "grid", "--rows", "4", "--cols", "4", "--out", prefix])[0] == 0
    if pipeline == "planar":
        inputs = ["--rotation", prefix + ".rotation.json"]
    else:
        inputs = ["--layers", prefix + ".layers.json", "--eps0", "1"]
    argv = ["run", pipeline, "--graph", prefix + ".txt", "--ell", "1", "--slab-width-factor", value]
    code, out, err = _main(capsys, argv + inputs)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "code": "invalid-input",
        "message": "--slab-width-factor must be at least 4, got %s" % value,
    }
    assert built == []


@pytest.mark.parametrize("pipeline", ["planar", "layered"])
def test_a_rational_slab_width_factor_runs_and_verifies(tmp_path, capsys, monkeypatch, pipeline):
    import wdcolor.geodesic as geodesic

    factors = []
    make_slabs = geodesic.make_slabs

    def recorded(g, ell, projection, slab_width_factor):
        factors.append(slab_width_factor)
        return make_slabs(g, ell, projection, slab_width_factor)

    monkeypatch.setattr(geodesic, "make_slabs", recorded)
    prefix = str(tmp_path / "grid")
    assert _main(capsys, ["gen", "grid", "--rows", "10", "--cols", "10", "--out", prefix])[0] == 0
    if pipeline == "planar":
        inputs = ["--rotation", prefix + ".rotation.json"]
    else:
        inputs = ["--layers", prefix + ".layers.json", "--eps0", "1"]
    argv = ["run", pipeline, "--graph", prefix + ".txt", "--ell", "1", "--slab-width-factor", "9/2"]
    code, out, _ = _main(capsys, argv + inputs)
    assert code == 0
    assert factors == [Fraction(9, 2)]
    report = json.loads(out)
    assert report["ok"]
    hops = report["measured"]["maxWeakDiameterHops"]
    coloring = tmp_path / "coloring.json"
    coloring.write_text(json.dumps(report["coloring"]))
    verify = ["verify", "--graph", prefix + ".txt", "--ell", "1", "--coloring", str(coloring)]
    assert _main(capsys, verify + ["--bound", str(hops)])[0] == 0
    assert _main(capsys, verify + ["--bound", str(hops - 1)])[0] == 1


def test_a_slab_width_factor_that_is_no_rational_is_a_parse_error(tmp_path, capsys):
    prefix = str(tmp_path / "grid")
    assert _main(capsys, ["gen", "grid", "--rows", "4", "--cols", "4", "--out", prefix])[0] == 0
    argv = ["run", "planar", "--graph", prefix + ".txt", "--ell", "1",
            "--rotation", prefix + ".rotation.json", "--slab-width-factor", "abc"]
    code, out, err = _main(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "code": "parse-error",
        "message": "bad slab-width-factor value 'abc'",
    }


def test_verify_refuses_a_power_graph_above_the_limit(tmp_path, capsys):
    # one edge of weight 10**9 at ell = 1 asks for 2 * 10**9 power vertices
    graph = tmp_path / "heavy.txt"
    graph.write_text("0 1 1000000000\n")
    coloring = _write_coloring(tmp_path / "c.json", {0: 1, 1: 2})
    start = time.perf_counter()
    code, out, err = _main(capsys, ["verify", "--graph", str(graph), "--ell", "1", "--coloring", coloring])
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "precondition-failed"
    assert "has 2000000000 vertices, above the limit of 1000000" in error["message"]


def test_verify_power_graph_limit_admits_a_host_exactly_at_it(tmp_path, capsys, monkeypatch):
    import wdcolor.cli as cli

    # weight 3 at ell = 1: the two ends plus 2 * (3 - 1) inner vertices
    monkeypatch.setattr(cli, "MAX_POWER_VERTICES", 6)
    at, over = tmp_path / "at.txt", tmp_path / "over.txt"
    at.write_text("0 1 3\n")
    over.write_text("0 1 3\n2\n")
    for graph, assignment, want in ((at, {0: 1, 1: 1}, 0), (over, {0: 1, 1: 1, 2: 1}, 2)):
        coloring = _write_coloring(tmp_path / "c.json", assignment)
        code, _, err = _main(capsys, ["verify", "--graph", str(graph), "--ell", "1", "--coloring", coloring])
        assert code == want
    assert "has 7 vertices, above the limit of 6" in json.loads(err)["error"]["message"]


def test_verify_subdivides_only_above_ell_and_parses_each_weight_text_once(tmp_path, capsys, monkeypatch):
    """Counts, not timings: with no edge heavier than ell, verify builds its
    power graph over the graph itself, and the edge list parses each distinct
    weight text once."""
    import wdcolor.cli as cli
    import wdcolor.graph as graph

    texts = ["1/4", "1/2", "3/4", "1"]
    path = tmp_path / "pathw.txt"
    path.write_text("".join("%d %d %s\n" % (i, i + 1, texts[i % 4]) for i in range(199)))
    coloring = _write_coloring(tmp_path / "blocks.json", {v: 1 + v // 40 % 2 for v in range(200)})
    counts = {"subdivisions": 0, "weight parses": 0}
    parsing = []
    subdivide, as_fraction, parse = graph.subdivision_graph, graph.as_fraction, graph.parse_edge_list

    def counting_subdivide(*args):
        counts["subdivisions"] += 1
        return subdivide(*args)

    def counting_as_fraction(x):
        if parsing and isinstance(x, str):
            counts["weight parses"] += 1
        return as_fraction(x)

    def flagged_parse(text):
        parsing.append(True)
        try:
            return parse(text)
        finally:
            parsing.pop()

    monkeypatch.setattr(graph, "subdivision_graph", counting_subdivide)
    monkeypatch.setattr(graph, "as_fraction", counting_as_fraction)
    monkeypatch.setattr(cli, "parse_edge_list", flagged_parse)
    verify = ["verify", "--graph", str(path), "--coloring", coloring, "--ell"]
    code, _, _ = _main(capsys, verify + ["1"])
    assert code == 0
    assert counts["subdivisions"] == 0
    assert counts["weight parses"] <= len(texts)
    # at ell = 1/2 the 3/4- and 1-weight edges are subdivided
    counts.update({"subdivisions": 0, "weight parses": 0})
    code, _, _ = _main(capsys, verify + ["1/2"])
    assert code == 0
    assert counts["subdivisions"] == 1
    assert counts["weight parses"] <= len(texts)


def test_gen_grid_certifies_tripods_only_with_unit_weights(tmp_path, capsys):
    from wdcolor.tripods import GeodesicCertificate, GeodesicTree
    from wdcolor.graph import parse_edge_list

    weighted = str(tmp_path / "w6")
    code, out, _ = _main(capsys, [
        "gen", "grid", "--rows", "6", "--cols", "6", "--seed", "2",
        "--weight-lo", "1/4", "--weight-hi", "1", "--weight-den", "4", "--out", weighted,
    ])
    assert code == 0
    written = [weighted + ext for ext in (".txt", ".td.json", ".rotation.json", ".layers.json")]
    assert json.loads(out)["written"] == written
    assert not os.path.exists(weighted + ".tripods.json")

    unit = str(tmp_path / "u6")
    code, out, _ = _main(capsys, ["gen", "grid", "--rows", "6", "--cols", "6", "--seed", "2", "--out", unit])
    assert code == 0
    assert unit + ".tripods.json" in json.loads(out)["written"]
    data = json.loads(pathlib.Path(unit + ".tripods.json").read_text())
    tree = GeodesicTree(
        data["tree"]["root"],
        {int(v): p for v, p in data["tree"]["parent"].items()},
        {int(v): Fraction(d) for v, d in data["tree"]["dist"].items()},
    )
    # corner form: each node names the bottoms of its two columns and climbs to the root
    assert [node["corners"] for node in data["nodes"]] == [[30 + t, 31 + t] for t in range(5)]
    assert {node["top"] for node in data["nodes"]} == {0} and data["root"] == 0
    cert = GeodesicCertificate(
        tree,
        {node["id"]: tuple(node["corners"]) for node in data["nodes"]},
        {node["id"]: node["top"] for node in data["nodes"]},
        tuple(tuple(e) for e in data["edges"]),
        data["root"],
    )
    cert.verify(parse_edge_list(pathlib.Path(unit + ".txt").read_text()))


def test_every_flag_has_help_and_no_removed_setting_is_left():
    import argparse

    from wdcolor.cli import _build_parser

    top = _build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("gen", "run", "verify", "dilation"):
        actions = sub.choices[name]._actions
        assert all(action.help for action in actions), name
        flags = {flag for action in actions for flag in action.option_strings}
        assert not flags & {"--padding", "--exact-td-max"}, name


def test_main_builds_one_parser_across_gen_run_and_verify(tmp_path, capsys, monkeypatch):
    """A process builds the argument parser once, on the first call of
    `main`; later calls, whatever their command, reuse it, and each parses
    into a fresh namespace, so a repeated run writes the same report."""
    import wdcolor.cli as cli

    built = []
    build = cli._build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", counted)
    prefix = str(tmp_path / "sp")
    assert _main(capsys, ["gen", "random-series-parallel", "--n", "30", "--seed", "2", "--out", prefix])[0] == 0
    run = ["run", "tw", "--graph", prefix + ".txt", "--ell", "1"]
    code, first, _ = _main(capsys, run)
    assert code == 0
    report = json.loads(first)
    coloring = str(tmp_path / "coloring.json")
    with open(coloring, "w") as fh:
        json.dump(report["coloring"], fh)
    hops = report["measured"]["maxWeakDiameterHops"]
    verify = ["verify", "--graph", prefix + ".txt", "--ell", "1", "--coloring", coloring, "--bound"]
    assert _main(capsys, verify + [str(hops)])[0] == 0
    assert _main(capsys, verify + [str(hops - 1)])[0] == 1
    code, _, err = _main(capsys, run[:-1] + ["0"])
    assert code == 2 and json.loads(err)["error"]["code"] == "invalid-input"
    assert _main(capsys, run) == (0, first, "")
    assert built == [1]


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


def test_run_partition_verifies_its_family_once(tmp_path, capsys, monkeypatch):
    """A count, not a timing: coloring_to_partition verifies the family it
    returns, and the pipeline does not verify it again."""
    import sys

    import wdcolor.partition as partition

    original = partition.verify_partition_family
    calls = []

    def counting(g, fam):
        calls.append(fam)
        return original(g, fam)

    for name, module in list(sys.modules.items()):
        if name.startswith("wdcolor") and getattr(module, "verify_partition_family", None) is original:
            monkeypatch.setattr(module, "verify_partition_family", counting)
    g = _gen(capsys, tmp_path, "sp", ["random-series-parallel", "--n", "20", "--seed", "3"])
    code, out, _ = _main(capsys, ["run", "partition", "--graph", g + ".txt", "--r", "1"])
    assert code == 0 and json.loads(out)["ok"]
    assert len(calls) == 1


def test_dilation_two_scales(tmp_path, capsys):
    g = _gen(capsys, tmp_path, "sp", ["random-series-parallel", "--n", "20", "--seed", "3"])
    report = _run_twice(capsys, tmp_path, ["dilation", "--graph", g + ".txt", "--scales", "1,2"])
    assert [row["ell"] for row in report["rows"]] == ["1", "2"]
    assert report["scale_covariant"]


def test_dilation_refuses_empty_scales(tmp_path, capsys):
    """A given --scales is a list to parse, the empty one included: it holds
    one empty value, a parse error as in "1,,2", not the default sweep."""
    g = _gen(capsys, tmp_path, "sp", ["random-series-parallel", "--n", "20", "--seed", "3"])
    for value in ("", "1,,2"):
        code, out, err = _main(capsys, ["dilation", "--graph", g + ".txt", "--scales", value])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"code": "parse-error", "message": "bad scales value ''"}


def test_run_tw_with_a_wide_supplied_decomposition(tmp_path, capsys):
    # the 16x16 grid's column comb, each bag two columns and the row-0
    # spine to their left, has width 45: the bound recursion runs 46**2
    # levels deep and the proved bound has over 4300 digits
    from wdcolor.treedec import RootedTreeDecomposition

    g = _gen(capsys, tmp_path, "g16", ["grid", "--rows", "16", "--cols", "16"])
    column = lambda j: {16 * i + j for i in range(16)} | set(range(j + 1))
    comb = RootedTreeDecomposition(
        {t: column(t) | column(t + 1) for t in range(15)}, [(t - 1, t) for t in range(1, 15)], 0
    )
    (tmp_path / "comb.json").write_text(json.dumps(comb.to_json_dict()))
    code, out, _ = _main(
        capsys, ["run", "tw", "--graph", g + ".txt", "--ell", "1", "--td", str(tmp_path / "comb.json")]
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
    "text, message",
    [
        ("0 1 1\n1 -2 1\n", "edge list line 2: vertex ids must be nonnegative integers, got -2"),
        ("0 1 1\n\n1 1 1\n", "edge list line 3: self-loop at vertex 1"),
        ("0 1 1\n1 2 0/3\n", "edge list line 2: edge weight must be positive, got 0 on (1,2)"),
    ],
)
def test_a_rejected_edge_names_its_line_in_the_parse_error(tmp_path, capsys, text, message):
    graph = tmp_path / "bad.txt"
    graph.write_text(text)
    code, out, err = _main(capsys, ["run", "tw", "--graph", str(graph), "--ell", "1"])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "parse-error"
    assert error["message"] == "bad graph file %s: %s" % (graph, message)


def test_pipelines_and_verify_read_only_the_integer_adjacency(tmp_path, capsys, monkeypatch):
    """Counts, not timings: run tw on a weighted 2-tree, run planar on a
    weighted 12x12 grid, run layered, run partition and verify (at the
    measured hops and one below) search and read adjacencies on integers
    only, so none calls `neighbors` or `distances_from`.  The runs are
    checked to reach the code that read the Fraction adjacency: adhesion
    hierarchies, certificate checks and face tracing."""
    import wdcolor.graph as graph
    import wdcolor.treedec as treedec
    import wdcolor.tripods as tripods

    def spy(owner, name, log):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: log.append(name) or original(*a, **k))

    calls, reached = [], []
    for owner in (graph.WeightedGraph, graph.SubgraphView):
        spy(owner, "neighbors", calls)
    spy(graph.WeightedGraph, "distances_from", calls)
    spy(treedec, "adhesion_hierarchy", reached)
    spy(tripods, "_trace_faces", reached)
    spy(tripods.GeodesicCertificate, "verify", reached)

    kt = _gen(capsys, tmp_path, "kt", ["ktree", "--n", "200", "--k", "2", "--seed", "3", "--weight-lo", "1/4",
                                       "--weight-hi", "1", "--weight-den", "4"])
    grid = _gen(capsys, tmp_path, "grid", ["grid", "--rows", "12", "--cols", "12"])
    gridw = _gen(capsys, tmp_path, "gridw", ["random-weights-overlay", "--base", grid + ".txt", "--seed", "1",
                                             "--weight-lo", "1/4", "--weight-hi", "1", "--weight-den", "4"])
    code, out, _ = _main(capsys, ["run", "tw", "--graph", kt + ".txt", "--ell", "1"])
    assert code == 0
    report = json.loads(out)
    coloring = tmp_path / "kt.coloring.json"
    coloring.write_text(json.dumps(report["coloring"]))
    hops = report["measured"]["maxWeakDiameterHops"]
    verify = ["verify", "--graph", kt + ".txt", "--ell", "1", "--coloring", str(coloring), "--bound"]
    assert _main(capsys, verify + [str(hops)])[0] == 0
    assert _main(capsys, verify + [str(hops - 1)])[0] == 1
    runs = [
        ["run", "planar", "--graph", gridw + ".txt", "--ell", "1", "--rotation", grid + ".rotation.json"],
        ["run", "layered", "--graph", grid + ".txt", "--ell", "1", "--eps0", "1", "--layers", grid + ".layers.json"],
        ["run", "partition", "--graph", kt + ".txt", "--r", "1"],
    ]
    for argv in runs:
        assert _main(capsys, argv)[0] == 0, argv
    assert calls == []
    assert {"adhesion_hierarchy", "_trace_faces", "verify"} <= set(reached)


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
        {"num_colors": 2, "assignment": {"0": 1, "00": 2, "1": 2, "2": 2}},
    ],
    ids=["list", "float-colour", "bool-colour", "float-count", "bool-count", "float-key", "string-colour",
         "leading-zero-key"],
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


def test_run_tw_rejects_a_repeated_node_id(tmp_path, capsys):
    """Two nodes with one id are a parse error naming the id, not a tree
    that silently keeps the last of them."""
    graph = tmp_path / "edge.txt"
    graph.write_text("0 1 1\n")
    td = tmp_path / "td.json"
    td.write_text(json.dumps({
        "nodes": [{"id": 0, "bag": [0]}, {"id": 0, "bag": [0, 1]}],
        "edges": [],
        "root": 0,
    }))
    code, out, err = _main(
        capsys, ["run", "tw", "--graph", str(graph), "--ell", "1", "--td", str(td)]
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "parse-error"
    assert "node id 0 appears twice" in error["message"]


@pytest.mark.parametrize(
    "family, run, built",
    [
        (["path", "--n", "480"], ["tw"], 2),
        (["grid", "--rows", "30", "--cols", "30"], ["planar", "--rotation", "{}.rotation.json"], 16),
        (["grid", "--rows", "12", "--cols", "12"], ["layered", "--eps0", "1", "--layers", "{}.layers.json"], 20),
    ],
)
def test_a_run_builds_few_decompositions_through_the_constructor(tmp_path, capsys, monkeypatch, family, run, built):
    """A count: the constructor builds only the trees that come from
    outside a checked tree (an elimination order, a cut, a window's cut of
    the tripod certificate, which itself lists no bags), and each re-rooted
    tree is derived from the one it re-roots.  Building each re-rooting
    through the constructor gives 4, 26 and 30."""
    from wdcolor.treedec import RootedTreeDecomposition

    g = _gen(capsys, tmp_path, "g", family)
    init = RootedTreeDecomposition.__init__
    calls = []

    def counted(self, bags, edges, root):
        calls.append(root)
        init(self, bags, edges, root)

    monkeypatch.setattr(RootedTreeDecomposition, "__init__", counted)
    argv = ["run", run[0], "--graph", g + ".txt", "--ell", "1"] + [a.format(g) for a in run[1:]]
    code, out, _ = _main(capsys, argv)
    assert code == 0 and json.loads(out)["ok"]
    assert len(calls) == built


def _grid4_with(capsys, tmp_path, suffix, mutate):
    """The generated 4x4 grid, and its certificate file `suffix` rewritten
    by `mutate`."""
    g = _gen(capsys, tmp_path, "g4", ["grid", "--rows", "4", "--cols", "4"])
    path = tmp_path / ("g4." + suffix)
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    return g + ".txt", str(path)


def _rename_key(old, new):
    def mutate(data):
        data["rotation"][new] = data["rotation"].pop(old)
    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["rotation"].update({"0": [1.25, 4.25]}),
        lambda d: d["rotation"].update({"0": [True, 4]}),
        _rename_key("0", "+0"),
        _rename_key("0", "00"),
        lambda d: d["rotation"].update({"0": "14"}),
    ],
    ids=["float-neighbour", "bool-neighbour", "signed-key", "leading-zero-key", "string-order"],
)
def test_run_planar_rejects_a_non_integer_rotation(tmp_path, capsys, mutate):
    graph, rotation = _grid4_with(capsys, tmp_path, "rotation.json", mutate)
    code, out, err = _main(
        capsys, ["run", "planar", "--graph", graph, "--ell", "1", "--rotation", rotation]
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "parse-error"


def _planar_refusal(capsys, tmp_path, graph, rotation):
    """Run planar on `graph` with the rotation object `rotation`: it must
    exit 2 with a precondition failure, whose message is returned."""
    path = tmp_path / "rot.json"
    path.write_text(json.dumps({"rotation": rotation}))
    code, out, err = _main(capsys, ["run", "planar", "--graph", graph, "--ell", "1", "--rotation", str(path)])
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "precondition-failed"
    return error["message"]


def test_run_planar_rejects_a_rotation_naming_an_unknown_vertex(tmp_path, capsys):
    """A rotation system is checked once, for the whole graph, as a layering
    is: an entry for a vertex the graph does not have is refused, on a grid
    and on a path, whose tree branch never reads the rotation."""
    grid = _gen(capsys, tmp_path, "g12", ["grid", "--rows", "12", "--cols", "12"])
    rotation = json.loads(pathlib.Path(grid + ".rotation.json").read_text())["rotation"]
    message = _planar_refusal(capsys, tmp_path, grid + ".txt", {**rotation, "999": [5, 7]})
    assert message == "rotation names unknown vertices [999]"
    path = tmp_path / "path.txt"
    path.write_text("0 1 1\n1 2 1\n")
    message = _planar_refusal(capsys, tmp_path, str(path), {"0": [2], "1": [0], "7": [1]})
    assert message == "rotation names unknown vertices [7]"


def test_run_planar_rejects_a_wrong_order_on_a_tree(tmp_path, capsys):
    """The order at every vertex the rotation names must list that vertex's
    neighbours, in a component with no cycle too; a vertex it does not name
    is read only where a component needs the rotation."""
    path = tmp_path / "path.txt"
    path.write_text("0 1 1\n1 2 1\n")
    message = _planar_refusal(capsys, tmp_path, str(path), {"0": [2], "1": [0, 2]})
    assert message == "rotation at 0 does not list its neighbors exactly once"
    rot = tmp_path / "partial.json"
    rot.write_text(json.dumps({"rotation": {"1": [2, 0]}}))
    argv = ["run", "planar", "--graph", str(path), "--ell", "1", "--rotation", str(rot)]
    assert _main(capsys, argv)[0] == 0


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["layers"][1].__setitem__(0, 4.5),
        lambda d: d["layers"][0].__setitem__(1, True),
        lambda d: d["layers"][1].__setitem__(0, "4"),
        lambda d: d.update(layers={"0": [0]}),
    ],
    ids=["float-member", "bool-member", "string-member", "object-layers"],
)
def test_run_layered_rejects_a_non_integer_layering(tmp_path, capsys, mutate):
    graph, layers = _grid4_with(capsys, tmp_path, "layers.json", mutate)
    code, out, err = _main(
        capsys,
        ["run", "layered", "--graph", graph, "--ell", "1", "--eps0", "1", "--layers", layers],
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "parse-error"


# -- fuzzing the input files through the CLI -------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def _mutated(draw, data):
    """`data` with one of its values replaced by arbitrary JSON, or one of its
    object keys renamed.  The depth is drawn first, so the few top-level
    values are hit as often as the many leaves."""
    spots = []

    def walk(x, depth):
        if depth == len(spots):
            spots.append([])
        if isinstance(x, list):
            spots[depth].extend((x, i) for i in range(len(x)))
            for y in x:
                walk(y, depth + 1)
        elif isinstance(x, dict):
            spots[depth].extend((x, k) for k in x)
            for y in x.values():
                walk(y, depth + 1)

    data = json.loads(json.dumps(data))
    walk(data, 0)
    holder, at = draw(st.sampled_from(draw(st.sampled_from([s for s in spots if s]))))
    if isinstance(holder, dict) and draw(st.booleans()):
        holder[draw(st.text(max_size=3) | st.integers(-2, 20).map(str))] = holder.pop(at)
    else:
        holder[at] = draw(_JSON)
    return data


_LINE = st.builds(
    "{} {} {}".format,
    st.sampled_from(["0", "1", "2", "3", "-1", "x"]),
    st.sampled_from(["0", "1", "2", "3", "9"]),
    st.sampled_from(["1", "1/2", "2", "0", "-1", "1/0", "0.25", "a"]),
)

# each option: (argv after the graph, the generated file it reads, or None)
_OPTIONS = {
    "--coloring": (["verify", "--ell", "1", "--bound", "2"], None),
    "--td": (["run", "tw", "--ell", "1"], "td.json"),
    "--rotation": (["run", "planar", "--ell", "1"], "rotation.json"),
    "--layers": (["run", "layered", "--ell", "1", "--eps0", "1"], "layers.json"),
}


@pytest.fixture(scope="module")
def grid3(tmp_path_factory):
    """The generated 3x3 grid's files, and a valid colouring of it."""
    d = tmp_path_factory.mktemp("fuzz")
    prefix = str(d / "g3")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "grid", "--rows", "3", "--cols", "3", "--out", prefix]) == 0
    files = {"graph": pathlib.Path(prefix + ".txt").read_text()}
    for option, (_, suffix) in _OPTIONS.items():
        if suffix is None:
            files[option] = {"num_colors": 2, "assignment": {str(v): v % 2 + 1 for v in range(9)}}
        else:
            files[option] = json.loads(pathlib.Path(prefix + "." + suffix).read_text())
    return files


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_survives_arbitrary_input_files(grid3, data):
    """Arbitrary JSON, or a generated file with one value replaced or one key
    renamed, for each input file, and arbitrary text or random edge lines
    for the graph file, end in exit 0, 1 or 2, never in an uncaught
    exception."""
    option = data.draw(st.sampled_from(sorted(_OPTIONS)))
    head, _ = _OPTIONS[option]
    graph = data.draw(
        st.just(grid3["graph"]) | st.text(max_size=30) | st.lists(_LINE, max_size=6).map("\n".join),
        label="graph",
    )
    payload = data.draw(_JSON | _mutated(grid3[option]), label=option)
    with tempfile.TemporaryDirectory() as d:
        gpath, jpath = os.path.join(d, "g.txt"), os.path.join(d, "in.json")
        with open(gpath, "w") as fh:
            fh.write(graph)
        with open(jpath, "w") as fh:
            json.dump(payload, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(head + ["--graph", gpath, option, jpath])
    assert code in (0, 1, 2)
