"""Golden report digests: the sha256 of the `run planar`, `run layered`,
`run tw` and `run partition` reports on small generated instances.  A change that claims
byte-identical reports is checked here, not only measured: any change to a
coloring, a bound, a measured diameter or the report's layout moves a
digest."""

import contextlib
import hashlib
import io
import json

import pytest

from wdcolor.cli import main


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    """Every instance, generated once: name -> path prefix."""
    tmp = tmp_path_factory.mktemp("golden")
    specs = {
        "grid12": ["grid", "--rows", "12", "--cols", "12"],
        "grid20": ["grid", "--rows", "20", "--cols", "20"],
        "grid30": ["grid", "--rows", "30", "--cols", "30"],
        "grid60": ["grid", "--rows", "60", "--cols", "60"],
        "gridw12": ["random-weights-overlay", "--base", str(tmp / "grid12.txt"), "--seed", "1",
                    "--weight-lo", "1/4", "--weight-hi", "1", "--weight-den", "4"],
        "tri200": ["random-planar-triangulation", "--n", "200", "--seed", "1"],
        "tri2000": ["random-planar-triangulation", "--n", "2000", "--seed", "1"],
        "path480": ["path", "--n", "480"],
        "kt80": ["ktree", "--n", "80", "--k", "3", "--seed", "1"],
        "ktw100": ["ktree", "--n", "100", "--k", "2", "--seed", "1",
                   "--weight-lo", "1/4", "--weight-hi", "1", "--weight-den", "4"],
        "sp80": ["random-series-parallel", "--n", "80", "--seed", "4"],
        "kt30": ["ktree", "--n", "30", "--k", "2", "--seed", "2"],
    }
    with contextlib.redirect_stdout(io.StringIO()):
        for name, args in specs.items():
            assert main(["gen"] + args + ["--out", str(tmp / name)]) == 0
    # two components: the 2-tree kt30 and, beside it, the path 480 shifted by 1000
    far = [line.split() for line in (tmp / "path480.txt").read_text().splitlines()]
    shifted = "".join("%d %d %s\n" % (int(u) + 1000, int(v) + 1000, w) for u, v, w in far)
    (tmp / "two.txt").write_text((tmp / "kt30.txt").read_text() + shifted)
    # kt80's own decomposition, and the same with one more leaf whose bag is empty
    td = json.loads((tmp / "kt80.td.json").read_text())
    (tmp / "kt80own.td.json").write_text(json.dumps(td))
    top = max(node["id"] for node in td["nodes"]) + 1
    td["nodes"].append({"id": top, "bag": []})
    td["edges"].append([td["nodes"][-2]["id"], top])
    (tmp / "kt80empty.td.json").write_text(json.dumps(td))
    return {name: str(tmp / name) for name in list(specs) + ["two", "kt80own", "kt80empty"]}


# (pipeline, graph, rotation, layers or decomposition instance) -> sha256 of the
# report bytes, as computed before the decompositions were built in one pass (the
# planar and layered digests and the first two tw ones), or before the elimination
# tree was built in its own pass and a connected input colored on its own tree
# (the other tw ones), or before the records were built by one constructor (planar
# grid30, the smallest unit grid whose windows reach the control engine's far
# branch, and partition sp80), or before the control engine's reach checks
# stopped at their targets (planar grid60 and tri2000).  An empty leaf bag
# changes nothing: kt80empty's digest is kt80own's.
GOLDEN = {
    ("layered", "grid12", "grid12"): "5562cfac4a1d41c0c4c35e751ab0e3d36bcaed0e2ca0c4bb870b6bf6f5424936",
    ("layered", "grid20", "grid20"): "ba87273c14f547969b1e442a15c3a67c55276b1b389b4d78497086b28f06fc62",
    ("planar", "grid12", "grid12"): "5323b959f1a4889dda07d532b9dc6d231c71455e75e30aa4f0f4125463a982c4",
    ("planar", "grid20", "grid20"): "53d9cf18f8ab2823c8d0238e07c62bc88f7deb9396373ecc775c9b20a6999640",
    ("planar", "grid30", "grid30"): "645e8a259fae72305a9d21ee272100a62a0f5e92b5f8213e4257678a45896a90",
    ("planar", "grid60", "grid60"): "1cfc5a2f44ef9bd1da64b5d810510c33c8138ce633ef2a50dd9227c9aaaaa1e4",
    ("planar", "gridw12", "grid12"): "2b0978c5c4ec6de69f46de5238db3f47f3bf07859fc8820c185c7de1e2d397f3",
    ("planar", "tri200", "tri200"): "e2a33f3dda7d88641518348e1806aaa2abf6ec0acd5f0d0afc70342a7712a90f",
    ("planar", "tri2000", "tri2000"): "84c859a0c989a8bacaddc801dbe35b022a78097148c2cb4ce0c8910f20b01b88",
    ("tw", "kt80", None): "76a18ee3251436f142f40a1b24e0a4cd92e70247e365796d2db4988a0af221ae",
    ("tw", "path480", None): "823bdc47073e6610bb16a18c418f1b2e2d3c248352292490a6078b6d9cfa4f81",
    ("tw", "ktw100", None): "8dc8894f44e5492a176085eec4db86b0c20bb2daf35cae5450caffbb35e96bb5",
    ("tw", "sp80", None): "49f2e11fbf55ef1ff348e52ebde58434da9ec4bc1644a5ccef6c5ad4a2193515",
    ("tw", "two", None): "b46d2c94f9d7d3a2d33a76a408d41724c4076e564c3da371446d8dd64bbb73af",
    ("tw", "kt80", "kt80own"): "76a18ee3251436f142f40a1b24e0a4cd92e70247e365796d2db4988a0af221ae",
    ("tw", "kt80", "kt80empty"): "76a18ee3251436f142f40a1b24e0a4cd92e70247e365796d2db4988a0af221ae",
    ("partition", "sp80", None): "35e57b38c0d00de80301c4254f409c991f53cc7496cb5ccdae1028b2649e056b",
}


@pytest.mark.parametrize("key", sorted(GOLDEN, key=str), ids=lambda k: "-".join(x for x in k if x))
def test_report_digest_is_pinned(instances, capsys, key):
    pipeline, graph, extra = key
    argv = ["run", pipeline, "--graph", instances[graph] + ".txt"]
    argv += ["--r", "1"] if pipeline == "partition" else ["--ell", "1"]
    if pipeline == "planar":
        argv += ["--rotation", instances[extra] + ".rotation.json"]
    elif pipeline == "layered":
        argv += ["--eps0", "1", "--layers", instances[extra] + ".layers.json"]
    elif extra:
        argv += ["--td", instances[extra] + ".td.json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[key]
