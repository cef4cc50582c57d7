"""The benchmark's workloads: the instances each one generates from its seed
and the CLI operations it runs on them.

All workloads use ell = 1 and weights at most 1, so every scale-1 power
graph lives on V(g).  Weighted instances draw weights k/4 in [1/4, 1].
`tiny` shrinks every instance for the benchmark's self-test.
"""

from typing import Dict, List

WORKLOADS = {
    "tw_sparse": (
        "run tw on paths 120/240/480 and small 2-trees, 3-trees and series-parallel graphs, plus run partition: "
        "hundreds of recursion nodes, each rebuilding a power graph and a check"
    ),
    "planar_slabs": (
        "run planar on grids 10/15/20, a weighted grid and a triangulation, plus run layered: tripods, slabs, "
        "the control engine and a final exact check on large components dominate"
    ),
    "verify_read": (
        "verify on colourings the benchmark builds, at the measured bound and one below: a power graph and "
        "all-pairs hop and metric diameters per call, no engine"
    ),
}

WEIGHTED = {"weight_lo": "1/4", "weight_hi": "1", "weight_den": 4}


def _inst(name: str, family: str, seed: int, **params) -> dict:
    spec = {"name": name, "family": family, "seed": seed}
    spec.update(params)
    return spec


def instances(workload: str, seed: int, tiny: bool = False) -> List[dict]:
    """Generator specs, in generation order; `base` names an earlier one."""
    seed *= 100  # instance offsets stay below 100, so no two run seeds share an instance
    if workload == "tw_sparse":
        # several small random instances per family, so that the seed moves
        # hops_total and wall_s less than one large instance would
        copies = 1 if tiny else 3
        out = [_inst("ktree2w_%d" % i, "ktree", seed + i, n=20 if tiny else 100, k=2, **WEIGHTED)
               for i in range(copies)]
        out += [_inst("ktree3_%d" % i, "ktree", seed + 10 + i, n=15 if tiny else 80, k=3)
                for i in range(copies)]
        out += [_inst("sp_%d" % i, "random-series-parallel", seed + 20 + i, n=15 if tiny else 80)
                for i in range(copies + 2)]
        ladder = (10, 20, 40) if tiny else (120, 240, 480)
        return out + [_inst("path%d" % n, "path", seed, n=n) for n in ladder]
    if workload == "planar_slabs":
        side = 5 if tiny else 12
        out = [
            _inst("grid%dsq" % side, "grid", seed, rows=side, cols=side),
            _inst("grid%dw" % side, "random-weights-overlay", seed + 1, base="grid%dsq" % side, **WEIGHTED),
            _inst("tri", "random-planar-triangulation", seed + 2, n=20 if tiny else 200),
        ]
        ladder = (4, 5, 6) if tiny else (10, 15, 20)
        return out + [_inst("grid%d" % s, "grid", seed, rows=s, cols=s) for s in ladder]
    if workload == "verify_read":
        out = [_inst("pathw", "path", seed + 1, n=60 if tiny else 2000, **WEIGHTED)]
        out += [_inst("tri_%d" % i, "random-planar-triangulation", seed + 2 + i, n=40 if tiny else 200)
                for i in range(1 if tiny else 4)]
        ladder = (6, 8) if tiny else (20, 40)
        return out + [_inst("grid%d" % s, "grid", seed, rows=s, cols=s) for s in ladder]
    raise ValueError("unknown workload %r" % workload)


def verify_colorings(tiny: bool = False) -> List[tuple]:
    """verify_read's colourings: (instance, colouring kind, parameter)."""
    tris = [(s["name"], "annulus", 2) for s in instances("verify_read", 0, tiny) if s["name"].startswith("tri")]
    if tiny:
        return [("pathw", "block_path", 5)] + tris + [("grid6", "block_grid", 2), ("grid8", "block_grid", 2)]
    return [("pathw", "block_path", 40)] + tris + [("grid20", "block_grid", 5), ("grid40", "block_grid", 5)]


def operations(workload: str, inst_dir: str, expected: Dict[str, dict], tiny: bool = False) -> List[dict]:
    """The ordered operation list of one pass.

    Each operation has the CLI argv, the exit code it must return, the
    instance whose graph checks it, and how its report is checked.
    `expected` maps a verify_read instance to its colouring file, measured
    hops and colour count.  `ladder` marks the size-ladder operations that
    `scaling_exp` compares.
    """
    p = lambda name, ext: "%s/%s.%s" % (inst_dir, name, ext)
    ops: List[dict] = []

    def add(name, argv, instance, check, expect_rc=0, max_colors=None, ladder=False, **extra):
        op = {"name": name, "argv": argv, "instance": instance, "check": check,
              "expect_rc": expect_rc, "max_colors": max_colors, "ladder": ladder}
        op.update(extra)
        ops.append(op)

    specs = instances(workload, 0, tiny)
    if workload == "tw_sparse":
        # the last series-parallel graph is partitioned instead of coloured
        part = [s["name"] for s in specs if s["family"] == "random-series-parallel"][-1]
        for spec in specs:
            if spec["name"] != part:
                add("tw:" + spec["name"], ["run", "tw", "--graph", p(spec["name"], "txt"), "--ell", "1"],
                    spec["name"], "coloring", max_colors=2, ladder=spec["family"] == "path")
        add("partition:" + part, ["run", "partition", "--graph", p(part, "txt"), "--r", "1"],
            part, "partition", max_colors=2)
    elif workload == "planar_slabs":
        square = specs[0]["name"]
        add("layered:" + square,
            ["run", "layered", "--graph", p(square, "txt"), "--ell", "1",
             "--layers", p(square, "layers.json"), "--eps0", "1"],
            square, "coloring", max_colors=4)
        for spec in specs[1:]:
            # the weight overlay keeps its base grid's rotation system
            rot = spec.get("base", spec["name"])
            add("planar:" + spec["name"],
                ["run", "planar", "--graph", p(spec["name"], "txt"), "--ell", "1",
                 "--rotation", p(rot, "rotation.json")],
                spec["name"], "coloring", max_colors=4, ladder=spec["family"] == "grid")
    elif workload == "verify_read":
        for (name, _, _) in verify_colorings(tiny):
            exp = expected[name]
            for bound, rc in ((exp["hops"], 0), (exp["hops"] - 1, 1)):
                add("verify:%s@%d" % (name, bound),
                    ["verify", "--graph", p(name, "txt"), "--ell", "1",
                     "--coloring", exp["coloring_file"], "--bound", str(bound)],
                    name, "verify", expect_rc=rc,
                    ladder=name.startswith("grid") and rc == 0,
                    hops=exp["hops"], colors=exp["colors"])
    else:
        raise ValueError("unknown workload %r" % workload)
    return ops
