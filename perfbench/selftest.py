"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny sizes, untraced and traced, and requires no
failed operation and every metric BENCHMARK.json names.  Then it plants
wrong reports and requires the checks to flag each one: a flipped colour,
an off-by-one maxWeakDiameterHops, and a repeat whose bytes differ.  Last,
the benchmark must refuse to run without the wdcolor sources.  Exits 0 when
every check holds.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def flagged(op: dict, report: dict, inst: run.Instances) -> bool:
    try:
        run.check_output(op, json.dumps(report), inst)
    except checker.CheckFailed:
        return True
    return False


def flipped(report: dict, adj: checker.Adjacency, max_colors: int):
    """The report with one vertex's colour changed.  The first vertex whose
    flip changes the hops or the number of colours used is chosen; a flip
    that changes neither leaves a report that is still right."""
    assignment = report["coloring"]["assignment"]
    color = {int(v): c for v, c in assignment.items()}
    hops = checker.max_weak_hops(adj, color)
    for v in sorted(color):
        trial = dict(color)
        trial[v] = color[v] % max_colors + 1
        if (checker.max_weak_hops(adj, trial) != hops
                or len(set(trial.values())) != len(set(color.values()))):
            bad = copy.deepcopy(report)
            bad["coloring"]["assignment"][str(v)] = trial[v]
            return bad
    return None


def planted_faults(workload: str, workdir: str, problems: list) -> None:
    inst = run.Instances(workdir, workload, tiny=True)
    with open(os.path.join(workdir, "ops.json")) as fh:
        ops = json.load(fh)
    with open(os.path.join(workdir, "p0.result.json")) as fh:
        first = json.load(fh)
    first["tag"] = "p0"
    flips = 0
    for op, res in zip(ops, first["ops"]):
        with open(res["report"]) as fh:
            report = json.load(fh)
        if flagged(op, report, inst):
            problems.append("%s: a correct report was flagged" % op["name"])
        bad = copy.deepcopy(report)
        bad["measured"]["maxWeakDiameterHops"] += 1
        if not flagged(op, bad, inst):
            problems.append("%s: off-by-one maxWeakDiameterHops not flagged" % op["name"])
        if op["check"] == "coloring":
            bad = flipped(report, inst.adj(op["instance"]), op["max_colors"])
            if bad is not None:
                flips += 1
                if not flagged(op, bad, inst):
                    problems.append("%s: flipped colour not flagged" % op["name"])
    if any(op["check"] == "coloring" for op in ops) and not flips:
        problems.append("%s: no operation admits a flip that makes its report wrong" % workload)
    # a repeat whose report differs by one byte
    repeat = copy.deepcopy(first)
    repeat["tag"] = "p1"
    for i, res in enumerate(repeat["ops"]):
        path = os.path.join(workdir, "altered-%02d.json" % i)
        with open(res["report"], "rb") as src, open(path, "wb") as dst:
            dst.write(src.read() + b" ")
        res["report"] = path
    ev = run.evaluate(ops, [first, repeat], inst)
    if ev["failed"] != len(ops):
        problems.append("%s: %d of %d altered repeats flagged" % (workload, ev["failed"], len(ops)))


def check_benchmark_json(problems: list) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if {w["name"]: w["why"] for w in bench["workloads"]} != workloads.WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != tracer.per_layer_metric_names():
        problems.append("BENCHMARK.json per_layer differs from tracer.per_layer_metric_names()")


def refuses_without_sources(problems: list) -> None:
    bare = os.path.join(run.STATE, "bare-%d" % os.getpid())
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload", "tw_sparse",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("the benchmark ran without the wdcolor sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list = []
    check_benchmark_json(problems)
    e2e = {name for (name, _) in run.END_TO_END}
    layers = {name for (name, _, _) in tracer.per_layer_metric_names()}
    for workload in sorted(workloads.WORKLOADS):
        for trace in (False, True):
            keep: list = []
            rec = run.run_workload(workload, SEED, 0, trace, tiny=True, keep=keep)
            try:
                label = "%s trace=%d" % (workload, trace)
                if rec["failed"] or not rec["attempted"]:
                    problems.append("%s: %d of %d operations failed: %s" % (
                        label, rec["failed"], rec["attempted"], rec["failures"][:3]))
                if set(rec["metrics"]) != (layers if trace else e2e):
                    problems.append("%s: metrics %s" % (label, sorted(rec["metrics"])))
                if not trace:
                    planted_faults(workload, keep[0], problems)
            finally:
                shutil.rmtree(keep[0], ignore_errors=True)
            print("%-14s trace=%d  %d operations, %d failed" % (workload, trace, rec["attempted"], rec["failed"]))
    refuses_without_sources(problems)
    for p in problems:
        print("PROBLEM: " + p)
    print("selftest %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
