"""The wdcolor benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

A run generates the workload's instances from the seed, then runs passes
over its CLI operations, each pass in a fresh single-threaded Python
process (perfbench/worker.py), until S seconds have gone and at least two
passes are done.  Every report is checked against independent measurements
(perfbench/checker.py) and against the same operation's report in every
other pass, byte for byte.  With --trace 1 the run makes one untraced and
one traced pass, the traced worker then repeating every operation in the
same process, and prints the per-layer metrics instead.

Times are reported in reference seconds.  The machine's speed drifts by
tens of percent within seconds, so the worker times a fixed speed probe
before and after set-up and between operations, and each measured time is
scaled by REFERENCE_PROBE_S over the mean of the probes around it.  The run
record keeps the raw times too.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The whole run record, stamped with git rev,
Python version, nproc and seed and holding a digest of every report, is
appended to --results (default .perfbench/results.jsonl); --compare prints
two such files side by side.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checker  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
STATE = os.path.join(ROOT, ".perfbench")
RUN_DEADLINE_S = 170  # a run must end within 180 s; workers are stopped before that
MIN_PASSES = 2
MAX_PASSES = 20
SETUP_SAMPLES = 5
# the probe time that one reference second assumes; about the probe's median
# on the 2-core x86 VM the benchmark was tuned on
REFERENCE_PROBE_S = 0.03

END_TO_END = [
    ("wall_s", "s"),
    ("scaling_exp", "1"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("hops_total", "hops"),
]


class WorkerFailed(Exception):
    pass


def scaled(seconds: float, probes: List[float]) -> float:
    return seconds * REFERENCE_PROBE_S / statistics.mean(probes)


def run_worker(workdir: str, workload: str, seed: int, tiny: bool, mode: str, tag: str,
               deadline: float, trace: bool = False) -> dict:
    cmd = [sys.executable, WORKER, "--root", ROOT, "--workdir", workdir, "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--tag", tag]
    if trace:
        cmd.append("--trace")
    if tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("%s worker not started: the run is out of time" % tag)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed("%s worker stopped at the run's deadline" % tag)
    if proc.returncode != 0:
        raise WorkerFailed("%s worker exited %d: %s" % (tag, proc.returncode, proc.stderr[-3000:]))
    with open(os.path.join(workdir, tag + ".result.json")) as fh:
        return json.load(fh)


class Instances:
    """The generated instances as the checker sees them, parsed once."""

    def __init__(self, workdir: str, workload: str, tiny: bool):
        self.workdir = workdir
        self.specs = {s["name"]: s for s in workloads.instances(workload, 0, tiny)}
        self._adj: Dict[str, checker.Adjacency] = {}

    def adj(self, name: str) -> checker.Adjacency:
        if name not in self._adj:
            with open(os.path.join(self.workdir, name + ".txt")) as fh:
                vertices, edges = checker.parse_edge_list(fh.read())
            self._adj[name] = checker.power_adjacency(vertices, edges, Fraction(1))
        return self._adj[name]


def build_verify_inputs(inst: Instances, tiny: bool) -> Dict[str, dict]:
    """verify_read's colourings, written as CLI colouring files, with their
    hops measured here."""
    expected = {}
    for (name, kind, param) in workloads.verify_colorings(tiny):
        adj = inst.adj(name)
        if kind == "block_grid":
            spec = inst.specs[name]
            color = checker.block_grid_coloring(spec["rows"], spec["cols"], param)
        elif kind == "block_path":
            color = checker.block_path_coloring(adj, param)
        else:
            color = checker.annulus_coloring(adj, min(adj), param)
        path = os.path.join(inst.workdir, name + ".coloring.json")
        with open(path, "w") as fh:
            fh.write(checker.coloring_json(color))
        expected[name] = {"coloring_file": path, "hops": checker.max_weak_hops(adj, color),
                          "colors": len(set(color.values()))}
    return expected


def check_output(op: dict, text: str | bytes, inst: Instances) -> int:
    """Check one report against the independent measurement; returns the
    measured hops or raises checker.CheckFailed."""
    try:
        report = json.loads(text)
        if op["check"] == "coloring":
            return checker.check_coloring_report(report, inst.adj(op["instance"]), op["max_colors"])
        if op["check"] == "partition":
            return checker.check_partition_report(report, inst.adj(op["instance"]), op["max_colors"])
        return checker.check_verify_report(report, op["hops"], op["colors"], op["expect_rc"] == 0)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise checker.CheckFailed("malformed report: %r" % exc)


def evaluate(ops: List[dict], passes: List[dict], inst: Instances) -> dict:
    """Check every operation of every pass.  The first pass's report of an
    operation is checked in full; every later one must match it byte for
    byte."""
    per_op = [{"name": op["name"], "digest": None, "hops": None, "seconds": [], "scaled": [], "rc": []}
              for op in ops]
    failures = []
    attempted = failed = 0
    for pi, p in enumerate(passes):
        results = p.get("ops") or [None] * len(ops)
        for op, row, res in zip(ops, per_op, results):
            attempted += 1
            reason = None
            if res is None:
                reason = p.get("error", "pass did not run")
            elif res["error"]:
                reason = "exception: " + res["error"].strip().splitlines()[-1]
            elif res["rc"] != op["expect_rc"]:
                reason = "exit code %s, expected %d: %s" % (res["rc"], op["expect_rc"], res["stderr"].strip()[-300:])
            elif res["report"] is None:
                reason = "no report written"
            else:
                with open(res["report"], "rb") as fh:
                    data = fh.read()
                digest = hashlib.sha256(data).hexdigest()
                if row["digest"] is None:
                    row["digest"] = digest
                    try:
                        row["hops"] = check_output(op, data, inst)
                    except checker.CheckFailed as exc:
                        row["check_failed"] = str(exc)
                if digest != row["digest"]:
                    reason = "report bytes differ from the first pass's"
                elif "check_failed" in row:
                    reason = row["check_failed"]
            if res is not None:
                row["seconds"].append(res["seconds"])
                row["scaled"].append(scaled(res["seconds"], res["probes"]))
                row["rc"].append(res["rc"])
            if reason is not None:
                failed += 1
                failures.append({"op": op["name"], "pass": p.get("tag", pi), "reason": reason})
    return {"per_op": per_op, "failures": failures, "attempted": attempted, "failed": failed}


def scaling_exponent(ops: List[dict], per_op: List[dict], inst: Instances) -> float:
    """Log-log slope of median operation time between the smallest and the
    largest instance of the size ladder (size = vertex count)."""
    ladder = sorted(
        (len(inst.adj(op["instance"])), statistics.median(row["scaled"]))
        for op, row in zip(ops, per_op) if op["ladder"] and row["scaled"]
    )
    (n0, t0), (n1, t1) = ladder[0], ladder[-1]
    return math.log(t1 / t0) / math.log(n1 / n0)


def stamp() -> dict:
    rev = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=30)
            if proc.returncode == 0:
                rev = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_rev": rev, "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 keep: Optional[List[str]] = None) -> dict:
    """One benchmark run; returns its full record.  `keep`, if given,
    receives the work directory, which is then left in place."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = os.path.join(STATE, "work", "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        prep = run_worker(workdir, workload, seed, tiny, "setup", "prep", deadline)
        inst = Instances(workdir, workload, tiny)
        expected = build_verify_inputs(inst, tiny) if workload == "verify_read" else {}
        ops = workloads.operations(workload, workdir, expected, tiny)
        with open(os.path.join(workdir, "ops.json"), "w") as fh:
            json.dump(ops, fh, indent=1)

        def one_pass(tag: str, traced: bool = False) -> dict:
            try:
                res = run_worker(workdir, workload, seed, tiny, "pass", tag, deadline, traced)
            except WorkerFailed as exc:
                res = {"error": str(exc)}
            res["tag"] = tag
            return res

        passes: List[dict] = []
        if trace:
            passes = [one_pass("p0"), one_pass("t0", traced=True)]
            # the traced worker repeats every operation in-process
            if "repeat_ops" in passes[1]:
                passes.append({"tag": "t0r", "ops": passes[1]["repeat_ops"]})
        else:
            # start another pass only if a typical pass still fits in `seconds`
            started, lengths = time.monotonic(), []
            while len(passes) < MIN_PASSES or (
                len(passes) < MAX_PASSES
                and time.monotonic() - started + statistics.median(lengths) <= seconds
            ):
                t0 = time.monotonic()
                passes.append(one_pass("p%d" % len(passes)))
                lengths.append(time.monotonic() - t0)
        setups = [prep] + [p for p in passes if "setup_s" in p]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(workdir, workload, seed, tiny, "setup", "s%d" % len(setups), deadline))
        ev = evaluate(ops, passes, inst)
        clean = [p for p in passes if "wall_s" in p]
        if trace:
            pair = {p["tag"]: p for p in clean}
            if "p0" not in pair or "t0" not in pair:
                raise WorkerFailed("no complete untraced and traced pass pair")
            untraced, traced = pair["p0"], pair["t0"]
            overhead = (sum(scaled(o["seconds"], o["probes"]) for o in traced["ops"])
                        / sum(scaled(o["seconds"], o["probes"]) for o in untraced["ops"]) - 1)
            pass_scale = REFERENCE_PROBE_S / statistics.mean(x for o in traced["ops"] for x in o["probes"])
            metrics = tracer.layer_metrics(traced["tracer"], traced["wall_s"], overhead, pass_scale)
            units = {name: unit for (name, unit, _) in tracer.per_layer_metric_names()}
        else:
            if not clean:
                raise WorkerFailed("no pass completed")
            metrics = {
                # a median pass: each operation's median over the passes
                "wall_s": sum(statistics.median(row["scaled"]) for row in ev["per_op"]),
                "scaling_exp": scaling_exponent(ops, ev["per_op"], inst),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in clean),
                "setup_s": statistics.median(scaled(s["setup_s"], s["setup_probes"]) for s in setups),
                "hops_total": sum(row["hops"] or 0 for row in ev["per_op"]),
            }
            units = dict(END_TO_END)
        record = {
            "workload": workload, "seed": seed, "trace": int(trace), "tiny": tiny, "seconds": seconds,
            **stamp(),
            "passes": [{"tag": p["tag"], "wall_s": p.get("wall_s"), "peak_rss_mb": p.get("peak_rss_mb"),
                        "error": p.get("error")} for p in passes],
            "setup_samples": [s["setup_s"] for s in setups],
            "setup_probes": [s["setup_probes"] for s in setups],
            "raw_wall_s": sum(statistics.median(row["seconds"]) for row in ev["per_op"] if row["seconds"]),
            "ops": ev["per_op"], "failures": ev["failures"],
            "attempted": ev["attempted"], "failed": ev["failed"],
            "failed_frac": ev["failed"] / ev["attempted"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        if keep is not None:
            keep.append(workdir)
        return record
    finally:
        if keep is None:
            shutil.rmtree(workdir, ignore_errors=True)


def print_summary(record: dict) -> None:
    print("# %s seed=%d trace=%d rev=%s python=%s nproc=%d passes=%d" % (
        record["workload"], record["seed"], record["trace"], record["git_rev"][:12],
        record["python"], record["nproc"], len(record["passes"])))
    for row in record["ops"]:
        secs = row["scaled"]
        print("#   %-28s %9.3f s  hops=%-5s sha256=%s" % (
            row["name"], statistics.median(secs) if secs else float("nan"), row["hops"], (row["digest"] or "-")[:16]))
    for f in record["failures"][:20]:
        print("#   FAILED %s (%s): %s" % (f["op"], f["pass"], f["reason"]))
    print("# failed_frac=%.4f (%d of %d operations)" % (record["failed_frac"], record["failed"], record["attempted"]))


# -- compare ---------------------------------------------------------------------


def _load_records(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(base_path: str, new_path: str) -> None:
    base, new = _load_records(base_path), _load_records(new_path)
    for workload in sorted({r["workload"] for r in base + new}):
        print("== %s  (base %s, new %s)" % (workload, base_path, new_path))
        sides = []
        for recs in (base, new):
            mine = [r for r in recs if r["workload"] == workload]
            sides.append(([r for r in mine if not r["trace"]], [r for r in mine if r["trace"]]))
        print("%-14s %34s %34s %9s" % ("metric", "base median [q1, q3]", "new median [q1, q3]", "delta"))
        for name, unit in END_TO_END + [("failed_frac", "1")]:
            cells = []
            for runs, _ in sides:
                vals = [r["failed_frac"] if name == "failed_frac" else r["metrics"][name]["value"] for r in runs]
                cells.append(_quartiles(vals) if vals else None)
            text = ["%.4g [%.4g, %.4g] %s (n=%d)" % (c[1], c[0], c[2], unit, len(runs))
                    if c else "-" for c, (runs, _) in zip(cells, sides)]
            delta = ("%+.1f%%" % (100 * (cells[1][1] / cells[0][1] - 1))
                     if all(cells) and cells[0][1] else "-")
            print("%-14s %34s %34s %9s" % (name, text[0], text[1], delta))
        traced = [t for (_, t) in sides]
        if not all(traced):
            continue
        print("%-52s %12s %12s %12s" % ("per-layer (median of traced runs)", "base", "new", "delta"))
        for (name, _, _) in tracer.per_layer_metric_names():
            vals = [statistics.median(r["metrics"][name]["value"] for r in runs) for runs in traced]
            if vals[0] == 0 and vals[1] == 0:
                continue
            print("%-52s %12.4g %12.4g %+12.4g" % (name, vals[0], vals[1], vals[1] - vals[0]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=os.path.join(STATE, "results.jsonl"),
                    help="append the run record to this JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two results files")
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "wdcolor", "__init__.py")):
        print("no wdcolor sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerFailed, OSError, ValueError) as exc:
        print("benchmark could not run: %s" % exc, file=sys.stderr)
        return 2
    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print_summary(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
