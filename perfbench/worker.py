"""One benchmark pass in a fresh single-threaded Python process.

    python3 perfbench/worker.py --root ROOT --workdir DIR --workload W --seed N
        --mode setup|pass --tag TAG [--trace] [--tiny]

Set-up (timed as setup_s) imports wdcolor from ROOT/src and writes the
workload's instances and certificates into DIR with generators.generate and
the library's writers.  A pass then runs every operation of DIR/ops.json
through wdcolor.cli.main in this process, each report going to
DIR/reports/TAG/.  A speed probe runs before and after set-up and between
operations.  Timings, probe times, exit codes and the process's peak RSS
go to DIR/TAG.result.json.  With --trace the pass runs under the span recorder
and then runs every operation a second time in the same process, so the
caller can require byte-identical reports from calls repeated in-process.
"""

import argparse
import contextlib
import heapq
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


PROBE_ITERATIONS = 8000


def probe() -> float:
    """Time a fixed pure-Python loop in the library's style (exact fractions,
    dicts, a heap).  The machine's speed drifts by tens of percent within
    seconds, so operation times are scaled by the probe times around them."""
    t0 = time.perf_counter()
    acc: dict = {}
    heap: list = []
    for k in range(PROBE_ITERATIONS):
        acc[k % 500] = Fraction(k, 7) + acc.get((k * 7) % 500, 0)
        heapq.heappush(heap, (k * 31) % 9973)
        if len(heap) > 100:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def _import_wdcolor(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import wdcolor
    from wdcolor import cli, generators, graph
    if not os.path.abspath(wdcolor.__file__).startswith(os.path.join(src, "")):
        raise ImportError("wdcolor was imported from %s, not from %s" % (wdcolor.__file__, src))
    return cli, generators, graph


def setup(root: str, workdir: str, workload: str, seed: int, tiny: bool):
    """Import wdcolor, then generate and write every instance."""
    t0 = time.perf_counter()
    cli, generators, graph = _import_wdcolor(root)
    built = {}

    def save(name: str, ext: str, text: str) -> None:
        with open(os.path.join(workdir, "%s.%s" % (name, ext)), "w") as fh:
            fh.write(text)

    dump = lambda obj: json.dumps(obj, sort_keys=True, indent=2) + "\n"
    for spec in workloads.instances(workload, seed, tiny):
        gs = generators.GeneratorSpec(
            family=spec["family"], n=spec.get("n", 0), rows=spec.get("rows", 0),
            cols=spec.get("cols", 0), k=spec.get("k", 2), seed=spec["seed"],
            weight_lo=spec.get("weight_lo", 1), weight_hi=spec.get("weight_hi", 1),
            weight_den=spec.get("weight_den", 1),
        )
        inst = generators.generate(gs, base=built.get(spec.get("base")))
        built[spec["name"]] = inst.graph
        save(spec["name"], "txt", graph.write_edge_list(inst.graph))
        if inst.td is not None:
            save(spec["name"], "td.json", dump(inst.td.to_json_dict()))
        if inst.rotation is not None:
            save(spec["name"], "rotation.json", dump(generators.rotation_to_json(inst.rotation)))
        if inst.layering is not None:
            save(spec["name"], "layers.json", dump(generators.layering_to_json(inst.layering)))
        if inst.tripods is not None:
            save(spec["name"], "tripods.json", dump(generators.tripods_to_json(inst.tripods)))
    return cli, time.perf_counter() - t0


def run_pass(cli, workdir: str, tag: str, tracer=None):
    with open(os.path.join(workdir, "ops.json")) as fh:
        ops = json.load(fh)
    outdir = os.path.join(workdir, "reports", tag)
    os.makedirs(outdir, exist_ok=True)
    if tracer is not None:
        tracer.install()
    results = []
    clock = time.perf_counter
    probes = [probe()]
    for i, op in enumerate(ops):
        out = os.path.join(outdir, "%02d.json" % i)
        sink_out, sink_err = io.StringIO(), io.StringIO()
        error = None
        t0 = clock()
        try:
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                rc = cli.main(op["argv"] + ["--out", out])
        except SystemExit as exc:  # argparse exits on bad arguments
            rc = exc.code
        except Exception:  # a crash is a failed operation: record it and go on
            rc, error = None, traceback.format_exc(limit=8)
        seconds = clock() - t0
        probes.append(probe())
        results.append({
            "seconds": seconds, "probes": probes[-2:], "rc": rc, "error": error,
            "stderr": sink_err.getvalue()[-2000:], "report": out if os.path.exists(out) else None,
        })
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass"))
    ap.add_argument("--tag", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    probe()  # warm-up
    before = probe()
    cli, setup_s = setup(args.root, args.workdir, args.workload, args.seed, args.tiny)
    record = {"setup_s": setup_s, "setup_probes": [before, probe()]}
    if args.mode == "pass":
        tracer = None
        if args.trace:
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
        ops = run_pass(cli, args.workdir, args.tag, tracer)
        record.update(
            ops=ops, wall_s=sum(op["seconds"] for op in ops),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            record["tracer"] = tracer.snapshot()
            record["repeat_ops"] = run_pass(cli, args.workdir, args.tag + "r")
    with open(os.path.join(args.workdir, args.tag + ".result.json"), "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
