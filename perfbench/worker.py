"""One benchmark process: set up a workload, time its passes, check outputs.

Started by ``run.py`` from the root of a checkout:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE START OUT

MODE is ``setup`` (stop after set-up), ``run`` (untraced passes for about
SECONDS) or ``traced`` (one untraced pass, then two traced ones).  START is
the ``time.monotonic()`` reading taken before the process was started.  The
result is written as JSON to OUT.
"""
from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

# Other processes on the machine make single passes slow; each operation is
# timed by its median over the passes of a run.
MIN_PASSES = 2


def run_pass(workload, ops, tracer=None):
    """Run every operation once, in order; an exception fails only its own
    operation."""
    workload.start_pass()
    if tracer is not None:
        tracer.start_pass()
    latencies, outputs, errors = [], [], []
    begin = time.perf_counter()
    for index, (label, call) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            outputs.append(call())
            errors.append(None)
        except Exception as exc:  # a crash is a failed operation, not a stop
            outputs.append(None)
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
    wall = time.perf_counter() - begin
    if tracer is not None:
        tracer.stop_pass()
    records = [
        workload.record(i, out) if err is None else None
        for i, (out, err) in enumerate(zip(outputs, errors))
    ]
    return {"wall": wall, "latencies": latencies, "outputs": outputs, "errors": errors, "records": records}


def main(argv: list[str]) -> int:
    name, seed, seconds, mode, start, out = argv
    seed, seconds, start = int(seed), float(seconds), float(start)
    root = os.getcwd()
    source = os.path.join(root, "src")
    sys.path.insert(0, source)
    import rmhyper

    if os.path.dirname(os.path.abspath(rmhyper.__file__)) != os.path.join(source, "rmhyper"):
        raise SystemExit(f"rmhyper was imported from {rmhyper.__file__}, not from {source}")
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name](seed, root)
    ops = workload.ops()
    workload.warm_up()
    result = {"setup_s": time.monotonic() - start}
    if mode == "setup":
        workload.close()
        return write(out, result)

    passes = [run_pass(workload, ops)]
    tracer = None
    if mode == "run":
        for _ in range(max(MIN_PASSES, int(seconds // passes[0]["wall"])) - 1):
            passes.append(run_pass(workload, ops))
    else:
        tracer = tracing.Tracer()
        tracer.install()
        passes += [run_pass(workload, ops, tracer) for _ in range(2)]
        tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = [err for p in passes for err in p["errors"] if err]
    first = passes[0]["records"]
    for number, later in enumerate(passes[1:], start=2):
        failures += [
            f"{ops[i][0]} (op {i}): pass {number} gave {rec}, pass 1 gave {first[i]}"
            for i, rec in enumerate(later["records"])
            if rec is not None and first[i] is not None and rec != first[i]
        ]
    last = passes[-1]
    try:
        for i, (output, record) in enumerate(zip(last["outputs"], last["records"])):
            if record is None:
                continue
            try:
                problem = workload.check(i, output, record)
            except Exception as exc:  # an unreadable output fails its check
                problem = f"{ops[i][0]} (op {i}): check raised {type(exc).__name__}: {exc}"
            if problem:
                failures.append(problem)
    finally:
        workload.close()

    valid = [r for r in first if r is not None]
    result.update(
        ops=len(ops),
        passes=len(passes),
        walls=[p["wall"] for p in passes],
        op_times=[statistics.median(p["latencies"][i] for p in passes) for i in range(len(ops))],
        decided=sum(map(workload.decided, valid)),
        counts=workload.counts(valid),
    )
    if tracer is not None:
        layers, mismatches = tracer.layers()
        failures += mismatches
        layers["coloring.corpus_nodes"] = result["counts"].get("coloring.corpus_nodes", 0)
        untraced = passes[0]["wall"]
        layers["trace.overhead_ratio"] = statistics.median(p["wall"] for p in passes[1:]) / untraced - 1
        result["layers"] = layers
        tracer.write(os.path.join(root, workloads.OUT_DIR, f"spans-{name}-{seed}.jsonl"))
    result["attempted"] = len(ops) * len(passes)
    result["failed"] = min(len(failures), result["attempted"])
    result["failures"] = failures[:20]
    return write(out, result)


def write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
