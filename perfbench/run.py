"""rmhyper benchmark: time the program end to end, or trace it layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload carrier --seed 0 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after the other.  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported, with
``--trace 1`` the per-layer metrics.  Each workload runs in worker processes
of its own (see worker.py); this process only starts them and reports.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed / attempted`` is the fail ratio.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("carrier", "certify", "pipeline")
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 4  # set-up-only processes per run, besides the measured one
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def start_worker(name: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    out = os.path.join(OUT_DIR, f"worker-{name}-{seed}-{mode}-{os.getpid()}.json")
    env = {k: v for k, v in os.environ.items() if k not in ("RMHYPER_OUTPUT_DIR", "PYTHONPATH")}
    start = time.monotonic()
    command = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), str(seconds), mode, repr(start), out]
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - start)
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{name} {mode} worker did not finish before the deadline") from None
    if done.returncode != 0:
        raise BenchmarkError(f"{name} {mode} worker exited {done.returncode}:\n{done.stderr}")
    try:
        with open(out, encoding="utf-8") as fp:
            return json.load(fp)
    finally:
        os.remove(out)


def percentile_ms(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1000


def end_to_end(name: str, seed: int, seconds: float, deadline: float) -> dict:
    probes = [start_worker(name, seed, seconds, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    run = start_worker(name, seed, seconds, "run", deadline)
    # On pipeline one operation is one pass of the CLI chain.
    samples = run["walls"] if name == "pipeline" else run["op_times"]
    run["metrics"] = {
        "setup_s": statistics.median(probes + [run["setup_s"]]),
        "wall_s": statistics.median(run["walls"]),
        "op_p50_ms": percentile_ms(samples, 50),
        "op_p90_ms": percentile_ms(samples, 90),
        "decided_ratio": run["decided"] / run["ops"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    run["samples"] = len(samples)
    return run


def per_layer(name: str, seed: int, seconds: float, deadline: float) -> dict:
    run = start_worker(name, seed, seconds, "traced", deadline)
    run["metrics"] = run.pop("layers")
    run["samples"] = run["ops"]
    return run


def provenance(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next(line.split(":", 1)[1].strip() for line in fp if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S * (len(WORKLOADS) if args.workload == "all" else 1)

    if not os.path.isfile(os.path.join("src", "rmhyper", "__init__.py")):
        print("error: run from the root of an rmhyper checkout (src/rmhyper not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fp:
        spec = json.load(fp)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(OUT_DIR, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    info = provenance(args.seed)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            run = measure(name, args.seed, args.seconds, deadline)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        run["provenance"] = dict(info, workload=name, ops=run["ops"], passes=run["passes"], samples=run["samples"])
        with open(os.path.join(OUT_DIR, f"result-{name}-{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fp:
            json.dump(run, fp, indent=1, sort_keys=True)
        for problem in run["failures"]:
            print(f"{name}: FAIL {problem}", file=sys.stderr)
        print(f"{name}: provenance {json.dumps(run['provenance'], sort_keys=True)}")
        print(f"{name}: exact counts {json.dumps(run['counts'], sort_keys=True)}")
        print(f"{name}: fail_ratio {run['failed']}/{run['attempted']} = {run['failed'] / run['attempted']}")
        prefix = f"{name}." if len(names) > 1 else ""
        for metric in wanted:
            value = run["metrics"][metric["name"]]
            print(f"{name}: {metric['name']} {value} {metric['unit']}")
            summary["metrics"][prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
        summary["attempted"] += run["attempted"]
        summary["failed"] += run["failed"]
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
