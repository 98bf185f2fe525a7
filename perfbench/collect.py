"""Run the benchmark over many seeds and summarize the spread of each metric.

    python3 perfbench/collect.py [--workload NAME ...] [--seeds 1-10]
                                 [--seconds S] [--write FILE]

Each run is a separate ``run.py`` process with ``--trace 0``, one after the
other.  For every end-to-end metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the bound
that ``BENCHMARK.json`` fixes for that metric; a spread not below a third
of its bound is marked ``wide``.  ``--write`` stores all of it,
with the machine, as a baseline to compare later commits against.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    argv = [
        sys.executable,
        str(run.HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    proc = subprocess.run(
        argv, capture_output=True, text=True, timeout=run.RUN_LIMIT_S + 60
    )
    if proc.returncode != 0:
        raise SystemExit(
            "error: %s seed %d exited %d\n%s"
            % (workload, seed, proc.returncode, proc.stderr)
        )
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--write", type=Path, help="store the summary here")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    summary = {}
    for workload in args.workload or run.WORKLOADS:
        results = []
        for seed in seeds:
            t0 = time.perf_counter()
            result = run_once(workload, seed, seconds)
            results.append(result)
            print(
                "%s seed %d: %.1f s, failed %d of %d"
                % (
                    workload,
                    seed,
                    time.perf_counter() - t0,
                    result["failed"],
                    result["attempted"],
                ),
                file=sys.stderr,
            )
        summary[workload] = {
            name: summarize([r["metrics"][name]["value"] for r in results])
            for name in bounds
        }
        summary[workload]["failed"] = sum(r["failed"] for r in results)
        summary[workload]["attempted"] = sum(r["attempted"] for r in results)

    print(
        "%-18s %-13s %12s %12s %12s %8s %6s"
        % ("workload", "metric", "median", "q1", "q3", "spread", "bound")
    )
    for workload, metrics in summary.items():
        for name, bound in bounds.items():
            s = metrics[name]
            print(
                "%-18s %-13s %12.6g %12.6g %12.6g %8.4f %6.3f%s"
                % (
                    workload,
                    name,
                    s["median"],
                    s["q1"],
                    s["q3"],
                    s["spread"],
                    bound,
                    "" if s["spread"] < bound / 3 or name == "setup_s" else "  wide",
                )
            )
        print(
            "%-18s failed %d of %d attempted"
            % (workload, metrics["failed"], metrics["attempted"])
        )
    if args.write:
        record = {
            "machine": run.machine(),
            "seeds": seeds,
            "seconds": seconds,
            "workloads": summary,
        }
        args.write.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
