"""Time to a certified verdict: the benchmark of the almostdirect package.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

One workload runs in one process and one thread as a closed loop: a single
client sends the next CLI job only after the previous one has returned.  The
job list is made from the seed and written as spec files before timing
starts (see ``workloads.py``); then the whole list is run again and again
for about ``--seconds`` seconds.  Every verdict is checked against an answer
the benchmark knows on its own.  A job's time is the median over its rounds,
scaled to a reference host speed (see ``REFERENCE_S``).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` rounds alternate between untraced
and traced, and the JSON holds the per-layer metrics of the traced rounds
(see ``tracing.py``) and the tracing overhead.  Without ``--workload`` every
workload runs, each in its own process, one after the other.

A record of each run (machine, seed, job list, per-job times, metrics) and,
when traced, its spans are written to ``perfbench/out/``.
"""

import time

_START = time.perf_counter()  # before the package is imported

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("certify", "invariants_large", "verify_longwords")
SETUP_REPEATS = 3
JOB_LIMIT_S = 30.0  # a job past this is stopped and counted as failed
RUN_LIMIT_S = 150.0  # no job starts later than this after process start
TAIL_BEYOND = 10  # the tail percentile has at least this many jobs beyond it

# A fixed pure-Python loop is timed before and after every job.  Other
# tenants of a shared host slow the loop and the job alike (on a 2-vCPU test
# VM both varied by up to 1.8x within a minute), so each time is reported
# scaled by REFERENCE_S / (loop time): as seconds on a host where the loop
# takes REFERENCE_S.  The raw seconds go to the run record.
CALIBRATION_LOOPS = 10_000
REFERENCE_S = 0.00065

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("exterior.groebner_verify.s", "s"),
    ("linalg.span_rank.s", "s"),
    ("linalg.span_rank.rows", "count"),
    ("linalg.useful_ratio", "ratio"),
    ("fox.abel_gradient.s", "s"),
    ("fox.abel_gradient.calls", "count"),
    ("fox.letters", "count"),
    ("words.commutator_decompose.s", "s"),
    ("adp.pair_letters", "count"),
    ("homology.h2_matrix.s", "s"),
    ("homology.verify_chain_map.s", "s"),
    ("exterior.normal_form.s", "s"),
    ("exterior.normal_form.calls", "count"),
    ("exterior.reduce_mono.calls", "count"),
    ("invariants.zcl_witness.s", "s"),
    ("invariants.tc_certificate.s", "s"),
    ("exterior.dimension.s", "s"),
    ("invariants.lcs.s", "s"),
    ("adp.build_presentation.s", "s"),
    ("adp.build_presentation.calls", "count"),
    ("adp.relations", "count"),
    ("exterior.CohomologyRing.calls", "count"),
    ("homology.kernel_basis.s", "s"),
    ("homology.has_full_row_rank.s", "s"),
    ("cli.parse_spec.s", "s"),
    ("cli.format_spec.s", "s"),
    ("cli.main.s", "s"),
    ("trace.overhead_s", "s"),
)


def import_package():
    """Import ``almostdirect`` from this checkout's ``src``, or exit."""
    src = ROOT / "src"
    if not (src / "almostdirect" / "__init__.py").is_file():
        raise SystemExit("error: no package source under %s" % src)
    sys.path.insert(0, str(src))
    import almostdirect

    if Path(almostdirect.__file__).resolve().parent != (src / "almostdirect").resolve():
        raise SystemExit("error: almostdirect was imported from outside %s" % src)


class OverBudget(Exception):
    """Raised inside a job that has run past its time limit."""


def _alarm(signum, frame):
    raise OverBudget()


def tail_rank(n):
    """0-based rank, among ``n`` sorted values, of the highest percentile
    that has at least ``TAIL_BEYOND`` values beyond it."""
    if n <= TAIL_BEYOND:
        raise ValueError(
            "need more than %d values for a tail, got %d" % (TAIL_BEYOND, n)
        )
    return n - TAIL_BEYOND - 1


def calibration():
    """Seconds the reference loop takes now: the best of three, as an
    interrupt can only lengthen one."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds, before, after):
    """``seconds`` at the reference host speed, given the loop times taken
    just before and just after them."""
    return seconds * 2 * REFERENCE_S / (before + after)


def machine():
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
    }


def setup(workload, seed, work):
    """Make the job list and write its spec files; checks each file parses
    back to the spec it was written from."""
    from almostdirect.cli import parse_spec
    import workloads

    jobs = workloads.make_jobs(workload, seed)
    paths = []
    for k, job in enumerate(jobs):
        path = work / ("job%03d.spec" % k)
        path.write_text(job.spec_text, encoding="utf-8")
        if job.spec is not None:
            if parse_spec(path.read_text(encoding="utf-8")) != job.spec:
                raise SystemExit("error: spec file of %s does not parse back" % job.name)
        paths.append(path)
    return jobs, paths


def run_job(job, path, limit):
    """Run the calls of one job in order: (seconds in the CLI, problem)."""
    from almostdirect import cli
    import workloads

    elapsed = 0.0
    problem = None
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        for call in job.calls:
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
                    io.StringIO()
                ):
                    rc = cli.main(call.argv(path))
            finally:
                elapsed += time.perf_counter() - start
            problem = workloads.check(call, rc, out.getvalue())
            if problem:
                break
    except OverBudget:
        problem = "over budget: stopped after %.0f s" % limit
    except Exception as err:  # a crash is a wrong verdict, not the end of the run
        problem = "raised " + traceback.format_exception_only(type(err), err)[-1].strip()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return elapsed, problem


@dataclass
class Round:
    traced: bool
    wall_s: float
    raw: list  # seconds per job; None for a job not started before the run limit
    times: list  # the same, scaled to the reference host speed
    problems: list  # per job; None when its verdicts were right
    layers: dict | None


def measure(jobs, paths, seconds, tracer):
    """Run the job list round after round for about ``seconds``."""
    deadline = _START + RUN_LIMIT_S
    rounds = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        raw, times, problems = [], [], []
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            before = calibration()
            for k, (job, path) in enumerate(zip(jobs, paths)):
                left = deadline - time.perf_counter()
                if left <= 0:
                    raw.append(None)
                    times.append(None)
                    problems.append("over budget: not started before the run limit")
                    continue
                if traced:
                    tracer.job = k
                seconds_k, problem = run_job(job, path, min(JOB_LIMIT_S, left))
                after = calibration()
                raw.append(seconds_k)
                times.append(scaled(seconds_k, before, after))
                problems.append(problem)
                before = after
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        layers = tracer.end_round() if traced else None
        rounds.append(Round(traced, wall, raw, times, problems, layers))
        now = time.perf_counter()
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if now >= deadline or (enough and now - started + wall > seconds):
            return rounds


def job_times(jobs, rounds, field):
    """Each job's median time over the untraced rounds."""
    plain = [getattr(r, field) for r in rounds if not r.traced]
    out = {}
    for k, job in enumerate(jobs):
        times = [t[k] for t in plain if t[k] is not None]
        if times:
            out[job.name] = statistics.median(times)
    return out


def end_to_end(jobs, rounds, setup_s):
    per_job = job_times(jobs, rounds, "times")
    ordered = sorted(per_job.values())
    rank = tail_rank(len(ordered))
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(ordered),
        "job_p50_s": statistics.median(ordered),
        "job_tail_s": ordered[rank],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = {"percentile": 100.0 * (rank + 1) / len(ordered), "jobs": len(ordered)}
    return metrics, tail, per_job


def per_layer(rounds):
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    metrics = {
        key: statistics.median(r.layers[key] for r in traced)
        for key in traced[0].layers
    }

    def scaled_wall(r):
        return sum(t for t in r.times if t is not None)

    metrics["trace.overhead_s"] = statistics.median(
        map(scaled_wall, traced)
    ) - statistics.median(map(scaled_wall, plain))
    return metrics


def run_workload(args):
    import_package()
    import workloads
    from tracing import Tracer

    import_s = time.perf_counter() - _START
    before = calibration()
    import_s = scaled(import_s, before, before)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="specs-%s-" % args.workload, dir=OUT))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            jobs, paths = setup(args.workload, args.seed, work)
            seconds = time.perf_counter() - t0
            after = calibration()
            setup_times.append(scaled(seconds, before, after))
            before = after
        setup_s = import_s + statistics.median(setup_times)
        tracer = Tracer() if args.trace else None
        rounds = measure(jobs, paths, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, tail, per_job = end_to_end(jobs, rounds, setup_s)
    raw_per_job = job_times(jobs, rounds, "raw")
    attempted = sum(len(r.problems) for r in rounds)
    failures = [
        "%s: %s" % (jobs[k].name, p)
        for r in rounds
        for k, p in enumerate(r.problems)
        if p is not None
    ]
    fail_ratio = len(failures) / attempted
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    print(
        "workload %s seed %d: %d jobs, %d rounds (%d traced), %d attempted, %d failed"
        % (
            args.workload,
            args.seed,
            len(jobs),
            len(rounds),
            sum(r.traced for r in rounds),
            attempted,
            len(failures),
        )
    )
    for name, unit in END_TO_END:
        extra = ""
        if name == "wall_s":
            extra = "  (unscaled %.6g s)" % sum(raw_per_job.values())
        if name == "job_tail_s":
            extra = "  (p%.1f of %d jobs)" % (tail["percentile"], tail["jobs"])
        print("%-14s %.6g %s%s" % (name, metrics[name], unit, extra))
    print("%-14s %.6g  (%d of %d)" % ("fail_ratio", fail_ratio, len(failures), attempted))
    for failure in failures[:10]:
        print("fail " + failure)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "jobs": [job.name for job in jobs],
        "relator_band": list(workloads.LONGWORD_BAND)
        if args.workload == "verify_longwords"
        else None,
        "rounds": [{"traced": r.traced, "wall_s": r.wall_s} for r in rounds],
        "per_job_s": per_job,
        "per_job_raw_s": raw_per_job,
        "job_tail": tail,
        "fail_ratio": fail_ratio,
        "failures": failures[:100],
        "end_to_end": metrics,
    }
    units = dict(END_TO_END)
    if args.trace:
        layers = per_layer(rounds)
        for key in sorted(layers):
            print("layer %-36s %.6g" % (key, layers[key]))
        if tracer.missing:
            print("trace: not found in the package: " + ", ".join(tracer.missing))
        spans = OUT / (tag + "-spans.jsonl")
        tracer.write_spans(spans, _START)
        record.update(per_layer=layers, missing_targets=tracer.missing, spans=spans.name)
        metrics = layers
        units = dict(PER_LAYER)
    with open(OUT / (tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, each in its own process; one JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=RUN_LIMIT_S + 60
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
