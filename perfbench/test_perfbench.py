"""Tests of the benchmark itself: the oracle, the tail rank, the time limit,
the tracer, and inputs from a seed no run has used.

    python3 -m pytest perfbench
"""

import contextlib
import io

import pytest

import run

run.import_package()

import almostdirect  # noqa: E402
import workloads  # noqa: E402
from almostdirect import cli  # noqa: E402
from tracing import Tracer  # noqa: E402

UNUSED_SEED = 90017


def call_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_oracle_rejects_a_wrong_verdict(tmp_path):
    path = tmp_path / "inconsistent.spec"
    path.write_text(workloads.INCONSISTENT)
    rc, out = call_cli(["verify", str(path), "--porcelain"])
    assert workloads.check(workloads.verify_call(ok=False), rc, out) is None
    problem = workloads.check(workloads.verify_call(ok=True), rc, out)
    assert problem == "verify: exit code 2, expected 0"
    # the right exit code with the wrong summary is still rejected
    assert "verify-summary is fail" in workloads.check(
        workloads.verify_call(ok=True), 0, out
    )


def test_oracle_reads_only_its_records():
    call = workloads.Call("tc", expect={"tc-exact": 6})
    assert workloads.check(call, 0, "ranks 2 3\ntc-exact 6\nstat tc 0.1\n") is None
    assert workloads.check(call, 0, "tc-exact 7\n") == "tc: tc-exact is 7, expected 6"
    assert workloads.check(call, 0, "tc-lower 6\n") == "tc: tc-exact is missing, expected 6"
    assert workloads.check(call, 1, "tc-exact 6\n") == "tc: exit code 1, expected 0"


def test_oracle_hilbert_dimensions():
    (call,) = [
        c
        for c in workloads.session_calls((1, 2, 3), 0, {})
        if c.command == "hilbert"
    ]
    good = "poincare 1 6 11 6\ndim 0 1 1 ok\ndim 1 6 6 ok\ndim 2 11 11 ok\ndim 3 6 6 ok\n"
    assert workloads.check(call, 0, good) is None
    bad = good.replace("dim 2 11 11 ok", "dim 2 10 11 fail")
    assert workloads.check(call, 0, bad) == "hilbert: dim 2 is 10, expected 11"


def test_poincare():
    assert workloads.poincare((1, 2, 3)) == [1, 6, 11, 6]
    assert workloads.poincare(()) == [1]


@pytest.mark.parametrize("n, rank", [(11, 0), (12, 1), (37, 26), (67, 56)])
def test_tail_rank(n, rank):
    assert run.tail_rank(n) == rank
    beyond = [k for k in range(n) if k > rank]
    assert len(beyond) == run.TAIL_BEYOND


def test_tail_rank_needs_more_than_ten_jobs():
    with pytest.raises(ValueError):
        run.tail_rank(10)


def test_job_over_its_limit_is_stopped(tmp_path):
    path = tmp_path / "slow.spec"
    path.write_text("builtin purebraid 6\n")
    job = workloads.Job("verify purebraid 6", "", [workloads.verify_call()])
    seconds, problem = run.run_job(job, path, 0.05)
    assert problem.startswith("over budget")
    assert seconds < 1.0


def test_same_seed_gives_the_same_inputs():
    for workload in run.WORKLOADS:
        first = [job.spec_text for job in workloads.make_jobs(workload, 3)]
        again = [job.spec_text for job in workloads.make_jobs(workload, 3)]
        assert first == again
    other = [job.spec_text for job in workloads.make_jobs("certify", 4)]
    assert other != first


def test_longwords_stay_in_their_band():
    lo, hi = workloads.LONGWORD_BAND
    for job in workloads.make_jobs("verify_longwords", UNUSED_SEED):
        pres = almostdirect.build_presentation(job.spec)
        assert lo <= max(len(rel.relator()) for rel in pres) <= hi


def test_unused_seed_gives_only_accepted_verdicts(tmp_path):
    for workload in run.WORKLOADS:
        jobs, paths = run.setup(workload, UNUSED_SEED, tmp_path)
        for k, (job, path) in enumerate(zip(jobs, paths)):
            # the builtin sessions are the same for every seed, and slow
            if workload == "invariants_large" and job.spec is None:
                continue
            # one long-word spec of each profile is enough
            if workload == "verify_longwords" and k >= len(workloads.LONGWORD_PROFILES):
                continue
            seconds, problem = run.run_job(job, path, run.JOB_LIMIT_S)
            assert problem is None, job.name


def test_tracer_sees_calls_made_through_imported_names():
    original = almostdirect.cli.build_presentation
    tracer = Tracer()
    tracer.install()
    try:
        assert almostdirect.cli.build_presentation is not original
        assert almostdirect.exterior.build_presentation is not original
        rc, out = call_cli(["verify", "builtin:purebraid:4", "--porcelain"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.missing == []
    assert almostdirect.cli.build_presentation is original
    assert almostdirect.adp.build_presentation is original
    layers = tracer.end_round()
    # verify builds the presentation with both pairings
    assert layers["adp.build_presentation.calls"] == 2
    assert layers["adp.relations"] == 2 * 11
    assert layers["exterior.groebner_verify.calls"] == 1
    assert layers["fox.abel_gradient.calls"] > 0
    assert 0 < layers["linalg.useful_ratio"] <= 1
    (root,) = [s for s in tracer.spans if s[1] is None]
    assert root[4] == "cli.main"
    total = root[6] - root[5]
    assert sum(v for k, v in layers.items() if k.endswith(".s")) == pytest.approx(
        total
    )
