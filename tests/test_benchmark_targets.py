"""The benchmark still reads the package the way the package works.

The tracer finds every function it wraps by name: a target the package no
longer has is skipped and listed in ``Tracer.missing``, and its per-layer
metric then reads zero without any error, so a rename in the package must
fail here.  The long-word specs are drawn by the benchmark's own relator
length, which must stay that of the package's relation words.
"""

import importlib.util
import sys
from pathlib import Path

import almostdirect  # noqa: F401  (imports every module the tracer patches)
from almostdirect.adp import build_presentation
from almostdirect.exterior import CohomologyRing
from almostdirect.words import x

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def load(name):
    path = PERFBENCH / (name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    reduce_mono = CohomologyRing.reduce_mono
    tracer = load("tracing").Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert CohomologyRing.reduce_mono is reduce_mono


def test_longword_relators_stay_in_their_band():
    # the relator x(j,q) x(i,p) w^-1 x(j,q)^-1 x(i,p)^-1 of each relation
    # word has the length the benchmark drew its specs by, and the longest
    # of each seed-1 spec lies in the band
    workloads = load("workloads")
    lo, hi = workloads.LONGWORD_BAND
    for job in workloads.make_jobs("verify_longwords", 1):
        lengths = []
        for key, w in build_presentation(job.spec).items():
            i, j, p, q = key
            relator = x(j, q) * x(i, p) * ~w * x(j, q, -1) * x(i, p, -1)
            image = job.spec.images[key]
            assert len(relator) == len(workloads.relator(q, image)), job.name
            lengths.append(len(relator))
        assert lo <= max(lengths) <= hi, job.name
