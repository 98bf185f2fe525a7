"""The benchmark's tracer still finds every function it wraps by name.

A target the package no longer has is skipped and listed in
``Tracer.missing``, and its per-layer metric then reads zero without any
error, so a rename in the package must fail here.
"""

import importlib.util
from pathlib import Path

import almostdirect  # noqa: F401  (imports every module the tracer patches)
from almostdirect.exterior import CohomologyRing

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    reduce_mono = CohomologyRing.reduce_mono
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert CohomologyRing.reduce_mono is reduce_mono
