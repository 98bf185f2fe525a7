"""Smoke test: every walkthrough in ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import almostdirect

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_there_are_four_demos():
    assert [d.name for d in DEMOS] == [
        "braid_cohomology.py",
        "custom_spec.py",
        "series_invariants.py",
        "topological_complexity.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(almostdirect.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
