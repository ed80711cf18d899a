"""The traced launcher in ``bench/`` runs a job exactly as the CLI does, and
its counters read what the library returns."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latkit.monoid import (
    DISTRIBUTIVITY_MODES,
    VectorMonoid,
    check_distributivity,
    truncated_addition_monoid,
)

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from trace_launch import COUNTERS, TRACE_MARK  # noqa: E402


def launch(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("LATKIT_THREADS", None)
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("law", ["law-monoid-distributivity", "law-disjoint-sum"])
def test_traced_job_prints_what_the_cli_prints(law):
    args = ("verify", law, "--samples", "50", "--format", "json")
    traced = launch(str(ROOT / "bench" / "trace_launch.py"), *args)
    plain = launch("-m", "latkit.cli", *args)
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    assert plain.returncode == 0
    assert json.loads(plain.stdout)["report"]["holds"] is True
    (line,) = [ln for ln in traced.stderr.decode().splitlines()
               if ln.startswith(TRACE_MARK)]
    trace = json.loads(line[len(TRACE_MARK):])
    assert any(span["fn"].startswith("monoid.") for span in trace["spans"])


def test_distributivity_counter_reads_one_report():
    count = COUNTERS["monoid.check_distributivity"]
    for m in (VectorMonoid(2), truncated_addition_monoid(3)):
        for mode in DISTRIBUTIVITY_MODES:
            report = check_distributivity(m, mode, samples=50, seed=1)
            assert count((m, mode), {"samples": 50}, report) == {
                "checked": report["checked"]}
