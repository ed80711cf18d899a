"""The benchmark's pinned outputs, checked in-process: every job of
``bench/run.py`` and its ``--list`` probe, run at seed 0 through
``latkit.cli.main``, exits with the code and prints the bytes whose SHA-256
``bench/expected.json`` records.  The benchmark checks the same pins on
every pass, in a fresh process; this catches a drift in the tier-1 run."""

import hashlib
import json
import pathlib
import sys

import pytest

from latkit.cli import main

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
JOBS = [run.PROBE] + [job for jobs in run.WORKLOADS.values() for job in jobs]


def test_every_job_has_a_pin():
    assert sorted(job.name for job in JOBS) == sorted(EXPECTED)


@pytest.mark.parametrize("job", JOBS, ids=lambda job: job.name)
def test_job_prints_its_pinned_bytes(job, capsys):
    code = main(job.argv(0))
    out = capsys.readouterr().out.encode("utf-8")
    pin = EXPECTED[job.name]
    assert (code, hashlib.sha256(out).hexdigest()) == (pin["exit"], pin["sha256"])
