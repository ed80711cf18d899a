"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import trace_launch  # noqa: E402
from latkit import order  # noqa: E402
from latkit.cli import InputError  # noqa: E402
from latkit.embedding import BudgetExceededError  # noqa: E402


def _expected() -> dict:
    return json.loads((BENCH / "expected.json").read_text())


def test_wrapper_keeps_return_values_and_exceptions():
    tracer = trace_launch.Tracer()
    sentinel = object()
    ok = tracer.wrap("t.ok", lambda x, *, y: (x, y, sentinel))
    assert ok(1, y=2) == (1, 2, sentinel)
    for exc in (BudgetExceededError("node budget 5 exceeded"), InputError("bad spec")):
        def boom(exc=exc):
            raise exc
        with pytest.raises(type(exc)) as info:
            tracer.wrap("t.boom", boom)()
        assert info.value is exc
    assert {r["fn"]: r["calls"] for r in tracer.rows()} == {"t.ok": 1, "t.boom": 2}


def test_self_time_excludes_child_spans():
    tracer = trace_launch.Tracer()
    inner = tracer.wrap("t.inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("t.outer", lambda: inner())
    outer()
    rows = {r["fn"]: r for r in tracer.rows()}
    assert rows["t.inner"]["caller"] == "t.outer"
    assert rows["t.inner"]["self_s"] >= 0.02
    assert rows["t.outer"]["self_s"] == pytest.approx(
        rows["t.outer"]["total_s"] - rows["t.inner"]["total_s"])


def test_generators_and_coercions_are_not_spanned():
    names = trace_launch.spanned_functions(order, "order")
    assert "order.sup" in names
    assert "order.bits" not in names      # a generator
    assert "order.mask_of" not in names   # a trivial coercion


@pytest.mark.parametrize("argv", [
    ["enumerate", "--dom", '{"powerset":2}', "--cod", '{"powerset":3}',
     "--budget-nodes", "5"],                                   # BudgetExceededError
    ["enumerate", "--dom", "[]", "--cod", '{"powerset":3}'],  # InputError
    ["verify", "thm-powerset-form", "--x", "2", "--y", "3"],
])
def test_traced_job_matches_untraced_job(argv):
    env = run.child_env()
    argv = argv + ["--format", "json"]
    plain = run.spawn([sys.executable, "-m", "latkit.cli", *argv], env)
    traced = run.spawn([sys.executable, str(BENCH / "trace_launch.py"), *argv], env)
    lines = traced.stderr.decode().splitlines()
    assert lines[-1].startswith(trace_launch.TRACE_MARK)
    assert (traced.code, traced.stdout) == (plain.code, plain.stdout)
    assert "\n".join(lines[:-1]) == plain.stderr.decode().rstrip("\n")


def test_sampled_job_checks_every_sample():
    job = next(j for j in run.WORKLOADS["laws"] if j.name == "law-disjoint-sum")

    def proc(checked):
        doc = {"seed": 7, "report": {"holds": True, "report": {
            "holds": True, "checked": checked}}}
        return run.Proc(0, json.dumps(doc).encode(), b"", 0.0, 0)

    assert run.job_failure(job, 7, proc(run.SAMPLES), _expected()) is None
    assert run.job_failure(job, 7, proc(run.SAMPLES - 1), _expected()) is not None


def test_corrupted_checksum_fails_one_job_in_n():
    expected = _expected()
    expected["sweep-baire-4"]["sha256"] = "0" * 64
    record, result = run.run("laws", 0, 0, False, expected)
    n = len(run.WORKLOADS["laws"])
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] == pytest.approx(1 / n)
    assert result["metrics"]["pass_rate"]["value"] == pytest.approx(1 - 1 / n)
    assert record["problems"] and all("sweep-baire-4" in p for p in record["problems"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "laws", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "laws", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
