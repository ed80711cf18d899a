"""latkit benchmark: CLI workloads run end to end, with pinned outputs.

    python3 bench/run.py --workload census --seed 0 --seconds 15 --trace 0

Each workload is a list of ``python -m latkit.cli ... --format json`` jobs.
A pass runs them one after another, each in a fresh process: a closed loop
with one client, so two jobs never compete for the two CPUs of a small
machine.  After one untimed warm-up pass (it compiles bytecode), passes
repeat until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced passes with passes through
``trace_launch.py`` and reports the per-layer metrics of the traced ones.

Every job's exit code and stdout SHA-256 are checked against
``expected.json`` (pinned at seed 0).  On another seed the two sampled jobs
are checked by exit code, ``"holds": true`` and ``checked == --samples``.
The last stdout line is the result; the line before it is a full record
(machine, source, quartiles, checksums, per-function spans).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from trace_launch import LAYERS, TRACE_MARK  # noqa: E402

SAMPLES = 10000
PROBES_PER_PASS = 3
JOB_TIMEOUT_S = 60


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple
    sampled: bool = False  # takes --samples and the workload seed

    def argv(self, seed: int) -> list:
        extra = ["--samples", str(SAMPLES), "--seed", str(seed)] if self.sampled else []
        return [*self.args, *extra, "--format", "json"]


WORKLOADS = {
    # Large censuses on one codomain each, so per-order caches stay warm.
    # Search-bound jobs (backtracking dominates) are mixed with result-bound
    # ones (per-map range flags dominate), so trading one for the other shows.
    "census": (
        Job("enumerate-P3-P6-convex", ("enumerate", "--dom", '{"powerset":3}',
                                       "--cod", '{"powerset":6}', "--convex-range")),
        Job("thm-powerset-form-3-5", ("verify", "thm-powerset-form", "--x", "3", "--y", "5")),
        Job("enumerate-C23-C333", ("enumerate", "--dom", '{"chains":[2,3]}',
                                   "--cod", '{"chains":[3,3,3]}')),
        Job("cor-atom-image-3-4", ("verify", "cor-atom-image", "--x", "3", "--y", "4")),
    ),
    # Thousands of fresh tiny orders keep per-order caches cold; builders and
    # the lattice subset scans work here, and the census runs many shallow
    # searches where per-call set-up outweighs the search.
    "sweep": (
        Job("thm-preregular-continuity-5", ("verify", "thm-preregular-continuity",
                                            "--max-size", "5")),
        Job("lem-convex-preregular-7", ("verify", "lem-convex-preregular", "--max-size", "7")),
    ),
    # Short topology and monoid runs; start-up is most of the wall time here.
    "laws": (
        Job("sweep-cat-ro-iso-4", ("sweep", "cat-ro-iso", "--points", "4")),
        Job("sweep-baire-4", ("sweep", "baire", "--points", "4")),
        Job("law-monoid-distributivity", ("verify", "law-monoid-distributivity"), sampled=True),
        Job("law-disjoint-sum", ("verify", "law-disjoint-sum"), sampled=True),
        Job("lem-group-completion-4", ("verify", "lem-group-completion", "--max-size", "4")),
        Job("thm-extension-convexity-2", ("verify", "thm-extension-convexity", "--n", "2")),
    ),
}

# Start-up probe: interpreter, ``import latkit.cli`` and argparse.
PROBE = Job("list", ("--list",))


@dataclass
class Proc:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int


def child_env() -> dict:
    """The caller's environment, minus settings that change the program."""
    env = dict(os.environ)
    # LATKIT_THREADS adds a thread pool; -O strips the asserts the code still
    # checks with; without bytecode files every job would recompile.
    for key in ("LATKIT_THREADS", "PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE"):
        env.pop(key, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list, env: dict) -> Proc:
    """Run ``argv`` to completion; the rusage is this one child's own."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=ROOT, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # every job ends in seconds; a hung one is killed and fails its check
    watchdog = threading.Timer(JOB_TIMEOUT_S, p.kill)
    watchdog.start()
    try:
        err = []
        reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
        reader.start()
        out = p.stdout.read()
        reader.join()
        _, status, usage = os.wait4(p.pid, 0)
    except BaseException:
        p.kill()
        p.wait()
        raise
    finally:
        watchdog.cancel()
        p.stdout.close()
        p.stderr.close()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, out, err[0], wall, usage.ru_maxrss)


def job_failure(job: Job, seed: int, proc: Proc, expected: dict):
    """Why ``proc`` is a wrong result for ``job``, or None when it is right."""
    want = expected[job.name]
    if proc.code != want["exit"]:
        return f"exit code {proc.code}, expected {want['exit']}"
    if job.sampled and seed != 0:
        try:
            doc = json.loads(proc.stdout)
            report = doc["report"]
            modes = report["modes"].values() if "modes" in report else [report["report"]]
            ok = (doc["seed"] == seed and report["holds"] is True
                  and all(m["checked"] == SAMPLES for m in modes))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"unreadable report: {exc!r}"
        return None if ok else "report does not hold for every sample"
    digest = hashlib.sha256(proc.stdout).hexdigest()
    if digest != want["sha256"]:
        return f"stdout sha256 {digest[:16]}..., expected {want['sha256'][:16]}..."
    return None


@dataclass
class Pass:
    wall_s: float
    peak_rss_kb: int
    checksums: dict
    job_wall_s: dict
    traces: list = field(default_factory=list)


@dataclass
class Tally:
    """Job runs attempted and failed over a whole benchmark run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problem(f"{what}: {problem}")

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def run_pass(jobs, seed: int, env: dict, expected: dict, tally: Tally,
             traced: bool = False) -> Pass:
    head = ([sys.executable, str(BENCH / "trace_launch.py")] if traced
            else [sys.executable, "-m", "latkit.cli"])
    checksums, job_wall, traces, peak = {}, {}, [], 0
    t0 = time.perf_counter()
    for job in jobs:
        proc = spawn(head + job.argv(seed), env)
        if traced:
            lines = proc.stderr.decode(errors="replace").splitlines()
            marked = [ln for ln in lines if ln.startswith(TRACE_MARK)]
            if marked:
                traces.append(json.loads(marked[-1][len(TRACE_MARK):]))
            else:
                tally.problem(f"{job.name} (traced): no trace")
        tally.record(job.name + (" (traced)" if traced else ""),
                     job_failure(job, seed, proc, expected))
        checksums[job.name] = hashlib.sha256(proc.stdout).hexdigest()
        job_wall[job.name] = proc.wall_s
        peak = max(peak, proc.maxrss_kb)
    return Pass(time.perf_counter() - t0, peak, checksums, job_wall, traces)


def probe(env: dict, expected: dict, tally: Tally) -> float:
    proc = spawn([sys.executable, "-m", "latkit.cli", *PROBE.argv(0)], env)
    problem = job_failure(PROBE, 0, proc, expected)
    if problem is not None:
        tally.problem(f"{PROBE.name}: {problem}")
    return proc.wall_s


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


# ---------------------------------------------------------------------------
# per-layer metrics from the traced passes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def aggregate(trace_pass: list) -> tuple:
    """Span rows of one traced pass (one trace per job) summed per function,
    and per (function, caller)."""
    totals, by_caller = {}, {}
    for trace in trace_pass:
        for row in trace["spans"]:
            for table, key in ((totals, row["fn"]), (by_caller, (row["fn"], row["caller"]))):
                acc = table.setdefault(key, {})
                for k, v in row.items():
                    if k not in ("fn", "caller", "total_s"):
                        acc[k] = acc.get(k, 0) + v
    return totals, by_caller


def layer_metrics(trace_pass: list, overhead: float) -> dict:
    """The per-layer metrics of one traced pass."""
    totals, by_caller = aggregate(trace_pass)

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def get_from(name, key, caller):
        return by_caller.get((name, caller), {}).get(key, 0)

    m = {"cli.import_s": sum(t["import_s"] for t in trace_pass)}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v["self_s"] for name, v in totals.items() if name.split(".")[0] == layer)
    both = ("calls", "self_s")
    wanted = {
        "cli.main": ("self_s",),
        "order.sup": both, "order.inf": both, "order.order_from_relation": both,
        "order.build_quasi_order": both, "order.atoms": ("self_s",),
        "builders.enumerate_posets": ("self_s",), "builders.canonical_key": both,
        "lattice.preregularity_witness": both, "lattice.sup_in_subset": both,
        "lattice.is_convex": both, "lattice.lattice_view": both,
        "lattice.classify": both, "lattice.check_jid": ("self_s",),
        "lattice.is_flat_complete": ("self_s",),
        "embedding.enumerate_embeddings": ("calls", "self_s", "nodes", "maps"),
        "embedding.continuity_checks": both,
        "embedding.atom_image_check": ("self_s",),
        "embedding.powerset_formula_census": ("self_s",),
        "embedding.enumerate_continuous_extensions": ("self_s",),
        "topology.enumerate_topologies": ("self_s",),
        "topology.category_algebra": both, "topology.is_meager": ("calls",),
        "topology.interior": both,
        "monoid.check_distributivity": ("self_s", "checked"),
        "monoid.check_disjoint_sum_laws": ("self_s",),
        "monoid.group_completion": both,
        "monoid.enumerate_commutative_monoids": ("self_s",),
    }
    for name, keys in wanted.items():
        for key in keys:
            m[f"{name}.{key}"] = get(name, key)
    ee = "embedding.enumerate_embeddings"
    m[f"{ee}.nodes_per_s"] = _ratio(get(ee, "nodes"), get(ee, "self_s"))
    m[f"{ee}.maps_per_node"] = _ratio(get(ee, "maps"), get(ee, "nodes"))
    m["builders.enumerate_posets.classes_per_key"] = _ratio(
        get("builders.enumerate_posets", "kept"),
        get_from("builders.canonical_key", "calls", "builders.enumerate_posets"))
    m["builders.enumerate_lattices.kept_ratio"] = _ratio(
        get("builders.enumerate_lattices", "kept"),
        get_from("builders.enumerate_posets", "kept", "builders.enumerate_lattices"))
    for name in ("topology.enumerate_topologies", "monoid.enumerate_commutative_monoids"):
        m[f"{name}.kept_ratio"] = _ratio(get(name, "kept"), get(name, "scanned"))
    cd = "monoid.check_distributivity"
    m[f"{cd}.checks_per_s"] = _ratio(get(cd, "checked"), get(cd, "self_s"))
    m["trace.overhead"] = overhead
    return m


def span_table(trace_pass: list) -> list:
    """Calls, self time and counts of one traced pass, by function and caller."""
    _, by_caller = aggregate(trace_pass)
    return [{"fn": fn, "caller": caller, **v}
            for (fn, caller), v in sorted(by_caller.items(), key=lambda kv: (
                kv[0][0], kv[0][1] or ""))]


# ---------------------------------------------------------------------------
# run record


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy,
            "platform": platform.platform()}


def source() -> dict:
    """Commit (when the checkout is a git work tree) and src/latkit size."""
    lines = sum(len(p.read_bytes().splitlines())
                for p in sorted((ROOT / "src" / "latkit").rglob("*.py")))
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        try:
            commit = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"commit": commit, "dirty": dirty, "latkit_lines": lines}


def run(workload: str, seed: int, seconds: float, trace: bool,
        expected: dict) -> tuple:
    """Run one workload; return (full record, result line)."""
    jobs = WORKLOADS[workload]
    env = child_env()
    tally = Tally()
    run_pass(jobs, seed, env, expected, tally)   # warm-up, untimed
    passes, traced, setups = [], [], []
    t0 = last = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, seed, env, expected, tally))
        if trace:
            traced.append(run_pass(jobs, seed, env, expected, tally, traced=True))
        else:
            setups.extend(probe(env, expected, tally) for _ in range(PROBES_PER_PASS))
        # stop when one more round would end nearer past the deadline than now
        now = time.perf_counter()
        if now - t0 + (now - last) / 2 >= seconds:
            break
        last = now

    reference = passes[0].checksums
    for p in passes[1:] + traced:
        for name, digest in p.checksums.items():
            if digest != reference[name]:
                tally.problem(f"{name}: stdout differs between passes")
    walls = [p.wall_s for p in passes]
    fail_rate = tally.failed / tally.attempted
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "jobs": [" ".join(j.argv(seed)) for j in jobs],
        "machine": machine(), "source": source(),
        "wall_s": summary(walls),
        "job_wall_s": {j.name: statistics.median(p.job_wall_s[j.name] for p in passes)
                       for j in jobs},
        "peak_rss_mb": statistics.median(p.peak_rss_kb for p in passes) / 1024,
        "fail_rate": fail_rate, "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "checksums": reference,
    }
    if trace:
        overhead = (statistics.median(p.wall_s for p in traced)
                    / statistics.median(walls))
        per_pass = [layer_metrics(p.traces, overhead) for p in traced]
        metrics = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
        units = {k: metric_unit(k) for k in metrics}
        record["traced_wall_s"] = summary([p.wall_s for p in traced])
        record["spans"] = span_table(traced[0].traces)
    else:
        record["setup_s"] = summary(setups)
        metrics = {
            "wall_s": record["wall_s"]["median"],
            "setup_s": record["setup_s"]["median"],
            "peak_rss_mb": record["peak_rss_mb"],
            "pass_rate": 1.0 - fail_rate,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record, result


def metric_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s"
    return {"calls": "count", "nodes": "count", "maps": "count",
            "checked": "count"}.get(last, "ratio")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "latkit" / "cli.py").is_file():
        print(f"error: no latkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         expected)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
