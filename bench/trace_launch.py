"""Traced launcher: run one latkit CLI job with a span around every public
function of every layer, and report self time per function.

    PYTHONPATH=src python3 bench/trace_launch.py verify thm-powerset-form --format json

The job's stdout and exit code are those of ``python -m latkit.cli`` with
the same arguments.  The trace goes to stderr as one JSON line that starts
with ``TRACE_MARK``.  Nothing under ``src/`` changes: the launcher rebinds
each wrapped function in every latkit namespace that holds it, because
modules import names such as ``sup`` and ``is_preregular`` directly.

Spans assume one thread, so run it with ``LATKIT_THREADS`` unset.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "order", "builders", "lattice", "embedding", "topology", "monoid")
TRACE_MARK = "latkit-bench-trace "

# A trivial coercion, called hundreds of thousands of times per census job:
# its span would measure mostly the wrapper.  Generators are skipped
# separately, because they do their work after the call returns.
UNSPANNED = frozenset({"order.mask_of"})


def _arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _topology_families(points: int) -> int:
    """Families of proper subsets that ``enumerate_topologies`` scans."""
    return 2 ** max(0, (1 << points) - 2)


def _monoid_tables(n: int) -> int:
    """Tables ``enumerate_commutative_monoids`` tries: n values per cell a <= b."""
    return n ** (n * (n - 1) // 2)


# Counts read from a wrapped call's arguments and result, summed per span key.
COUNTERS = {
    "builders.enumerate_posets": lambda a, kw, r: {"kept": len(r)},
    "builders.enumerate_lattices": lambda a, kw, r: {"kept": len(r)},
    "embedding.enumerate_embeddings": lambda a, kw, r: {
        "nodes": r.nodes, "maps": len(r)},
    "topology.enumerate_topologies": lambda a, kw, r: {
        "kept": len(r), "scanned": _topology_families(_arg(a, kw, "points"))},
    "monoid.enumerate_commutative_monoids": lambda a, kw, r: {
        "kept": len(r), "scanned": _monoid_tables(_arg(a, kw, "n"))},
    "monoid.check_distributivity": lambda a, kw, r: {"checked": r["checked"]},
}


class Tracer:
    """In-memory spans aggregated by (function, calling function)."""

    def __init__(self):
        # (name, caller) -> [calls, total_s, self_s, {counter: sum}]
        self.stats = {}
        self._stack = []  # one [name, child_s] per open span

    def wrap(self, name, fn, count=None):
        """A wrapper that times ``fn`` and returns or raises exactly as it does."""
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = stats.get((name, caller))
                if rec is None:
                    rec = stats[(name, caller)] = [0, 0.0, 0.0, {}]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    rec[3][key] = rec[3].get(key, 0) + value
            return result

        return span

    def rows(self) -> list:
        return [
            {"fn": name, "caller": caller, "calls": calls, "total_s": total,
             "self_s": self_s, **counts}
            for (name, caller), (calls, total, self_s, counts)
            in sorted(self.stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ]


def spanned_functions(mod, layer: str) -> dict:
    """``{layer.name: function}`` for the public functions ``mod`` defines."""
    out = {}
    for attr, obj in vars(mod).items():
        name = f"{layer}.{attr}"
        if (attr.startswith("_") or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
                or inspect.isgeneratorfunction(obj) or name in UNSPANNED):
            continue
        out[name] = obj
    return out


def install(tracer: Tracer) -> None:
    """Wrap every spanned function and rebind it in each latkit namespace."""
    package = importlib.import_module("latkit")
    modules = {layer: importlib.import_module(f"latkit.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for name, fn in spanned_functions(mod, layer).items():
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, COUNTERS.get(name)))
    for ns in (package, *modules.values()):
        for attr, obj in list(vars(ns).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])


def main(argv) -> int:
    t0 = time.perf_counter()
    import latkit.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    t1 = time.perf_counter()
    try:
        return latkit.cli.main(argv)
    finally:
        wall_s = time.perf_counter() - t1
        sys.stdout.flush()
        trace = {"import_s": import_s, "main_wall_s": wall_s, "spans": tracer.rows()}
        sys.stderr.write(TRACE_MARK + json.dumps(trace) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
