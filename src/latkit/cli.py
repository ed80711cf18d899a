"""Command-line front end.

Loads structures from JSON, runs property checks, censuses, searches, and
theorem verifiers, and emits deterministic reports.

Exit codes: 0 all checks passed; 1 a property or theorem violation was
found (the report carries a witness); 2 malformed input or usage error;
3 a search budget was exceeded; 4 an internal error (a bug, reported with
its traceback); 141 the reader closed stdout before the output ended.
Given the same configuration and seed, JSON reports are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, Optional

from . import builders, embedding, lattice, monoid, order, topology

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader of stdout went away

MAX_SPEC_SIZE = 64  # elements; {"powerset": 6} is the largest spec in use
MAX_POWERSET_POINTS = MAX_SPEC_SIZE.bit_length() - 1  # 2^6 = 64 elements
_SPEC_LIMIT = f" (orders have at most {MAX_SPEC_SIZE} elements)"
# one walk over the subsets of each poset, and one self-census per distinct
# preregular range: on 2 CPUs about 0.37 s at size 6 (134,702 pairs) in a
# fresh process and 2.8 s at size 7 (5,144,952 pairs) in-process; raising
# the limit waits for a run-wide budget
MAX_CONTINUITY_SIZE = 6
# one preregularity walk over the convex subsets of each lattice; lattices of
# n elements are built from the posets of n - 2, so size 9 needs only the
# posets of 7: 1,078 lattices with 144,904 convex subsets, about 1 s in a
# fresh process on 2 CPUs, while size 10 needs the 16,999 posets of 8, which
# take about 4 s to enumerate
MAX_CONVEX_PREREGULAR_SIZE = 9
# the setting is checked once, the convex-range census of P(n) -> P(m) is a
# search of the intervals of P(m), and each census map's extension is one
# candidate, so the per-map check is the cost: on 2 CPUs --m 6 takes about
# 0.7/1.7/2.2 s at --n 4/5/6 (1,440/1,440/720 maps), and 6 is the largest
# power set a spec may name
MAX_EXTENSION_CODOMAIN = 6
# commutative monoid tables, found by a search that drops a partial table at
# its first failing associativity triple: 94 at size 4, 1,486 at 5 and
# 38,890 at 6 (8.4 s in-process); lem-group-completion --max-size 5 takes
# about 0.18 s in a fresh process on 2 CPUs
MAX_MONOID_SIZE = 5
# the laws on N^I, for every index set I, are decided once on N over the
# scalar grid, in about 0.12 s in a fresh process (2 CPUs) whatever
# --samples says: nothing is drawn, and _monoid_laws only copies --samples
# and --seed into the report format that bench/expected.json pins
MAX_SAMPLES = 100_000
# the integer options of verify, search and sweep
INT_OPTIONS = ("x", "y", "k", "m", "i", "j", "n", "points", "max_size")
# the integer flags commands of several kinds read; each is stored only
# when given
GLOBAL_OPTIONS = ("seed", "samples", "budget_nodes")
# the keyword filters of embedding.enumerate_embeddings
CENSUS_FILTERS = ("convex_range", "preregular_range", "downward_closed_range")
# every option kept in RunConfig.options, in the order a refusal names them
OPTIONS = (*INT_OPTIONS, *GLOBAL_OPTIONS, "dom", "cod", *CENSUS_FILTERS)
# the options enumerate reads; "input" stands for --input
ENUMERATE_READS = ("input", "dom", "cod", *CENSUS_FILTERS, "budget_nodes")


class InputError(ValueError):
    pass


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class RunConfig:
    def __init__(self, command: str, name: Optional[str] = None,
                 inputs: tuple = (), output_format: str = "table",
                 options: Optional[dict] = None):
        self.command = command
        self.name = name
        self.inputs = inputs
        self.output_format = output_format
        self.options = {} if options is None else options  # only the options given
        if len(self.inputs) > 1:
            raise InputError("--input may be given only once")

    @property
    def budget_nodes(self) -> Optional[int]:
        """Checked on read, so a command that does not read it refuses it."""
        value = self.options.get("budget_nodes")
        if value is not None and value <= 0:
            raise InputError("--budget-nodes must be positive")
        return value

    @property
    def label(self) -> str:
        return f"{self.command} {self.name or ''}".rstrip()

    def input_json(self) -> dict:
        """The JSON object in the one ``--input`` file."""
        if not self.inputs:
            raise InputError(f"{self.command} needs --input")
        return load_json(self.inputs[0])

    def refuse_unread(self, reads: tuple):
        """Refuse every given option that is not in ``reads``; ``input``
        stands for ``--input``.  A file replaces the command's other
        options, so next to ``--input`` only ``--input`` and
        ``--budget-nodes`` may be read."""
        why = ""
        if self.inputs and "input" in reads:
            reads = [key for key in reads if key in ("input", "budget_nodes")]
            why = " next to --input"
        given = [*self.options, *(["input"] if self.inputs else [])]
        unread = [_flag(key) for key in given if key not in reads]
        if unread:
            raise InputError(f"{self.label} does not read "
                             + ", ".join(unread) + why)

    def option(self, key: str, default: int, limit: Optional[int] = None,
               why: str = "") -> int:
        """The integer option ``key``; ``default`` only when it is unset,
        so an explicit 0 stays 0.  Every integer option is a size or a
        count, so a negative value is refused, and so is a value or default
        above ``limit``; ``why`` ends that message."""
        flag = _flag(key)
        value = self.options.get(key)
        if value is None:
            value = default
        elif value < 0:
            raise InputError(f"{flag} must be >= 0, got {value}")
        if limit is not None and value > limit:
            raise InputError(f"{flag} must be at most {limit}{why}")
        return value


# ---------------------------------------------------------------------------
# structure loading


def load_json(path: str) -> dict:
    """The JSON object in ``path``; every input file holds one object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object")
    return obj


def _spec_int(value, what: str, least: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InputError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _max_factors(height: int) -> int:
    """The most chains of ``height`` elements (at most ``MAX_SPEC_SIZE``)
    whose product has at most ``MAX_SPEC_SIZE`` elements; chains of fewer
    than 2 elements add none, so they are held to ``MAX_POWERSET_POINTS``,
    the count for 2."""
    height = max(height, 2)
    count = 0
    while height ** (count + 1) <= MAX_SPEC_SIZE:
        count += 1
    return count


def _check_spec_size(size: int):
    if size > MAX_SPEC_SIZE:
        raise InputError(f"order spec has more than {MAX_SPEC_SIZE} elements")


def parse_order_spec(obj):
    """An order given as ``{"powerset": n}``, ``{"chains": [...]}`` or the
    generator-pair format ``{"size": n, "pairs": [...]}``.  Specs of more
    than ``MAX_SPEC_SIZE`` elements are refused before anything is built."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise InputError(f"order spec is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("order spec must be an object")
    if "powerset" in obj:
        n = _spec_int(obj["powerset"], "powerset")
        _check_spec_size(1 << min(n, MAX_SPEC_SIZE))
        return builders.powerset_lattice(n)
    if "chains" in obj:
        if not isinstance(obj["chains"], list):
            raise InputError("chains must be a list of chain heights")
        dims = [_spec_int(d, "chain height", 1) for d in obj["chains"]]
        _check_spec_size(math.prod(min(d, MAX_SPEC_SIZE + 1) for d in dims))
        return builders.chain_product(dims).order
    if isinstance(obj.get("size"), int):
        _check_spec_size(obj["size"])
    try:
        return order.order_from_json(obj)
    except order.OrderError as exc:
        raise InputError(str(exc)) from exc


def parse_map_fixture(obj) -> order.MonotoneMap:
    dom = parse_order_spec(obj.get("dom"))
    cod = parse_order_spec(obj.get("cod"))
    image = obj.get("image")
    if not isinstance(image, list):
        raise InputError("malformed map fixture: image must be a list")
    try:
        return order.MonotoneMap(dom, cod, image)
    except order.OrderError as exc:
        raise InputError(f"malformed map fixture: {exc}") from exc


# ---------------------------------------------------------------------------
# verifier registry


class Verifier(order._Value):
    def __init__(self, slug: str, description: str, run: Callable,
                 reads: tuple = ()):
        fields = self.__dict__
        fields["slug"] = slug
        fields["description"] = description
        fields["run"] = run  # (RunConfig) -> report dict with a "holds" bool
        fields["reads"] = reads  # the options run reads; "input" stands for --input

    def _key(self) -> tuple:
        return self.slug, self.description, self.run, self.reads


def _with_witness(report: dict, failures: list) -> dict:
    """Add the first failure as ``witness``, only when there is one, so a
    passing report keeps its bytes."""
    if failures:
        report["witness"] = failures[0]
    return report


def _product_form(cfg: RunConfig, params: dict, dom, cod, formula: Callable,
                  decompose: Callable) -> tuple:
    """The convex-range census ``dom -> cod`` against ``formula()``, and the
    census maps that ``decompose`` finds not of the theorem's form
    (``decompose`` checks its own reconstruction): a report that starts
    with ``params``, and the failures."""
    census = embedding.enumerate_embeddings(
        dom, cod, convex_range=True, budget_nodes=cfg.budget_nodes)
    images = formula()
    failed = []
    for mm in census.maps:
        try:
            decompose(mm)
        except embedding.DecompositionMismatchError as exc:
            failed.append({"image": list(mm.image), "error": str(exc)})
    return {"holds": census.images == images and not failed, **params,
            "census": len(census), "formula_census": len(images)}, failed


def _verify_powerset_form(cfg: RunConfig) -> dict:
    x = cfg.option("x", 2, MAX_POWERSET_POINTS, _SPEC_LIMIT)
    y = cfg.option("y", 3, MAX_POWERSET_POINTS, _SPEC_LIMIT)
    report, failed = _product_form(
        cfg, {"x": x, "y": y},
        builders.powerset_lattice(x), builders.powerset_lattice(y),
        lambda: embedding.powerset_formula_census(x, y),
        embedding.powerset_decompose)
    report["decompositions_ok"] = not failed
    return _with_witness(report, failed)


def _verify_chainprod_form(cfg: RunConfig) -> dict:
    k = cfg.option("k", 2, MAX_SPEC_SIZE, _SPEC_LIMIT)
    m = cfg.option("m", 2, MAX_SPEC_SIZE, _SPEC_LIMIT)
    i = cfg.option("i", 1, _max_factors(k), f" for --k {k}{_SPEC_LIMIT}")
    j = cfg.option("j", 2, _max_factors(m), f" for --m {m}{_SPEC_LIMIT}")
    if k < 2 and i >= 1:
        raise InputError("--k must be at least 2 when --i is at least 1 "
                         "(the theorem takes chains of height 2 or more)")
    dom_cp = builders.chain_product([k] * i)
    cod_cp = builders.chain_product([m] * j)
    report, failed = _product_form(
        cfg, {"shape": {"k": k, "m": m, "i": i, "j": j}},
        dom_cp.order, cod_cp.order,
        lambda: embedding.chainprod_formula_census(dom_cp, cod_cp),
        lambda mm: embedding.chainprod_decompose(mm, dom_cp, cod_cp))
    report["mismatches"] = len(failed)
    return _with_witness(report, failed)


def _verify_preregular_continuity(cfg: RunConfig) -> dict:
    max_size = cfg.option("max_size", 4, MAX_CONTINUITY_SIZE,
                          " for thm-preregular-continuity")
    report = embedding.preregular_continuity_sweep(
        max_size, budget_nodes=cfg.budget_nodes)
    return {"max_size": max_size, **report}


def _verify_convex_preregular(cfg: RunConfig) -> dict:
    max_size = cfg.option("max_size", 5, MAX_CONVEX_PREREGULAR_SIZE)
    violations = []
    lattices = 0
    subsets = 0
    for n in range(1, max_size + 1):
        for lq in builders.enumerate_lattices(n):
            lattices += 1
            subsets += 1 << n
            convex = lattice.convex_subsets(lq)
            good = set(lattice.preregular_masks(lq, convex))
            violations += [{"lattice": order.order_to_json(lq),
                            "subset": list(order.bits(amask))}
                           for amask in convex if amask not in good]
    return {
        "holds": not violations,
        "max_size": max_size,
        "lattices": lattices,
        "subsets": subsets,
        "violations": violations,
    }


def _verify_extension_convexity(cfg: RunConfig) -> dict:
    n = cfg.option("n", 2, MAX_POWERSET_POINTS, _SPEC_LIMIT)
    m = cfg.option("m", n + 1, MAX_EXTENSION_CODOMAIN,
                   " for thm-extension-convexity")
    L = builders.powerset_lattice(n)
    M = builders.powerset_lattice(m)
    basis = [0] + [1 << i for i in range(n)]
    census = embedding.enumerate_embeddings(
        L, M, convex_range=True, budget_nodes=cfg.budget_nodes)
    try:
        embedding.check_transfer_setting(L, basis, M.full_mask, M)
        setting = None
    except embedding.HypothesisFailed as exc:
        setting = exc  # no census map changes the setting, so each fails it
    failures = []
    for image in census.images:
        try:
            if setting is not None:
                raise setting
            rep = embedding.verify_transfer_map(
                L, basis, M.full_mask, M, {b: image[b] for b in basis})
        except embedding.HypothesisFailed as exc:
            # a census map that fails a hypothesis is a counterexample
            rep = {"holds": False, "hypothesis": exc.hypothesis,
                   "error": str(exc)}
        if not rep["holds"] or tuple(rep["extension"]) != image:
            failures.append({"image": list(image), "report": rep})
    report = {
        "holds": not failures,
        "n": n,
        "m": m,
        "embeddings": len(census),
        "failures": failures,
    }
    return _with_witness(report, failures)


def _verify_cat_ro_iso(cfg: RunConfig) -> dict:
    points = cfg.option("points", 3)
    tops = topology.enumerate_topologies(points)
    failures = []
    for t in tops:
        try:
            topology.category_algebra(t)
        except topology.TopologyError as exc:
            failures.append({"error": str(exc), "opens": topology.topology_to_json(t)})
    return {
        "holds": not failures,
        "points": points,
        "topologies": len(tops),
        "failures": failures,
    }


def _verify_atom_image(cfg: RunConfig) -> dict:
    x = cfg.option("x", 2, MAX_POWERSET_POINTS, _SPEC_LIMIT)
    y = cfg.option("y", 3, MAX_POWERSET_POINTS, _SPEC_LIMIT)
    dom = builders.powerset_lattice(x)
    cod = builders.powerset_lattice(y)
    census = embedding.enumerate_embeddings(dom, cod,
                                            budget_nodes=cfg.budget_nodes)
    # embedding.atom_image_check per map: domain atoms once, relative atoms
    # once per range; an embedding is injective, so sums of bits are ORs
    dom_atoms = tuple(order.bits(order.atoms(dom).mask))
    range_atoms = {}
    bad = []
    for image in census.images:
        rmask = sum(1 << v for v in image)
        want = range_atoms.get(rmask)
        if want is None:
            want = range_atoms[rmask] = embedding.relative_atoms(cod, rmask).mask
        if sum(1 << image[a] for a in dom_atoms) != want:
            bad.append(list(image))
    return {
        "holds": not bad,
        "x": x,
        "y": y,
        "embeddings": len(census),
        "violations": bad,
    }


def _monoid_laws(cfg: RunConfig, law: Callable) -> dict:
    """``law`` (a monoid -> ``{key: report}``) on the table in ``--input``,
    else on ``N``, whose grid decides ``N^I``, in the report format that
    ``bench/expected.json`` pins: ``"sampling": null`` on a table, else
    ``checked = --samples`` and ``"sampling": {seed, instance_count}``."""
    if cfg.inputs:
        reports = law(monoid.monoid_from_json(cfg.input_json()))
        sampling = None
    else:
        samples = cfg.option("samples", 1000, MAX_SAMPLES)
        if samples == 0:
            raise InputError("--samples must be positive")
        sampling = {"seed": cfg.option("seed", 0), "instance_count": samples}
        reports = law(monoid.VectorMonoid(1))
    for report in reports.values():
        if sampling is not None:
            report["checked"] = samples
        report["sampling"] = sampling
    return reports


def _verify_monoid_distributivity(cfg: RunConfig) -> dict:
    reports = _monoid_laws(cfg, monoid.check_distributive_laws)
    return {
        "holds": all(r["holds"] for r in reports.values()),
        "modes": reports,
    }


def _verify_disjoint_sum(cfg: RunConfig) -> dict:
    rep = _monoid_laws(cfg, lambda m: {
        "report": monoid.check_disjoint_sum_laws(m)})["report"]
    return {"holds": rep["holds"], "report": rep}


def _verify_group_completion(cfg: RunConfig) -> dict:
    if cfg.inputs:
        mon = monoid.monoid_from_json(cfg.input_json())
        try:
            gc = monoid.group_completion(mon)
        except monoid.NotCancellativeError:
            return {"holds": True, "cancellative": False, "rejected": True}
        return {
            "holds": True,
            "cancellative": True,
            "classes": gc.group.size,
            "embedding_injective": len(set(gc.embedding)) == mon.size,
        }
    max_size = cfg.option("max_size", 4, MAX_MONOID_SIZE,
                          " for lem-group-completion")
    checked = rejected = 0
    failures = []
    for n in range(1, max_size + 1):
        for mon_ in monoid.enumerate_commutative_monoids(n):
            if not mon_.is_cancellative:
                rejected += 1
                continue
            checked += 1
            gc = monoid.group_completion(mon_)
            if (len(gc.group.invertibles) != gc.group.size
                    or len(set(gc.embedding)) != mon_.size):
                failures.append(monoid.monoid_to_json(mon_))
    return {
        "holds": not failures,
        "max_size": max_size,
        "cancellative_checked": checked,
        "noncancellative_skipped": rejected,
        "failures": failures,
    }


def _search_convex_not_preregular(cfg: RunConfig) -> dict:
    max_size = cfg.option("max_size", 5, builders.MAX_ENUMERATION_SIZE)
    for n in range(1, max_size + 1):
        for q in builders.enumerate_posets(n):
            if lattice.is_lattice(q):
                continue
            convex = lattice.convex_subsets(q)
            good = set(lattice.preregular_masks(q, convex))
            for amask in convex:
                if amask not in good:
                    return {
                        "holds": True,
                        "found": True,
                        "poset": order.order_to_json(q),
                        "subset": list(order.bits(amask)),
                    }
    return {"holds": True, "found": False, "max_size": max_size}


def _search_open_meager(cfg: RunConfig) -> dict:
    points = cfg.option("points", 3)
    for t in topology.enumerate_topologies(points):
        u = topology.largest_open_meager(t)
        if u:
            return {"holds": True, "found": True,
                    "topology": topology.topology_to_json(t),
                    "largest_open_meager": sorted(order.bits(u))}
    return {"holds": True, "found": False, "points": points,
            "note": "every topology on this many points is a Baire space"}


def _sweep_baire(cfg: RunConfig) -> dict:
    points = cfg.option("points", 3)
    tops = topology.enumerate_topologies(points)
    baire = [topology.is_baire(t) for t in tops]
    mismatches = [
        topology.topology_to_json(t) for t, b in zip(tops, baire)
        if b != (topology.largest_open_meager(t) == 0)
    ]
    return {
        "holds": not mismatches,
        "points": points,
        "topologies": len(tops),
        "all_baire": all(baire),
        "mismatches": mismatches,
    }


def _registry(*verifiers) -> dict:
    return {v.slug: v for v in verifiers}


VERIFIERS = _registry(
    Verifier("thm-powerset-form",
             "convex-range power-set embeddings are exactly the maps a -> h[a] | b",
             _verify_powerset_form, ("x", "y", "budget_nodes")),
    Verifier("thm-chainprod-form",
             "convex-range chain-product embeddings are shifted partial projections",
             _verify_chainprod_form, ("k", "m", "i", "j", "budget_nodes")),
    Verifier("thm-preregular-continuity",
             "embeddings with preregular range preserve nonempty sups and infs",
             _verify_preregular_continuity, ("max_size", "budget_nodes")),
    Verifier("lem-convex-preregular",
             "convex subsets of lattices are preregular",
             _verify_convex_preregular, ("max_size",)),
    Verifier("thm-extension-convexity",
             "basis extensions are unique and keep a convex range",
             _verify_extension_convexity, ("n", "m", "budget_nodes")),
    Verifier("prop-cat-ro-iso",
             "category algebra is isomorphic to the residual regular open algebra",
             _verify_cat_ro_iso, ("points",)),
    Verifier("cor-atom-image",
             "embeddings map atoms onto the relative atoms of their range",
             _verify_atom_image, ("x", "y", "budget_nodes")),
    Verifier("law-monoid-distributivity",
             "addition distributes over joins and meets of the associated order",
             _verify_monoid_distributivity,
             ("input", "samples", "seed")),
    Verifier("law-disjoint-sum",
             "disjoint elements add to their join and sums stay disjoint",
             _verify_disjoint_sum, ("input", "samples", "seed")),
    Verifier("lem-group-completion",
             "cancellative commutative monoids embed into their pair-class group",
             _verify_group_completion, ("input", "max_size")),
)

ALIASES = {
    "powerset-characterization": "thm-powerset-form",
    "chainprod-characterization": "thm-chainprod-form",
}

SEARCHES = _registry(
    Verifier("convex-not-preregular",
             "hunt a non-lattice poset with a convex non-preregular subset",
             _search_convex_not_preregular, ("max_size",)),
    Verifier("open-meager",
             "hunt a topology with a nonempty largest open meager set",
             _search_open_meager, ("points",)),
)

SWEEPS = _registry(
    Verifier("cat-ro-iso",
             "category algebra vs regular open algebra over every topology",
             _verify_cat_ro_iso, ("points",)),
    Verifier("baire",
             "Baire verdict agrees with emptiness of the largest open meager set",
             _sweep_baire, ("points",)),
    Verifier("convex-preregular",
             "convex implies preregular over every lattice up to a size bound",
             _verify_convex_preregular, ("max_size",)),
)


# ---------------------------------------------------------------------------
# check command


def _check_convexity(cfg: RunConfig) -> dict:
    mm = parse_map_fixture(cfg.input_json())
    witness = lattice.convexity_witness(mm.cod, mm.range_mask)
    if witness is None:
        return {"holds": True, "witness": None}
    missing = witness["missing"]
    if builders.is_powerset_order(mm.cod):
        # report codomain elements as subsets of the ground set
        return {
            "holds": False,
            "witness": sorted(order.bits(missing)),
            "between": [sorted(order.bits(witness["p"])),
                        sorted(order.bits(witness["q"]))],
        }
    return {
        "holds": False,
        "witness": missing,
        "between": [witness["p"], witness["q"]],
    }


def _check_embedding(cfg: RunConfig) -> dict:
    mm = parse_map_fixture(cfg.input_json())
    if mm.is_embedding:
        return {"holds": True, "witness": None}
    # the first pair [p, q], p then q ascending, that the map does not reflect
    up, img = mm.cod.up_masks, mm.image
    witness = next([p, q] for p in range(len(img)) for q in range(len(img))
                   if up[img[p]] >> img[q] & 1 and not mm.dom.le(p, q))
    return {"holds": False, "witness": witness}


def _check_preregular(cfg: RunConfig) -> dict:
    obj = cfg.input_json()
    q = parse_order_spec(obj.get("order"))
    subset = order.subset_from_json(q, obj.get("subset", []))
    report = lattice.subset_report(q, subset.mask)
    holds = report["preregular_up"]["holds"] and report["preregular_down"]["holds"]
    return {"holds": holds, "report": report}


def _check_classify(cfg: RunConfig) -> dict:
    q = parse_order_spec(cfg.input_json())
    return {"holds": True, "classification": lattice.classify(q)}


def _check_distributive(cfg: RunConfig) -> dict:
    q = parse_order_spec(cfg.input_json())
    witness = lattice.distributivity_witness(lattice.lattice_view(q))
    return {"holds": witness is None, "witness": witness}


CHECKS = _registry(*(
    Verifier(slug, f"check a structure for {slug}", run, ("input",))
    for slug, run in (("convexity", _check_convexity),
                      ("embedding", _check_embedding),
                      ("preregular", _check_preregular),
                      ("classify", _check_classify),
                      ("distributive", _check_distributive))))

TABLES = {"verify": VERIFIERS, "search": SEARCHES, "sweep": SWEEPS,
          "check": CHECKS}


# ---------------------------------------------------------------------------
# output and dispatch


def emit_report(cfg: RunConfig, report: dict, stream=None):
    stream = stream or sys.stdout
    if cfg.output_format == "json":
        doc = {"command": cfg.command, "name": cfg.name,
               "seed": cfg.options.get("seed", 0), "report": report}
        stream.write(json.dumps(doc, sort_keys=True) + "\n")
        return
    stream.write(cfg.label + "\n")
    for key, value in report.items():
        stream.write(f"  {key}: {value}\n")


def _registry_listing() -> list:
    return [{"command": command, "slug": slug,
             "description": table[slug].description}
            for command, table in TABLES.items() for slug in sorted(table)]


def build_parser() -> argparse.ArgumentParser:
    """One flat parser of every option, in any order around the command
    and its name; which options a command reads is
    :meth:`RunConfig.refuse_unread`'s decision alone."""
    parser = argparse.ArgumentParser(
        prog="latkit",
        description="checkers, censuses, and theorem verifiers for finite "
                    "order structures")
    parser.add_argument("command", nargs="?", choices=(*TABLES, "enumerate"))
    parser.add_argument("name", nargs="?", help="the verifier (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list registered verifiers and exit")
    parser.add_argument("--format", choices=("table", "json"))
    for key in (*INT_OPTIONS, *GLOBAL_OPTIONS):
        parser.add_argument(_flag(key), type=int)
    parser.add_argument("--input", action="append", default=[],
                        help="path to a JSON structure or fixture")
    parser.add_argument("--dom", help="order spec (inline JSON)")
    parser.add_argument("--cod", help="order spec (inline JSON)")
    for name in CENSUS_FILTERS:
        parser.add_argument(_flag(name), action="store_true", default=None)
    return parser


def _run_enumerate(cfg: RunConfig) -> int:
    if cfg.name is not None:
        raise InputError(f"enumerate takes no name, got {cfg.name!r}")
    cfg.refuse_unread(ENUMERATE_READS)
    if cfg.inputs:
        obj = cfg.input_json()
        dom = parse_order_spec(obj.get("dom"))
        cod = parse_order_spec(obj.get("cod"))
        filters = obj.get("filters", {})
        if not isinstance(filters, dict) or not all(
                name in CENSUS_FILTERS and isinstance(on, bool)
                for name, on in filters.items()):
            raise InputError("census filters must be an object mapping "
                             f"{', '.join(CENSUS_FILTERS)} to true or false")
    else:
        if not cfg.options.get("dom") or not cfg.options.get("cod"):
            raise InputError("enumerate needs --dom and --cod or --input")
        dom = parse_order_spec(cfg.options["dom"])
        cod = parse_order_spec(cfg.options["cod"])
        filters = {name: True for name in CENSUS_FILTERS if name in cfg.options}
    census = embedding.enumerate_embeddings(
        dom, cod, **filters, budget_nodes=cfg.budget_nodes)
    for line in embedding.census_to_json_lines(census):
        sys.stdout.write(line + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command.  A reader that closes stdout early (``| head``)
    ends the run with ``EXIT_PIPE``, as the shell reports a process that
    SIGPIPE stopped, and without a traceback."""
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the output left in the buffer has no reader: discard it at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_intermixed_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    if args.list:
        if args.format == "json":
            sys.stdout.write(json.dumps({"verifiers": _registry_listing()},
                                        sort_keys=True) + "\n")
        else:
            for row in _registry_listing():
                sys.stdout.write(
                    f"{row['command']:9s} {row['slug']:28s} {row['description']}\n")
        return EXIT_OK

    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        cfg = RunConfig(
            command=args.command,
            name=args.name,
            inputs=tuple(args.input),
            output_format=args.format or "table",
            options={key: value for key in OPTIONS
                     if (value := getattr(args, key)) is not None},
        )
        if args.command == "enumerate":
            return _run_enumerate(cfg)
        if cfg.name is None:
            raise InputError(f"{cfg.command} needs a verifier name (see --list)")
        runner = TABLES[args.command].get(ALIASES.get(cfg.name, cfg.name))
        if runner is None:
            raise InputError(f"unknown verifier {cfg.name!r}")
        cfg.refuse_unread(runner.reads)
        report = runner.run(cfg)
        emit_report(cfg, report)
    except embedding.BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except ValueError as exc:  # the base of every input and order error
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except BrokenPipeError:
        raise  # not a bug: main handles a closed stdout
    except Exception:
        sys.stderr.write("internal error\n")
        # the interpreter's own printer writes the traceback text that
        # traceback.format_exc() gives, and start-up need not import it
        sys.__excepthook__(*sys.exc_info())
        return EXIT_INTERNAL

    return EXIT_OK if report.get("holds", False) else EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
