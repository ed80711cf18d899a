"""Command-line front end.

Loads structures from JSON, runs property checks, censuses, searches, and
theorem verifiers, and emits deterministic reports.  It is the one reader
and writer of JSON: the library takes and returns values.

Exit codes: 0 all checks passed; 1 a property or theorem violation was
found (the report carries a witness); 2 malformed input or usage error;
3 a search budget was exceeded; 4 an internal error (a bug, reported with
its traceback); 141 the reader closed stdout before the output ended.
Given the same configuration and seed, JSON reports are byte-identical.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import select
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
# one walk over the subsets of each poset, and one count of relabelings per
# distinct preregular range: on 2 CPUs about 0.28 s at size 6 (134,702 pairs)
# in a fresh process and 0.8 s at size 7 (5,144,952 pairs) in-process;
# raising the limit waits for a run-wide budget
MAX_CONTINUITY_SIZE = 6
# one preregularity walk over the convex subsets of each lattice; lattices of
# n elements are built from the posets of n - 2, so size 9 needs only the
# posets of 7: 1,078 lattices with 144,904 convex subsets, about 1.0 s in a
# fresh process (median of 11; 2-vCPU Intel Xeon VM, Python 3.11), while
# size 10 needs the 16,999 posets of 8, which take about 4 s to enumerate
MAX_CONVEX_PREREGULAR_SIZE = 9
# the setting is checked once, the convex-range census of P(n) -> P(m) is a
# search of the intervals of P(m), and each census map's extension is one
# candidate, so the per-map check is the cost: --m 6 takes about 0.3/0.5/0.5 s
# at --n 4/5/6 (1,440/1,440/720 maps; fresh process, median of 5, 2-vCPU
# Intel Xeon VM, Python 3.11), and 6 is the largest power set a spec may name
MAX_EXTENSION_CODOMAIN = 6
# cor-atom-image folds the unfiltered census P(x) -> P(y) in flat memory:
# --x 3 --y 6 (761,460 maps, 1,881,553 nodes) takes about 6 s and 40 MB in
# a fresh process on 2 CPUs, but P(4), P(5) and P(6) -> P(6) each pass
# 3,000,000 nodes and keep going, so --y 6 takes --x of at most 3
MAX_ATOM_IMAGE_DOMAIN = 3
# rows of a monoid table read from JSON; the exhaustive laws take about n^3
# steps, each bound one up_index lookup: on the truncated chain (in-process,
# 2-vCPU VM), law-monoid-distributivity takes 0.13 s at 32 rows, 0.7 s at 64
# and 7 s at 128, and law-disjoint-sum 0.03, 0.24 and 2.2 s; a fresh `verify`
# of either at 64 rows takes at most about 1 s
MAX_TABLE_ROWS = 64
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


# refused input, exit 2; any other exception, a builtin ValueError too, is a bug
_INPUT_ERRORS = (InputError, order.OrderError, monoid.MonoidError,
                 topology.TopologyError)


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
            raise InputError(f"{self.label} needs --input")
        path = self.inputs[0]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        obj = _decode(text, f"cannot read {path}")
        if not isinstance(obj, dict):
            raise InputError(f"{path} must hold a JSON object")
        return obj

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
# JSON wire format: the readers of input and the writers of reports


def _unique_keys(pairs: list) -> dict:
    """The object of ``pairs``; a repeated key would replace a value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"JSON object repeats the key {key!r}")
        obj[key] = value
    return obj


def _decode(text: str, why: str):
    """The JSON value in ``text``.  Text that is not JSON, or nests deeper
    than the decoder's recursion allows, is refused with ``why`` first."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{why}: {exc}") from exc


def _refuse_unread_keys(obj: dict, reads: tuple, what: str):
    """Refuse, naming them, the keys of the JSON object ``obj`` that its
    reader ``what`` does not read; readers call it after their own checks."""
    unread = [key for key in obj if key not in reads]
    if unread:
        raise InputError(f"{what} does not read " + ", ".join(map(repr, unread)))


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
    """An order given as exactly one of ``{"powerset": n}``, ``{"chains":
    [...]}`` or the generator-pair format ``{"size": n, "pairs": [...]}``;
    a key the spec does not read is refused.  Specs of more than
    ``MAX_SPEC_SIZE`` elements are refused before anything is built."""
    if isinstance(obj, str):
        obj = _decode(obj, "order spec is not JSON")
    if not isinstance(obj, dict):
        raise InputError("order spec must be an object")
    if "powerset" in obj:
        n = order._count(obj["powerset"], "powerset", error=InputError)
        _check_spec_size(1 << min(n, MAX_SPEC_SIZE))
        _refuse_unread_keys(obj, ("powerset",), "order spec")
        return builders.powerset_lattice(n)
    if "chains" in obj:
        if not isinstance(obj["chains"], list):
            raise InputError("chains must be a list of chain heights")
        dims = [order._count(d, "chain height", 1, InputError)
                for d in obj["chains"]]
        _check_spec_size(math.prod(min(d, MAX_SPEC_SIZE + 1) for d in dims))
        _refuse_unread_keys(obj, ("chains",), "order spec")
        return builders.chain_product(dims)
    if "size" not in obj:
        raise InputError("malformed order object: need an object with a size")
    size = order._count(obj["size"], "order size", error=InputError)
    _check_spec_size(size)
    pairs = obj.get("pairs", [])
    if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and all(order._is_index(v, size) for v in pair) for pair in pairs):
        raise InputError(f"order pairs must be [a, b] lists of integers "
                         f"in range({size})")
    _refuse_unread_keys(obj, ("size", "pairs"), "order object")
    return order.build_quasi_order(size, pairs)


def parse_map_fixture(obj) -> order.MonotoneMap:
    dom = parse_order_spec(obj.get("dom"))
    cod = parse_order_spec(obj.get("cod"))
    image = obj.get("image")
    if not isinstance(image, list):
        raise InputError("malformed map fixture: image must be a list")
    try:
        mm = order.MonotoneMap(dom, cod, image)
    except order.OrderError as exc:
        raise InputError(f"malformed map fixture: {exc}") from exc
    _refuse_unread_keys(obj, ("dom", "cod", "image"), "map fixture")
    return mm


def _read_subset(q: order.QuasiOrder, arr) -> int:
    """A list of element indices, each an integer in ``q``'s carrier, as the
    mask of those elements."""
    if not isinstance(arr, list) or not all(order._is_index(i, q.size) for i in arr):
        raise InputError(f"subset must be a list of integers in range({q.size})")
    return sum(1 << i for i in set(arr))


def _read_monoid(obj) -> monoid.FiniteMonoid:
    """Read ``{"table": [[...], ...], "identity": e}``; the table must be
    a square list of at most ``MAX_TABLE_ROWS`` rows of integers in
    ``range(size)``.  An optional ``size`` must equal the number of rows,
    and any other key is refused."""
    if not isinstance(obj, dict) or "table" not in obj or "identity" not in obj:
        raise InputError("malformed monoid object: need a table and an identity")
    table = obj["table"]
    if isinstance(table, list) and len(table) > MAX_TABLE_ROWS:
        raise InputError(f"a monoid table has at most {MAX_TABLE_ROWS} rows, "
                         f"got {len(table)}")
    mon = monoid.FiniteMonoid(table, obj["identity"])
    size = order._count(obj.get("size", mon.size), "monoid size", error=InputError)
    if size != mon.size:
        raise InputError(f"monoid size {size} is not the table's {mon.size} rows")
    _refuse_unread_keys(obj, ("size", "table", "identity"), "monoid")
    return mon


def _order_to_json(q: order.QuasiOrder) -> dict:
    """``{"size": n, "pairs": [[a, b], ...]}`` with all strict related pairs."""
    return {"size": q.size, "pairs": [[p, r] for p in range(q.size)
                                      for r in order.bits(q.up_masks[p]) if p != r]}


def _topology_to_json(q: order.QuasiOrder) -> dict:
    """The space ``q`` with every open set (up-set), in ascending mask order."""
    return {"points": q.size,
            "opens": [sorted(order.bits(o)) for o in order.upper_sets(q)]}


def _census_lines(census):
    """Yield one JSON document per ``(image, flags)`` pair, keys sorted.
    The maps share a few flags dicts, so the text up to the image is built
    once per dict; an image is a list of ints, whose repr is its JSON array."""
    heads = {}  # id of a flags dict -> the line's text up to the image
    for image, f in census:
        head = heads.get(id(f))
        if head is None:
            head = heads[id(f)] = f'{{"flags": {json.dumps(f, sort_keys=True)}, "image": '
        yield f"{head}{list(image)!r}}}"


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


def _product_form(cfg: RunConfig, params: dict, dom, cod) -> tuple:
    """The convex-range census ``dom -> cod`` against the Birkhoff formula
    census, and the census maps that ``birkhoff_decompose`` finds not of
    the theorem's form (it checks its own reconstruction): a report that
    starts with ``params``, and the failures.  Both censuses get the node
    budget, and both are sorted, so they are compared place by place."""
    images = embedding.birkhoff_formula_census(
        dom, cod, budget_nodes=cfg.budget_nodes)
    failed = []
    census = matched = 0
    for census, (image, f) in enumerate(embedding.enumerate_embeddings(
            dom, cod, convex_range=True, budget_nodes=cfg.budget_nodes), 1):
        matched += census <= len(images) and images[census - 1] == image
        try:
            embedding.birkhoff_decompose(order._unchecked(
                order.MonotoneMap, dom=dom, cod=cod, image=image,
                is_embedding=True, has_convex_range=f["convex_range"]))
        except embedding.DecompositionMismatchError as exc:
            failed.append({"image": list(image), "error": str(exc)})
    return {"holds": matched == census == len(images) and not failed, **params,
            "census": census, "formula_census": len(images)}, failed


def _verify_powerset_form(cfg: RunConfig) -> dict:
    x = cfg.option("x", 2, MAX_POWERSET_POINTS, _SPEC_LIMIT)
    y = cfg.option("y", 3, MAX_POWERSET_POINTS, _SPEC_LIMIT)
    report, failed = _product_form(
        cfg, {"x": x, "y": y},
        builders.powerset_lattice(x), builders.powerset_lattice(y))
    report["decompositions_ok"] = not failed
    return _with_witness(report, failed)


def _verify_chainprod_form(cfg: RunConfig) -> dict:
    k = cfg.option("k", 2, MAX_SPEC_SIZE, _SPEC_LIMIT)
    m = cfg.option("m", 2, MAX_SPEC_SIZE, _SPEC_LIMIT)
    i = cfg.option("i", 1, _max_factors(k), f" for --k {k}{_SPEC_LIMIT}")
    j = cfg.option("j", 2, _max_factors(m), f" for --m {m}{_SPEC_LIMIT}")
    for height, count, h, c in ((k, i, "k", "i"), (m, j, "m", "j")):
        if height == 0 < count:
            raise InputError(f"--{h} must be at least 1 when --{c} is at least 1")
    report, failed = _product_form(
        cfg, {"shape": {"k": k, "m": m, "i": i, "j": j}},
        builders.chain_product([k] * i), builders.chain_product([m] * j))
    report["mismatches"] = len(failed)
    return _with_witness(report, failed)


def _verify_preregular_continuity(cfg: RunConfig) -> dict:
    max_size = cfg.option("max_size", 4, MAX_CONTINUITY_SIZE,
                          " for thm-preregular-continuity")
    return {"max_size": max_size, **embedding.preregular_continuity_sweep(max_size)}


def _convex_not_preregular(q: order.QuasiOrder) -> list:
    """The convex subsets of ``q`` that are not preregular, ascending."""
    convex = lattice.convex_subsets(q)
    good = set(lattice.preregular_masks(q, convex))
    return [amask for amask in convex if amask not in good]


def _verify_convex_preregular(cfg: RunConfig) -> dict:
    max_size = cfg.option("max_size", 5, MAX_CONVEX_PREREGULAR_SIZE)
    violations = []
    lattices = 0
    subsets = 0
    for n in range(1, max_size + 1):
        for lq in builders.enumerate_lattices(n):
            lattices += 1
            subsets += 1 << n
            violations += [{"lattice": _order_to_json(lq),
                            "subset": list(order.bits(amask))}
                           for amask in _convex_not_preregular(lq)]
    return {
        "holds": not violations,
        "max_size": max_size,
        "lattices": lattices,
        "subsets": subsets,
        "violations": violations,
    }


def _hypothesis_report(check, *args):
    """``check(*args)``, or the report of the hypothesis it fails: a census
    map that fails a hypothesis is a counterexample."""
    try:
        return check(*args)
    except embedding.HypothesisFailed as exc:
        return {"holds": False, "hypothesis": exc.hypothesis, "error": str(exc)}


def _verify_extension_convexity(cfg: RunConfig) -> dict:
    n = cfg.option("n", 2, MAX_POWERSET_POINTS, _SPEC_LIMIT)
    m = cfg.option("m", n + 1, MAX_EXTENSION_CODOMAIN,
                   " for thm-extension-convexity")
    L = builders.powerset_lattice(n)
    M = builders.powerset_lattice(m)
    basis = [0] + [1 << i for i in range(n)]  # the bottom and the singletons
    bmask = sum(1 << b for b in basis)
    # None, or one report for every census map: no map changes the setting
    setting = _hypothesis_report(embedding.check_transfer_setting,
                                 L, bmask, M.full_mask, M)
    failures = []
    embeddings = 0
    for embeddings, (image, _) in enumerate(embedding.enumerate_embeddings(
            L, M, convex_range=True, budget_nodes=cfg.budget_nodes), 1):
        rep = setting or _hypothesis_report(
            embedding.verify_transfer_map, L, bmask, M.full_mask, M,
            {b: image[b] for b in basis})
        if not rep["holds"] or tuple(rep["extension"]) != image:
            failures.append({"image": list(image), "report": rep})
    report = {
        "holds": not failures,
        "n": n,
        "m": m,
        "embeddings": embeddings,
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
            failures.append({"error": str(exc), "opens": _topology_to_json(t)})
    return {
        "holds": not failures,
        "points": points,
        "topologies": len(tops),
        "failures": failures,
    }


def _verify_atom_image(cfg: RunConfig) -> dict:
    x = cfg.option("x", 2, MAX_POWERSET_POINTS, _SPEC_LIMIT)
    y = cfg.option("y", 3, MAX_POWERSET_POINTS, _SPEC_LIMIT)
    if y == MAX_POWERSET_POINTS and x > MAX_ATOM_IMAGE_DOMAIN:
        raise InputError(f"--x must be at most {MAX_ATOM_IMAGE_DOMAIN} "
                         f"for cor-atom-image --y {y}")
    dom = builders.powerset_lattice(x)
    cod = builders.powerset_lattice(y)
    # embedding.atom_image_check per map: domain atoms once, the atoms of
    # the range once per range; an embedding is injective, so sums of bits
    # are ORs
    dom_atoms = tuple(order.bits(order.atoms(dom)))
    range_atoms = {}
    bad = []
    embeddings = 0
    for embeddings, (image, _) in enumerate(embedding.enumerate_embeddings(
            dom, cod, budget_nodes=cfg.budget_nodes), 1):
        rmask = sum(1 << v for v in image)
        want = range_atoms.get(rmask)
        if want is None:
            want = range_atoms[rmask] = order.atoms(cod, rmask)
        if sum(1 << image[a] for a in dom_atoms) != want:
            bad.append(list(image))
    return {
        "holds": not bad,
        "x": x,
        "y": y,
        "embeddings": embeddings,
        "violations": bad,
    }


def _monoid_laws(cfg: RunConfig, law: Callable) -> dict:
    """``law`` (a monoid -> ``{key: report}``) on the table in ``--input``,
    else on ``N``, whose grid decides ``N^I``, in the report format that
    ``bench/expected.json`` pins: ``"sampling": null`` on a table, else
    ``checked = --samples`` and ``"sampling": {seed, instance_count}``."""
    if cfg.inputs:
        reports = law(_read_monoid(cfg.input_json()))
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
        mon = _read_monoid(cfg.input_json())
        try:
            group = monoid.group_completion(mon)
        except monoid.NotCancellativeError:
            return {"holds": True, "cancellative": False, "rejected": True}
        # the completion is the table itself, embedded by the identity
        return {
            "holds": True,
            "cancellative": True,
            "classes": group.size,
            "embedding_injective": True,
        }
    max_size = cfg.option("max_size", 4, MAX_MONOID_SIZE,
                          " for lem-group-completion")
    checked = rejected = 0
    for n in range(1, max_size + 1):
        for mon_ in monoid.enumerate_commutative_monoids(n):
            if not mon_.is_cancellative:
                rejected += 1
                continue
            checked += 1
            # raises RuntimeError, an internal error, unless mon_ is a group
            monoid.group_completion(mon_)
    return {
        "holds": True,
        "max_size": max_size,
        "cancellative_checked": checked,
        "noncancellative_skipped": rejected,
        "failures": [],
    }


def _search_convex_not_preregular(cfg: RunConfig) -> dict:
    max_size = cfg.option("max_size", 5, builders.MAX_ENUMERATION_SIZE)
    for n in range(1, max_size + 1):
        for q in builders.enumerate_posets(n):
            if lattice.is_lattice(q):
                continue
            bad = _convex_not_preregular(q)
            if bad:
                return {"holds": True, "found": True, "poset": _order_to_json(q),
                        "subset": list(order.bits(bad[0]))}
    return {"holds": True, "found": False, "max_size": max_size}


def _search_open_meager(cfg: RunConfig) -> dict:
    points = cfg.option("points", 3)
    for t in topology.enumerate_topologies(points):
        u = topology.largest_open_meager(t)
        if u:
            return {"holds": True, "found": True,
                    "topology": _topology_to_json(t),
                    "largest_open_meager": sorted(order.bits(u))}
    return {"holds": True, "found": False, "points": points,
            "note": "every topology on this many points is a Baire space"}


def _sweep_baire(cfg: RunConfig) -> dict:
    points = cfg.option("points", 3)
    tops = topology.enumerate_topologies(points)
    baire = [topology.is_baire(t) for t in tops]
    mismatches = [
        _topology_to_json(t) for t, b in zip(tops, baire)
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
             _verify_preregular_continuity, ("max_size",)),
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
    subset = _read_subset(q, obj.get("subset", []))
    _refuse_unread_keys(obj, ("order", "subset"), "check preregular")
    report = lattice.subset_report(q, subset)
    holds = report["preregular_up"]["holds"] and report["preregular_down"]["holds"]
    return {"holds": holds, "report": report}


def _check_classify(cfg: RunConfig) -> dict:
    q = parse_order_spec(cfg.input_json())
    return {"holds": True, "classification": lattice.classify(q)}


def _check_distributive(cfg: RunConfig) -> dict:
    q = parse_order_spec(cfg.input_json())
    witness = lattice.distributivity_witness(q)
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


def _emit(lines):
    """Write ``lines`` to stdout, each ended by a newline, in blocks of at
    most ``select.PIPE_BUF`` bytes (a longer line alone): a pipe takes such a
    write whole or fails it with EPIPE, while a longer one comes back short
    when the reader leaves, a count that an unbuffered text stream ignores."""
    block, size = [], 0
    for line in lines:
        line += "\n"
        n = len(line.encode())
        if block and size + n > select.PIPE_BUF:
            sys.stdout.write("".join(block))
            block, size = [], 0
        block.append(line)
        size += n
    if block:
        sys.stdout.write("".join(block))


def emit_report(cfg: RunConfig, report: dict):
    if cfg.output_format == "json":
        doc = {"command": cfg.command, "name": cfg.name,
               "seed": cfg.options.get("seed", 0), "report": report}
        _emit([json.dumps(doc, sort_keys=True)])
    else:
        _emit([cfg.label, *(f"  {key}: {value}" for key, value in report.items())])


def _registry_listing() -> list:
    return [{"command": command, "slug": slug,
             "description": table[slug].description}
            for command, table in TABLES.items() for slug in sorted(table)]


_FORMATS = ("table", "json")
# the flag table of _parse_argv, in the order an ambiguous prefix names
# them: each flag's key and what it takes, None for nothing, int or str for
# one value, list for one value appended to the key's list, and _FORMATS
# for one of its values
_FLAGS = {
    "-h": ("help", None),
    "--help": ("help", None),
    "--list": ("list", None),
    "--format": ("format", _FORMATS),
    **{_flag(key): (key, int) for key in (*INT_OPTIONS, *GLOBAL_OPTIONS)},
    "--input": ("input", list),
    "--dom": ("dom", str),
    "--cod": ("cod", str),
    **{_flag(key): (key, None) for key in CENSUS_FILTERS},
}
_METAVARS = {None: "", int: " N", str: " SPEC", list: " FILE",
             _FORMATS: " {table,json}"}
_COMMANDS = (*TABLES, "enumerate")
_USAGE = ("usage: latkit [-h] [--list] [--format {table,json}] [OPTION ...] "
          f"[{{{','.join(_COMMANDS)}}} [NAME]]")
# the strings int() takes: surrounding whitespace, a sign, and digits with
# single underscores between them
_INT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")
# a token that starts with "-" but is a value, matched from its start as
# argparse matches it
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _int_value(flag: str, text: str) -> int:
    """``int(text)``, refused with an ``InputError`` where ``int`` would
    raise: not the form of an integer, or more digits than
    ``sys.get_int_max_str_digits()`` allows (0 is no limit)."""
    limit = sys.get_int_max_str_digits()
    if not _INT.fullmatch(text) or 0 < limit < sum(map(str.isdecimal, text)):
        raise InputError(f"argument {flag}: invalid int value: {text!r}")
    return int(text)


def _option_token(token: str):
    """``(flag, value)`` for a token that names an option, where ``flag`` is
    ``None`` for an unknown option and ``value`` is the text after ``=``,
    or after ``-h``, else ``None``; ``None`` for a value or a positional.
    A long option may be any prefix that names one flag of ``_FLAGS``."""
    if token in _FLAGS:
        return token, None
    if len(token) < 2 or token[0] != "-":
        return None
    name, eq, value = token.partition("=")
    if eq and name in _FLAGS:
        return name, value
    if token[1] == "-":
        hits = [flag for flag in _FLAGS if flag.startswith(name)]
        if len(hits) > 1:
            raise InputError(f"ambiguous option: {token} could match "
                             + ", ".join(hits))
        if hits:
            return hits[0], value if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, None


def _parse_argv(argv: list) -> dict:
    """The command line as ``{key: value}`` of what it gives: the keys that
    ``_FLAGS`` names, ``input`` as a list, and ``command`` and ``name``,
    the first two positionals.  Options may come before, after or between
    them, as ``--opt value`` or ``--opt=value``; a repeated option keeps
    its last value, and everything after ``--`` is positional.  ``-h``
    ends the parse at ``{"help": True}``.  A malformed command line raises
    :class:`InputError`."""
    end = argv.index("--") if "--" in argv else len(argv)
    options = [_option_token(token) for token in argv[:end]]
    args = {}
    positionals = []  # (place in argv, token)
    unknown = []
    i = 0
    while i < end:
        token, hit = argv[i], options[i]
        i += 1
        if hit is None:
            positionals.append((i, token))
            continue
        flag, value = hit
        if flag is None:
            unknown.append((i, token))
            continue
        key, kind = _FLAGS[flag]
        if kind is None:
            if value is not None:
                raise InputError(f"argument {flag}: ignored explicit "
                                 f"argument {value!r}")
            if key == "help":
                return {"help": True}
            args[key] = True
            continue
        if value is None:
            if i == end or options[i] is not None:
                raise InputError(f"argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        if kind is list:
            args.setdefault(key, []).append(value)
            continue
        if kind is int:
            value = _int_value(flag, value)
        elif kind is _FORMATS and value not in kind:
            raise InputError(f"argument {flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(map(repr, kind))})")
        args[key] = value
    positionals += enumerate(argv[end + 1:], end + 1)
    if positionals and positionals[0][1] not in _COMMANDS:
        raise InputError(f"argument command: invalid choice: "
                         f"{positionals[0][1]!r} (choose from "
                         f"{', '.join(map(repr, _COMMANDS))})")
    args.update(zip(("command", "name"), (token for _, token in positionals)))
    extra = sorted(unknown + positionals[2:])
    if extra:
        raise InputError("unrecognized arguments: "
                         + " ".join(token for _, token in extra))
    return args


def _help_lines() -> list:
    """The usage line and every flag of ``_FLAGS``, with what it takes."""
    return [_USAGE, "", "options:",
            *(f"  {flag}{_METAVARS[kind]}" for flag, (_, kind) in _FLAGS.items())]


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
        _refuse_unread_keys(obj, ("dom", "cod", "filters"), "enumerate")
    else:
        if not cfg.options.get("dom") or not cfg.options.get("cod"):
            raise InputError("enumerate needs --dom and --cod or --input")
        dom = parse_order_spec(cfg.options["dom"])
        cod = parse_order_spec(cfg.options["cod"])
        filters = {name: True for name in CENSUS_FILTERS if name in cfg.options}
    # lines leave as the census yields them, so a closed stdout stops the
    # search; an interval census (convex_range on a domain with a bottom and
    # a top) yields nothing before its search ends, nor after an overrun
    _emit(_census_lines(embedding.enumerate_embeddings(
        dom, cod, **filters, budget_nodes=cfg.budget_nodes)))
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
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
        if "help" in args:
            _emit(_help_lines())
            return EXIT_OK
        if "list" in args:
            rows = _registry_listing()
            _emit([json.dumps({"verifiers": rows}, sort_keys=True)]
                  if args.get("format") == "json" else
                  [f"{row['command']:9s} {row['slug']:28s} {row['description']}"
                   for row in rows])
            return EXIT_OK
        if "command" not in args:
            sys.stderr.write(_USAGE + "\n")
            return EXIT_USAGE
        cfg = RunConfig(
            command=args["command"],
            name=args.get("name"),
            inputs=tuple(args.get("input", ())),
            output_format=args.get("format", "table"),
            options={key: args[key] for key in OPTIONS if key in args},
        )
        if cfg.command == "enumerate":
            return _run_enumerate(cfg)
        if cfg.name is None:
            raise InputError(f"{cfg.command} needs a verifier name (see --list)")
        runner = TABLES[cfg.command].get(cfg.name)
        if runner is None:
            raise InputError(f"unknown verifier {cfg.name!r}")
        cfg.refuse_unread(runner.reads)
        report = runner.run(cfg)
        emit_report(cfg, report)
    except embedding.BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except _INPUT_ERRORS as exc:
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
    code = main()
    gc.freeze()  # main flushed stdout; the collection at exit skips it all
    raise SystemExit(code)
