"""Classification of finite posets and of their subsets.

A subset is an int bitmask.  Its properties (convexity, preregularity,
order closedness, density variants) are all evaluated against an explicitly
given ambient order; suprema and atoms *inside* a subset use the ambient
relation restricted to the subset.  No join or meet table is kept: the join
of ``a`` and ``b`` is ``up_index.get(up[a] & up[b])``, the least element of
their common upper bounds, and meets read the dual.

One scan, :func:`_sup_failures`, decides whether a map preserves the
suprema of nonempty sets, for :func:`preregularity_witness` (the inclusion
of ``A``), :func:`set_distributivity_failure` (``b -> op(a, b)``) and, in
:mod:`latkit.embedding`, ``continuity_checks``, ``_preserves_sups`` (the
extensions and the census's preregular flag) and the extension hypotheses.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Callable, Optional

from .order import (
    OrderError,
    QuasiOrder,
    _check_mask,
    _require_poset,
    _upper_bounds,
    bits,
    induced_suborder,
    inf,
    intersection_closure,
    least_element,
    lower_closure,
    positive_part,
    sup,
    upper_closure,
    upper_sets,
)

__all__ = [
    "classify",
    "is_lattice",
    "is_distributive",
    "distributivity_witness",
    "check_jid",
    "check_mid",
    "set_distributivity_failure",
    "is_convex",
    "convex_subsets",
    "convexity_witness",
    "sup_in_subset",
    "inf_in_subset",
    "is_preregular",
    "preregularity_witness",
    "preregular_masks",
    "MAX_PREREGULAR_WALK",
    "order_closed_checks",
    "order_closure_up",
    "is_flat",
    "is_dense",
    "is_join_dense",
    "is_interval_predense",
    "is_strongly_interval_predense",
    "is_meet_subsemilattice",
    "is_meet_closed",
    "is_join_closed",
    "is_sublattice",
    "is_basis",
    "density_checks",
    "covers_of_bottom",
    "subset_report",
]

# preregular_masks keeps one closure per member of its family, and a
# k-element subset has at most 2**k - 1 classes: at most 3**n members in
# all, 59,049 at n = 10
MAX_PREREGULAR_WALK = 10


def is_lattice(q: QuasiOrder) -> bool:
    """Whether a finite poset is a lattice: the up-set ``up[a] & up[b]``
    has a least element ``c`` iff it is ``up[c]``, one ``up_index`` lookup
    per pair, and dually for meets."""
    if not q.is_poset:
        raise OrderError("lattice test requires a partial order")
    ups, downs = q.up_masks, q.down_masks
    up_sets, down_sets = q.up_index, q.dual.up_index
    return all(ups[a] & ups[b] in up_sets and downs[a] & downs[b] in down_sets
               for a in range(q.size) for b in range(a))


def classify(q: QuasiOrder) -> dict:
    """Structure flags for a finite partial order.

    A finite poset is a complete semilattice iff it is pointed and every
    pair with a common upper bound has a join (bounded sups then exist by
    induction); a finite complete lattice is a bounded lattice.
    """
    if not q.is_poset:
        raise OrderError("classification requires a partial order")
    n = q.size
    up, down = q.up_masks, q.down_masks
    bottom = sup(q, 0)
    top = inf(q, 0)
    pointed = bottom is not None
    bounded = pointed and top is not None
    lattice = is_lattice(q)
    # a and b have a join iff the up-set up[a] & up[b] is some up[c]
    csl = pointed and all(up[a] & up[b] in q.up_index for a in range(n)
                          for b in range(a) if up[a] & up[b])
    # Boolean iff each element is the least upper bound of the atoms below
    # it and there are 2^#atoms elements: then "the atoms below x" is an
    # order isomorphism onto the subsets of the atoms
    boolean = False
    if pointed:
        atoms = covers_of_bottom(q)
        boolean = n == 1 << atoms.bit_count() and all(
            reduce(and_, (up[a] for a in bits(down[x] & atoms)), q.full_mask)
            == up[x] for x in range(n))
    return {
        "lattice": lattice,
        "complete_semilattice": csl,
        "complete_lattice": lattice and bounded,
        "bounded": bounded,
        "boolean": boolean,
        "pointed": pointed,
    }


def _require_lattice(q: QuasiOrder):
    if not is_lattice(q):
        raise OrderError("operation requires a lattice")


def _join(q: QuasiOrder):
    """The join of two elements of the lattice ``q`` as a function: the
    least element of ``up[a] & up[b]``, one lookup.  ``_join(q.dual)`` is
    the meet."""
    up, at = q.up_masks, q.up_index
    return lambda a, b: at[up[a] & up[b]]


def distributivity_witness(q: QuasiOrder) -> Optional[dict]:
    """The first triple ``{"a", "b", "c"}``, with ``a``, then ``b``, then
    ``c`` ascending, at which either distributive identity fails, or
    ``None``.  The scan reads ``n**3`` triples, so it builds the join and
    meet tables first."""
    _require_lattice(q)
    join, meet = _join(q), _join(q.dual)
    n = q.size
    J = [[join(a, b) for b in range(n)] for a in range(n)]
    M = [[meet(a, b) for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if (M[a][J[b][c]] != J[M[a][b]][M[a][c]]
                        or J[a][M[b][c]] != M[J[a][b]][J[a][c]]):
                    return {"a": a, "b": b, "c": c}
    return None


def is_distributive(q: QuasiOrder) -> bool:
    """Both distributive identities over all triples."""
    return distributivity_witness(q) is None


def _sup_failures(dom: QuasiOrder, cod: QuasiOrder, image, elems):
    """The keys of ``elems``, the classes of the nonempty ``B`` among them
    (their :func:`intersection_closure`), and the classes whose supremum
    ``s`` is one of ``elems`` with ``image[s]`` not the supremum of the
    image of ``B``.  ANDing the keys of a set ``B`` gives the upper bounds
    of ``B`` in ``dom`` (low ``dom.size`` bits) next to the upper bounds of
    its image in ``cod`` (the bits above)."""
    n, full = dom.size, dom.full_mask
    keys = {a: dom.up_masks[a] | (cod.up_masks[image[a]] << n) for a in elems}
    classes = intersection_closure(keys.values())
    bad = set()
    # both halves of a class are up-sets, so both suprema are lookups
    dom_least, cod_least = dom.up_index, cod.up_index
    for ub in classes:
        s = dom_least.get(ub & full)
        if s in keys and cod_least.get(ub >> n) != image[s]:
            bad.add(ub)
    return keys, classes, bad


def _largest_failing(keys: dict, bad: set) -> tuple:
    """``(B, class)`` for the numerically largest ``B`` whose class is in
    ``bad``, the extent of its class (distinct classes, distinct extents)."""
    return max((sum(1 << a for a, k in keys.items() if k & ub == ub), ub)
               for ub in bad)


def set_distributivity_failure(q: QuasiOrder, op: Callable[[int, int], int]):
    """``(checked, hit)`` for the law ``op(a, sup B) = sup(op(a, B))``
    over every ``a`` and every nonempty ``B`` whose supremum exists (pass
    ``q.dual`` for infima).  ``hit`` is the first failing ``(a, B mask)``
    of the scan with ``a``, then ``B``, ascending, or ``None``; ``checked``
    counts the pairs that scan visits.  For each ``a`` the law says that
    ``b -> op(a, b)`` preserves nonempty suprema, which
    :func:`_sup_failures` decides with one visit per class.  The least
    ``B`` of a failing class drops extent members from the top down while
    the AND of their keys stays the class.  It stays nonempty: the AND of
    no keys is ``full``, and a key is ``full`` only when ``b`` and
    ``op(a, b)`` are both the least element, where the law holds."""
    n = q.size
    full = (1 << 2 * n) - 1
    for a in range(n):
        keys, _, bad = _sup_failures(q, q, [op(a, b) for b in range(n)], range(n))
        failing = []
        for t in bad:
            kept = {b for b in range(n) if keys[b] & t == t}
            for b in sorted(kept, reverse=True):
                if reduce(and_, (keys[c] for c in kept - {b}), full) == t:
                    kept.remove(b)
            failing.append(sum(1 << b for b in kept))
        if failing:
            return a * ((1 << n) - 1) + min(failing), (a, min(failing))
    return n * ((1 << n) - 1), None


def _infinite_distributive(q: QuasiOrder, dual: bool) -> dict:
    _require_lattice(q)
    o = q.dual if dual else q
    checked, hit = set_distributivity_failure(o, _join(o.dual))
    witness = None if hit is None else {"a": hit[0], "B": list(bits(hit[1]))}
    return {"holds": hit is None, "mode": "exhaustive", "checked": checked,
            "witness": witness}


def check_jid(q: QuasiOrder) -> dict:
    """Join-infinite distributivity: a ^ vB = v(a ^ B) for every nonempty
    B whose supremum exists.  Exact at every size; the witness is the first
    violating ``(a, B)`` with ``a`` ascending, then the mask ``B``
    ascending, and ``checked`` counts the pairs that order reaches."""
    return _infinite_distributive(q, False)


def check_mid(q: QuasiOrder) -> dict:
    """Meet-infinite distributivity, the dual of :func:`check_jid`."""
    return _infinite_distributive(q, True)


# ---------------------------------------------------------------------------
# subset properties


def convexity_witness(q: QuasiOrder, A: int) -> Optional[dict]:
    """A triple ``p <= r <= q`` with endpoints in ``A`` and ``r`` outside,
    or ``None`` when ``A`` is convex."""
    m = _check_mask(q, A)
    for p in bits(m):
        for r in bits(m):
            gap = (q.up_masks[p] & q.down_masks[r]) & ~m
            if gap:
                missing = next(bits(gap))
                return {"p": p, "q": r, "missing": missing}
    return None


def is_convex(q: QuasiOrder, A: int) -> bool:
    """``A`` is convex iff it is the intersection of its up-closure and its
    down-closure: that intersection is the union of the intervals
    ``[p, r]`` with ``p, r`` in ``A``, which :func:`convexity_witness`
    scans pair by pair to name a gap, here one pass over ``A``."""
    m = _check_mask(q, A)
    return upper_closure(q, m) & lower_closure(q, m) == m


def convex_subsets(q: QuasiOrder) -> list:
    """Every convex subset of ``q``, in ascending mask order.

    ``A`` is convex iff ``A`` is the intersection of its up-closure and its
    down-closure, and every ``U & D`` of an up-set ``U`` and a down-set
    ``D`` is convex, so the convex subsets are the distinct ``U & D`` over
    :func:`upper_sets` of ``q`` and of its dual.
    """
    downs = upper_sets(q.dual)
    return sorted({u & d for u in upper_sets(q) for d in downs})


def sup_in_subset(q: QuasiOrder, A: int, B: int) -> Optional[int]:
    """Supremum of ``B`` computed inside the induced suborder on ``A``."""
    amask = _check_mask(q, A)
    bmask = _check_mask(q, B)
    if bmask & ~amask:
        raise OrderError("B must be a subset of A")
    return least_element(q, amask & _upper_bounds(q, bmask))


def inf_in_subset(q: QuasiOrder, A: int, B: int) -> Optional[int]:
    return sup_in_subset(q.dual, A, B)


def preregularity_witness(q: QuasiOrder, A: int, upwards: bool) -> Optional[dict]:
    """A nonempty ``B`` whose bound inside ``A`` disagrees with the ambient
    one (including the case where the ambient bound does not exist).

    That is a failure of the inclusion of ``A`` to preserve the suprema
    (infima) of nonempty subsets, so :func:`_sup_failures` decides it on
    the induced suborder, the order (or its dual) and the members of ``A``.
    A class holds the upper bounds of ``B`` inside ``A`` next to its
    ambient ones, and both bounds are ``up_index`` lookups.  The witness is
    the numerically largest violating ``B``.
    """
    m = _check_mask(q, A)
    if m:
        _require_poset(q)
    o = q if upwards else q.dual
    sub, elems = induced_suborder(o, m)
    keys, _, bad = _sup_failures(sub, o, elems, range(sub.size))
    if not bad:
        return None
    b, ub = _largest_failing(keys, bad)
    return {"B": [elems[i] for i in bits(b)],
            "in_subset": elems[sub.up_index[ub & sub.full_mask]],
            "in_ambient": o.up_index.get(ub >> sub.size)}


def is_preregular(q: QuasiOrder, A: int) -> bool:
    return (preregularity_witness(q, A, upwards=True) is None
            and preregularity_witness(q, A, upwards=False) is None)


def _upwards_preregular_flags(o: QuasiOrder, masks, last: bool) -> dict:
    """Each member of ``masks``, an ascending family of subsets of ``o``,
    mapped to its closure, or to ``None`` if it is not upwards preregular,
    from one walk.

    ``A`` fails iff a class ``T`` of the :func:`intersection_closure` of
    its members' up-sets has a least member in ``A`` other than the ambient
    bound ``up_index[T]`` (when that bound lies in ``A`` it is the least
    member).  The walk reaches ``A`` from its parent ``A - a``, and drops a
    minimal member, whatever the labels: ``a`` is the lowest member of
    ``A`` that is minimal in ``A`` (with ``last``, the highest), the first
    member tested when the labels (reversed, with ``last``) are a linear
    extension.  No class of ``A - a`` contains ``a`` (its members all lie
    above a member of ``A - a``): each keeps ``T & A = T & (A - a)``, so
    ``A`` keeps its parent's verdict, and a subset whose parent failed
    fails at once, with no closure built.  Only the new classes are
    checked, each ``up(a) & c``; ``up(a)`` itself has the least member
    ``a``, its own bound.  As ``a`` is minimal, the least member of ``A``
    is ``a`` if ``A - a`` lies in ``up(a)``, and there is none otherwise:
    a table of one entry per member.

    So the walk reads, for each member, its parent and its intersection
    with every class (an up-set of ``o``), and a family that lacks one
    raises :class:`OrderError`.  Every subset has them, and so does every
    convex subset: dropping a minimal (or maximal) member of a convex set
    leaves a convex set, and so does meeting one with an up-set (or a
    down-set, which the walk on the dual order meets).
    """
    up, down, ambient = o.up_masks, o.down_masks, o.up_index
    least = {0: -1}  # the least member of each subset, or -1
    closures = {0: set()}  # None for a subset that failed
    try:
        for m in masks:
            if not m:
                continue
            rest = m
            a = m.bit_length() - 1 if last else (m & -m).bit_length() - 1
            while down[a] & m != 1 << a:  # a is not minimal in m
                rest ^= 1 << a
                a = rest.bit_length() - 1 if last else (rest & -rest).bit_length() - 1
            parent, key = m ^ 1 << a, up[a]
            least[m] = -1 if parent & ~key else a
            classes = closures[parent]
            closure = None
            if classes is not None:
                closure = classes.copy()
                closure.add(key)
                for c in classes:
                    t = key & c
                    if t not in closure:
                        closure.add(t)
                        b = least[t & m]
                        if b >= 0 and b != ambient.get(t):
                            closure = None
                            break
            closures[m] = closure
    except KeyError as missing:
        raise OrderError(f"the mask family lacks {missing.args[0]:#b}, which "
                         f"the preregularity walk reads") from None
    return closures


def preregular_masks(q: QuasiOrder, masks=None) -> list:
    """The preregular members of the mask family ``masks``, by default
    every subset of ``q`` (the empty one too), as ascending masks, from one
    walk over the family per direction.

    :func:`preregularity_witness` sees ``A`` only through the
    :func:`intersection_closure` of its members' up-sets (down-sets).  The
    walk (:func:`_upwards_preregular_flags`) takes the family in ascending
    order and reaches each ``A`` from ``A`` minus one minimal (maximal)
    member, whatever the labels, so it checks only the classes that member
    adds, where :func:`is_preregular` builds both closures from scratch.
    It needs a family closed under dropping a minimal or a maximal member
    and under intersection with up-sets and down-sets: every subset, and
    :func:`convex_subsets`; a family that lacks a member it reads raises
    :class:`OrderError`.  It keeps every member's closure, so an order of
    more than ``MAX_PREREGULAR_WALK`` elements raises :class:`OrderError`.
    """
    n = q.size
    if n > MAX_PREREGULAR_WALK:
        raise OrderError(f"preregular_masks takes orders of at most "
                         f"{MAX_PREREGULAR_WALK} elements, got {n}")
    family = range(1 << n) if masks is None else sorted(set(masks))
    if family:
        _check_mask(q, family[0] | family[-1])
    if n:
        _require_poset(q)
    ups = _upwards_preregular_flags(q, family, False)
    downs = _upwards_preregular_flags(q.dual, family, True)
    return [m for m in family if ups[m] is not None and downs[m] is not None]


def order_closed_checks(q: QuasiOrder, A: int) -> dict:
    """Order-closedness verdicts for ``A``.

    ``up_boc``: ambient sups of nonempty subsets that are bounded inside
    ``A`` land in ``A``; ``up_oc`` drops the bound premise.  ``down_*`` are
    the duals.  Each subset is seen only through its set of upper (lower)
    bounds, one per member of :func:`intersection_closure`, whose ambient
    bound is an ``up_index`` lookup.
    """
    m = _check_mask(q, A)
    if m:
        _require_poset(q)
    boc, oc = {}, {}
    for side, o in (("up", q), ("down", q.dual)):
        boc[side] = oc[side] = True
        for ub in intersection_closure(o.up_masks[a] for a in bits(m)):
            s = o.up_index.get(ub)
            if s is not None and not (m >> s) & 1:
                oc[side] = False
                if ub & m:
                    boc[side] = False
    return {"up_boc": boc["up"], "down_boc": boc["down"],
            "up_oc": oc["up"], "down_oc": oc["down"]}


def order_closure_up(q: QuasiOrder, A: int) -> int:
    """All ambient suprema of subsets of ``A`` (the empty supremum, i.e. the
    minimum, included when it exists).  ``order_closure_up(q, 0) = 0``."""
    m = _check_mask(q, A)
    if not m:
        return 0
    _require_poset(q)
    out = 0
    # every element bounds the empty subset, whose supremum is the minimum
    for ub in intersection_closure(q.up_masks[a] for a in bits(m)) | {q.full_mask}:
        s = q.up_index.get(ub)
        if s is not None:
            out |= 1 << s
    return out


def is_flat(q: QuasiOrder, A: int) -> bool:
    """All pairwise meets of distinct members exist and coincide."""
    m = _check_mask(q, A)
    items = list(bits(m))
    if len(items) <= 1:
        return q.size > 0
    base = None
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            v = inf(q, (1 << a) | (1 << b))
            if v is None or (base is not None and v != base):
                return False
            base = v
    return True


# ---------------------------------------------------------------------------
# density notions


def is_dense(q: QuasiOrder, D: int) -> bool:
    """Every nonminimal element has a nonminimal member of ``D`` below it."""
    dmask = _check_mask(q, D) & positive_part(q)
    return all(dmask & q.down_masks[p] for p in bits(positive_part(q)))


def is_join_dense(q: QuasiOrder, D: int) -> bool:
    """Every element is the supremum of the members of ``D`` below it."""
    dmask = _check_mask(q, D)
    return all(sup(q, dmask & q.down_masks[p]) == p for p in range(q.size))


def is_interval_predense(q: QuasiOrder, D: int) -> bool:
    """Every strict pair ``p < q`` is separated: some ``d`` in ``D`` has
    ``d <= q`` but not ``d <= p``."""
    dmask = _check_mask(q, D)
    for p in range(q.size):
        for r in range(q.size):
            if q.lt(p, r) and dmask & q.down_masks[r] & ~q.down_masks[p] == 0:
                return False
    return True


def is_strongly_interval_predense(q: QuasiOrder, D: int) -> bool:
    """Interval predensity with the separating element's meet against ``p``
    required to fall back into ``D``."""
    _require_lattice(q)
    dmask = _check_mask(q, D)
    meet = _join(q.dual)
    for p in range(q.size):
        for r in range(q.size):
            if not q.lt(p, r):
                continue
            ok = False
            for d in bits(dmask & q.down_masks[r]):
                dp = meet(d, p)
                if dp != d and (dmask >> dp) & 1:
                    ok = True
                    break
            if not ok:
                return False
    return True


def is_meet_closed(q: QuasiOrder, A: int) -> bool:
    """Pairwise ambient meets of members exist and stay in ``A``."""
    m = _check_mask(q, A)
    items = list(bits(m))
    for i, a in enumerate(items):
        for b in items[i:]:
            v = inf(q, (1 << a) | (1 << b))
            if v is None or not (m >> v) & 1:
                return False
    return True


def is_join_closed(q: QuasiOrder, A: int) -> bool:
    return is_meet_closed(q.dual, A)


def is_sublattice(q: QuasiOrder, A: int) -> bool:
    return is_meet_closed(q, A) and is_join_closed(q, A)


def is_meet_subsemilattice(q: QuasiOrder, A: int) -> bool:
    """Meets computed inside ``A`` agree with ambient meets whenever both
    exist.  (Weaker than meet-closedness: pairs with no meet inside ``A``
    pass vacuously, so e.g. an antichain qualifies.)"""
    m = _check_mask(q, A)
    items = list(bits(m))
    for i, a in enumerate(items):
        for b in items[i:]:
            inner = inf_in_subset(q, m, (1 << a) | (1 << b))
            if inner is None:
                continue
            outer = inf(q, (1 << a) | (1 << b))
            if outer != inner:
                return False
    return True


def _antichain_decomposition(q: QuasiOrder, dmask: int, target: int,
                             bottom: int) -> bool:
    """Search a pairwise-incompatible family inside ``D`` below ``target``
    with supremum ``target``; the empty family covers the bottom.  Every
    candidate lies below ``target``, so every join of them does too."""
    if target == bottom:
        return True
    cands = [d for d in bits(dmask & q.down_masks[target])]
    join, meet = _join(q), _join(q.dual)

    def extend(start: int, chosen: tuple, current: Optional[int]) -> bool:
        if current == target:
            return True
        for k in range(start, len(cands)):
            d = cands[k]
            if any(meet(d, c) != bottom for c in chosen):
                continue
            nxt = d if current is None else join(current, d)
            if extend(k + 1, chosen + (d,), nxt):
                return True
        return False

    return extend(0, (), None)


def is_basis(q: QuasiOrder, D: int) -> bool:
    """``D`` is a meet subsemilattice and every element is the supremum of a
    pairwise-incompatible family from ``D``.  Requires a pointed lattice."""
    _require_lattice(q)
    bottom = sup(q, 0)
    if bottom is None:
        raise OrderError("basis check requires a pointed lattice")
    dmask = _check_mask(q, D)
    if not is_meet_subsemilattice(q, dmask):
        return False
    return all(
        _antichain_decomposition(q, dmask, a, bottom) for a in range(q.size)
    )


def density_checks(q: QuasiOrder, D: int) -> dict:
    """All five density verdicts for ``D`` inside a pointed lattice."""
    dmask = _check_mask(q, D)
    return {
        "dense": is_dense(q, dmask),
        "join_dense": is_join_dense(q, dmask),
        "interval_predense": is_interval_predense(q, dmask),
        "strongly_interval_predense": is_strongly_interval_predense(q, dmask),
        "basis": is_basis(q, dmask),
    }


def covers_of_bottom(q: QuasiOrder) -> int:
    """Elements directly above the minimum (the classical atom notion for
    Boolean algebras: nonzero with nothing strictly between 0 and them)."""
    bottom = sup(q, 0)
    if bottom is None:
        raise OrderError("order has no minimum element")
    down = q.down_masks
    # a is a cover iff nothing but a and the bottom lies below it
    return sum(1 << a for a in range(q.size)
               if a != bottom and down[a] == 1 << a | 1 << bottom)


def subset_report(q: QuasiOrder, A: int) -> dict:
    """JSON-ready verdicts ``{property: {holds, witness}}`` for a subset."""
    m = _check_mask(q, A)
    report = {}
    w = convexity_witness(q, m)
    report["convex"] = {"holds": w is None, "witness": w}
    for name, upwards in (("preregular_up", True), ("preregular_down", False)):
        w = preregularity_witness(q, m, upwards)
        report[name] = {"holds": w is None, "witness": w}
    for name, holds in order_closed_checks(q, m).items():
        report[name] = {"holds": holds, "witness": None}
    report["flat"] = {"holds": is_flat(q, m), "witness": None}
    return report
