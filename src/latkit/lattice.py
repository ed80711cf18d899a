"""Classification of finite posets and of their subsets.

Subset properties (convexity, preregularity, order closedness, density
variants) are all evaluated against an explicitly given ambient order;
suprema and atoms *inside* a subset use the ambient relation restricted to
the subset, never a parent's join table.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import and_
from typing import Callable, Optional

from .order import (
    OrderError,
    QuasiOrder,
    SetLike,
    Subset,
    _Frozen,
    _require_poset,
    _unchecked,
    _upper_bounds,
    bits,
    inf,
    intersection_closure,
    least_element,
    linear_extension,
    lower_closure,
    mask_of,
    positive_part,
    sup,
    upper_closure,
    upper_sets,
)

__all__ = [
    "LatticeView",
    "lattice_view",
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
    "is_upwards_preregular",
    "is_downwards_preregular",
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


class LatticeView(_Frozen):
    """Partial join/meet tables over a poset, as tuples of rows; ``-1``
    marks a missing bound."""

    def __init__(self, base: QuasiOrder, join: tuple, meet: tuple):
        fields = self.__dict__
        fields["base"] = base
        fields["join"] = join
        fields["meet"] = meet

    @property
    def size(self) -> int:
        return self.base.size

    @cached_property
    def is_lattice(self) -> bool:
        return all(v >= 0 for table in (self.join, self.meet)
                   for row in table for v in row)


def lattice_view(q: QuasiOrder) -> LatticeView:
    """Build the join and meet tables, which the order does not keep: ``c``
    is the join of ``a`` and ``b`` iff ``up[a] & up[b] == up[c]`` (as in
    :func:`is_lattice`), so each entry is one ``up_index`` lookup; meets
    read the dual."""
    if not q.is_poset:
        raise OrderError("lattice view requires a partial order")
    tables = []
    for o in (q, q.dual):
        masks, at = o.up_masks, o.up_index
        tables.append(tuple([tuple([at.get(a & b, -1) for b in masks])
                             for a in masks]))
    return LatticeView(q, *tables)


def is_lattice(q: QuasiOrder) -> bool:
    """Whether a finite poset is a lattice, without a ``LatticeView``: the
    up-set ``up[a] & up[b]`` has a least element ``c`` iff it is ``up[c]``."""
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
        atoms = sum(1 << a for a in range(n)
                    if a != bottom and down[a] == 1 << a | 1 << bottom)
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


def _require_lattice(lv: LatticeView):
    if not lv.is_lattice:
        raise OrderError("operation requires a lattice")


def distributivity_witness(lv: LatticeView) -> Optional[dict]:
    """The first triple ``{"a", "b", "c"}``, with ``a``, then ``b``, then
    ``c`` ascending, at which either distributive identity fails, or
    ``None``."""
    _require_lattice(lv)
    n = lv.size
    J, M = lv.join, lv.meet
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if (M[a][J[b][c]] != J[M[a][b]][M[a][c]]
                        or J[a][M[b][c]] != M[J[a][b]][J[a][c]]):
                    return {"a": a, "b": b, "c": c}
    return None


def is_distributive(lv: LatticeView) -> bool:
    """Both distributive identities over all triples."""
    return distributivity_witness(lv) is None


def set_distributivity_failure(q: QuasiOrder, op: Callable[[int, int], int]):
    """``(checked, hit)`` for the law ``op(a, sup B) = sup(op(a, B))``
    over every ``a`` and every nonempty ``B`` whose supremum exists (pass
    ``q.dual`` for infima).  ``hit`` is the first failing ``(a, B mask)``
    of the scan with ``a``, then ``B``, ascending, or ``None``; ``checked``
    counts the pairs that scan visits.  Both sides see ``B`` only through
    the AND of ``up(b) | up(op(a, b)) << n`` over ``b`` in ``B``, so one
    visit per :func:`intersection_closure` member decides every ``B``.  The
    least ``B`` of a failing class drops extent members from the top down
    while the AND stays the class.  It stays nonempty: the AND of no keys
    is ``full``, and a key is ``full`` only when ``b`` and ``op(a, b)`` are
    both the least element, where the law holds.  Both halves of a class
    are up-sets, so both suprema are ``up_index`` lookups."""
    n = q.size
    up, least = q.up_masks, q.up_index
    full = (1 << 2 * n) - 1
    for a in range(n):
        keys = [up[b] | up[op(a, b)] << n for b in range(n)]
        failing = []
        for t in intersection_closure(keys):
            s = least.get(t & q.full_mask)
            if s is not None and op(a, s) != least.get(t >> n):
                kept = {b for b in range(n) if keys[b] & t == t}
                for b in sorted(kept, reverse=True):
                    if reduce(and_, (keys[c] for c in kept - {b}), full) == t:
                        kept.remove(b)
                failing.append(sum(1 << b for b in kept))
        if failing:
            return a * ((1 << n) - 1) + min(failing), (a, min(failing))
    return n * ((1 << n) - 1), None


def _infinite_distributive(lv: LatticeView, dual: bool) -> dict:
    _require_lattice(lv)
    table = lv.join if dual else lv.meet
    checked, hit = set_distributivity_failure(lv.base.dual if dual else lv.base,
                                              lambda a, b: table[a][b])
    witness = None if hit is None else {"a": hit[0], "B": list(bits(hit[1]))}
    return {"holds": hit is None, "mode": "exhaustive", "checked": checked,
            "witness": witness}


def check_jid(lv: LatticeView) -> dict:
    """Join-infinite distributivity: a ^ vB = v(a ^ B) for every nonempty
    B whose supremum exists.  Exact at every size; the witness is the first
    violating ``(a, B)`` with ``a`` ascending, then the mask ``B``
    ascending, and ``checked`` counts the pairs that order reaches."""
    return _infinite_distributive(lv, False)


def check_mid(lv: LatticeView) -> dict:
    """Meet-infinite distributivity, the dual of :func:`check_jid`."""
    return _infinite_distributive(lv, True)


# ---------------------------------------------------------------------------
# subset properties


def convexity_witness(q: QuasiOrder, A: SetLike) -> Optional[dict]:
    """A triple ``p <= r <= q`` with endpoints in ``A`` and ``r`` outside,
    or ``None`` when ``A`` is convex."""
    m = mask_of(q, A)
    for p in bits(m):
        for r in bits(m):
            gap = (q.up_masks[p] & q.down_masks[r]) & ~m
            if gap:
                missing = next(bits(gap))
                return {"p": p, "q": r, "missing": missing}
    return None


def is_convex(q: QuasiOrder, A: SetLike) -> bool:
    """``A`` is convex iff it is the intersection of its up-closure and its
    down-closure: that intersection is the union of the intervals
    ``[p, r]`` with ``p, r`` in ``A``, which :func:`convexity_witness`
    scans pair by pair to name a gap, here one pass over ``A``."""
    m = mask_of(q, A)
    return upper_closure(q, m).mask & lower_closure(q, m).mask == m


def convex_subsets(q: QuasiOrder) -> list:
    """Every convex subset of ``q``, in ascending mask order.

    ``A`` is convex iff ``A`` is the intersection of its up-closure and its
    down-closure, and every ``U & D`` of an up-set ``U`` and a down-set
    ``D`` is convex, so the convex subsets are the distinct ``U & D`` over
    :func:`upper_sets` of ``q`` and of its dual.
    """
    downs = upper_sets(q.dual)
    return sorted({u & d for u in upper_sets(q) for d in downs})


def sup_in_subset(q: QuasiOrder, A: SetLike, B: SetLike) -> Optional[int]:
    """Supremum of ``B`` computed inside the induced suborder on ``A``."""
    amask = mask_of(q, A)
    bmask = mask_of(q, B)
    if bmask & ~amask:
        raise OrderError("B must be a subset of A")
    return least_element(q, amask & _upper_bounds(q, bmask))


def inf_in_subset(q: QuasiOrder, A: SetLike, B: SetLike) -> Optional[int]:
    return sup_in_subset(q.dual, mask_of(q, A), mask_of(q, B))


def preregularity_witness(q: QuasiOrder, A: SetLike, upwards: bool) -> Optional[dict]:
    """A nonempty ``B`` whose bound inside ``A`` disagrees with the ambient
    one (including the case where the ambient bound does not exist).

    Both bounds depend on ``B`` only through its ambient upper (lower)
    bounds, so the scan runs over :func:`intersection_closure` of the
    members' up-sets (down-sets).  The ambient bound is an ``up_index``
    lookup, and when it lies in ``A`` it is also the bound inside ``A``.
    The witness is the numerically largest violating ``B``.
    """
    m = mask_of(q, A)
    if m:
        _require_poset(q)
    o = q if upwards else q.dual
    up, least = o.up_masks, o.up_index
    witnesses = []
    for ub in intersection_closure(up[a] for a in bits(m)):
        p = least.get(ub)
        if p is not None and m >> p & 1:
            continue
        a = least_element(o, ub & m)
        if a is not None:
            witnesses.append((sum(1 << x for x in bits(m) if up[x] & ub == ub), a, p))
    if not witnesses:
        return None
    b, a, p = max(witnesses)
    return {"B": list(bits(b)), "in_subset": a, "in_ambient": p}


def is_upwards_preregular(q: QuasiOrder, A: SetLike) -> bool:
    return preregularity_witness(q, A, upwards=True) is None


def is_downwards_preregular(q: QuasiOrder, A: SetLike) -> bool:
    return preregularity_witness(q, A, upwards=False) is None


def is_preregular(q: QuasiOrder, A: SetLike) -> bool:
    m = mask_of(q, A)
    return is_upwards_preregular(q, m) and is_downwards_preregular(q, m)


def _upwards_preregular_flags(o: QuasiOrder, masks, last: bool) -> set:
    """The upwards preregular members of ``masks``, an ascending family of
    subsets of ``o``, from one walk.

    ``A`` fails iff a class ``T`` of the :func:`intersection_closure` of
    its members' up-sets has a least member in ``A`` other than the ambient
    bound ``up_index[T]`` (when that bound lies in ``A`` it is the least
    member).  The walk reaches ``A`` from its parent ``A - a``, where ``a``
    is the member of ``A`` that comes first in a linear extension of ``o``:
    the lowest bit when the labels are one, or, with ``last``, the highest
    bit when the reversed labels are one.  So ``a`` is minimal in ``A``, and
    no class of ``A - a`` contains ``a`` (its members all lie above a member
    of ``A - a``): each keeps ``T & A = T & (A - a)``, so ``A`` keeps its
    parent's verdict, and a subset whose parent failed fails at once, with
    no closure built.  Only the new classes ``up(a) & c`` are checked;
    ``up(a)`` itself has the least member ``a``, its own bound.  With ``a``
    minimal, the least member of ``A`` is ``a`` if ``A - a`` lies in
    ``up(a)``, and there is none otherwise: a table of one entry per member.

    So the walk reads, for each member, its parent and its intersection
    with every class (an up-set of ``o``), and a family that lacks one
    raises :class:`OrderError`.  Every subset has them, and so does every
    convex subset: dropping a minimal (or maximal) member of a convex set
    leaves a convex set, and so does meeting one with an up-set (or a
    down-set, which the walk on the dual order meets).
    """
    up, ambient = o.up_masks, o.up_index
    least = {0: -1}  # the least member of each subset, or -1
    closures = {0: set()}  # None for a subset that failed
    passed = set()
    try:
        for m in masks:
            if not m:
                passed.add(m)
                continue
            a = m.bit_length() - 1 if last else (m & -m).bit_length() - 1
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
            if closure is not None:
                passed.add(m)
    except KeyError as missing:
        raise OrderError(f"the mask family lacks {missing.args[0]:#b}, which "
                         f"the preregularity walk reads") from None
    return passed


def preregular_masks(q: QuasiOrder, masks=None) -> list:
    """The preregular members of the mask family ``masks``, by default
    every subset of ``q`` (the empty one too), as ascending masks, from one
    walk over the family per direction.

    :func:`preregularity_witness` sees ``A`` only through the
    :func:`intersection_closure` of its members' up-sets (down-sets).  The
    walk (:func:`_upwards_preregular_flags`) takes the family in ascending
    order and reaches each ``A`` from ``A`` minus one minimal (maximal)
    member, so it checks only the classes that member adds, where
    :func:`is_preregular` builds both closures from scratch.  It needs a
    family closed under dropping a minimal or a maximal member and under
    intersection with up-sets and down-sets: every subset, and
    :func:`convex_subsets`; a family that lacks a member it reads raises
    :class:`OrderError`.  When the labels of ``q`` are not a linear
    extension, the walk runs on a relabeled copy whose labels are.  It
    keeps every member's closure, so an order of more than
    ``MAX_PREREGULAR_WALK`` elements raises :class:`OrderError`.
    """
    n = q.size
    if n > MAX_PREREGULAR_WALK:
        raise OrderError(f"preregular_masks takes orders of at most "
                         f"{MAX_PREREGULAR_WALK} elements, got {n}")
    family = range(1 << n) if masks is None else sorted(set(masks))
    if family and (family[0] < 0 or family[-1] > q.full_mask):
        raise OrderError("mask has bits outside the carrier")
    if n:
        _require_poset(q)
    up = q.up_masks
    if any(up[p] & (1 << p) - 1 for p in range(n)):  # an element below a lower label
        ext = linear_extension(q)
        place = [0] * n
        for i, p in enumerate(ext):
            place[p] = 1 << i

        def move(m: int) -> int:
            return sum(place[b] for b in bits(m))

        r = _unchecked(QuasiOrder, up_masks=tuple(move(up[p]) for p in ext),
                       is_poset=True)
        return sorted(sum(1 << ext[i] for i in bits(m))
                      for m in preregular_masks(r, map(move, family)))
    ups = _upwards_preregular_flags(q, family, False)
    downs = _upwards_preregular_flags(q.dual, family, True)
    return [m for m in family if m in ups and m in downs]


def order_closed_checks(q: QuasiOrder, A: SetLike) -> dict:
    """Order-closedness verdicts for ``A``.

    ``up_boc``: ambient sups of nonempty subsets that are bounded inside
    ``A`` land in ``A``; ``up_oc`` drops the bound premise.  ``down_*`` are
    the duals.  Each subset is seen only through its set of upper (lower)
    bounds, one per member of :func:`intersection_closure`, whose ambient
    bound is an ``up_index`` lookup.
    """
    m = mask_of(q, A)
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


def order_closure_up(q: QuasiOrder, A: SetLike) -> Subset:
    """All ambient suprema of subsets of ``A`` (the empty supremum, i.e. the
    minimum, included when it exists).  ``order_closure_up(q, ()) = ()``."""
    m = mask_of(q, A)
    if not m:
        return Subset(q, 0)
    _require_poset(q)
    out = 0
    # every element bounds the empty subset, whose supremum is the minimum
    for ub in intersection_closure(q.up_masks[a] for a in bits(m)) | {q.full_mask}:
        s = q.up_index.get(ub)
        if s is not None:
            out |= 1 << s
    return Subset(q, out)


def is_flat(q: QuasiOrder, A: SetLike) -> bool:
    """All pairwise meets of distinct members exist and coincide."""
    m = mask_of(q, A)
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


def is_dense(q: QuasiOrder, D: SetLike) -> bool:
    """Every nonminimal element has a nonminimal member of ``D`` below it."""
    dmask = mask_of(q, D) & positive_part(q).mask
    return all(dmask & q.down_masks[p] for p in bits(positive_part(q).mask))


def is_join_dense(q: QuasiOrder, D: SetLike) -> bool:
    """Every element is the supremum of the members of ``D`` below it."""
    dmask = mask_of(q, D)
    return all(sup(q, dmask & q.down_masks[p]) == p for p in range(q.size))


def is_interval_predense(q: QuasiOrder, D: SetLike) -> bool:
    """Every strict pair ``p < q`` is separated: some ``d`` in ``D`` has
    ``d <= q`` but not ``d <= p``."""
    dmask = mask_of(q, D)
    for p in range(q.size):
        for r in range(q.size):
            if q.lt(p, r) and dmask & q.down_masks[r] & ~q.down_masks[p] == 0:
                return False
    return True


def is_strongly_interval_predense(q: QuasiOrder, D: SetLike) -> bool:
    """Interval predensity with the separating element's meet against ``p``
    required to fall back into ``D``."""
    lv = lattice_view(q)
    _require_lattice(lv)
    dmask = mask_of(q, D)
    for p in range(q.size):
        for r in range(q.size):
            if not q.lt(p, r):
                continue
            ok = False
            for d in bits(dmask & q.down_masks[r]):
                dp = lv.meet[d][p]
                if dp != d and (dmask >> dp) & 1:
                    ok = True
                    break
            if not ok:
                return False
    return True


def is_meet_closed(q: QuasiOrder, A: SetLike) -> bool:
    """Pairwise ambient meets of members exist and stay in ``A``."""
    m = mask_of(q, A)
    items = list(bits(m))
    for i, a in enumerate(items):
        for b in items[i:]:
            v = inf(q, (1 << a) | (1 << b))
            if v is None or not (m >> v) & 1:
                return False
    return True


def is_join_closed(q: QuasiOrder, A: SetLike) -> bool:
    return is_meet_closed(q.dual, mask_of(q, A))


def is_sublattice(q: QuasiOrder, A: SetLike) -> bool:
    m = mask_of(q, A)
    return is_meet_closed(q, m) and is_join_closed(q, m)


def is_meet_subsemilattice(q: QuasiOrder, A: SetLike) -> bool:
    """Meets computed inside ``A`` agree with ambient meets whenever both
    exist.  (Weaker than meet-closedness: pairs with no meet inside ``A``
    pass vacuously, so e.g. an antichain qualifies.)"""
    m = mask_of(q, A)
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


def _antichain_decomposition(lv: LatticeView, dmask: int, target: int,
                             bottom: int) -> bool:
    """Search a pairwise-incompatible family inside ``D`` below ``target``
    with supremum ``target``; the empty family covers the bottom."""
    q = lv.base
    if target == bottom:
        return True
    cands = [d for d in bits(dmask & q.down_masks[target])]

    def extend(start: int, chosen: tuple, current: Optional[int]) -> bool:
        if current == target:
            return True
        for k in range(start, len(cands)):
            d = cands[k]
            if any(lv.meet[d][c] != bottom for c in chosen):
                continue
            nxt = d if current is None else lv.join[current][d]
            if nxt < 0 or not q.le(nxt, target):
                continue
            if extend(k + 1, chosen + (d,), nxt):
                return True
        return False

    return extend(0, (), None)


def is_basis(q: QuasiOrder, D: SetLike) -> bool:
    """``D`` is a meet subsemilattice and every element is the supremum of a
    pairwise-incompatible family from ``D``.  Requires a pointed lattice."""
    lv = lattice_view(q)
    _require_lattice(lv)
    bottom = sup(q, 0)
    if bottom is None:
        raise OrderError("basis check requires a pointed lattice")
    dmask = mask_of(q, D)
    if not is_meet_subsemilattice(q, dmask):
        return False
    return all(
        _antichain_decomposition(lv, dmask, a, bottom) for a in range(q.size)
    )


def density_checks(q: QuasiOrder, D: SetLike) -> dict:
    """All five density verdicts for ``D`` inside a pointed lattice."""
    dmask = mask_of(q, D)
    return {
        "dense": is_dense(q, dmask),
        "join_dense": is_join_dense(q, dmask),
        "interval_predense": is_interval_predense(q, dmask),
        "strongly_interval_predense": is_strongly_interval_predense(q, dmask),
        "basis": is_basis(q, dmask),
    }


def covers_of_bottom(q: QuasiOrder) -> Subset:
    """Elements directly above the minimum (the classical atom notion for
    Boolean algebras: nonzero with nothing strictly between 0 and them)."""
    bottom = sup(q, 0)
    if bottom is None:
        raise OrderError("order has no minimum element")
    out = 0
    for p in range(q.size):
        if q.lt(bottom, p) and all(
            not q.lt(bottom, r) for r in bits(q.down_masks[p] & ~(1 << p))
        ):
            out |= 1 << p
    return Subset(q, out)


def subset_report(q: QuasiOrder, A: SetLike) -> dict:
    """JSON-ready verdicts ``{property: {holds, witness}}`` for a subset."""
    m = mask_of(q, A)
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
