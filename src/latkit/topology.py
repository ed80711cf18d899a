"""Finite topological spaces and their category algebras.

A finite space is its specialization preorder (Alexandroff 1937; Stong
1966): ``q.up_masks[p]`` is the least open set containing ``p``, the open
sets are the up-sets, ``upper_sets(q)``, and the points are
``range(q.size)``.  Every preorder gives a topology, and every topology on
``range(points)`` comes from exactly one, so every function here takes the
:class:`~latkit.order.QuasiOrder`.  Sets of points are int bitmasks.

On a finite carrier the meager ideal collapses onto the nowhere dense sets
(finite unions of nowhere dense sets are nowhere dense and there are only
finitely many subsets), which the implementation records as an exactness,
not an approximation.  So the ideal is the set of subsets of one largest
meager set, :func:`meager_mask`: smallness tests read that mask, and the
category algebra reads its complement, on which each class is the trace of
an open set.  A set has the Baire property iff its trace is one of those
classes (``CategoryAlgebra.class_of``).

The largest meager set is nowhere dense, so it contains no nonempty open
set: every finite space is a Baire space, and the residual subspace of the
general theory, ``X`` minus the closure of the largest open meager set, is
``X`` itself.  So :func:`category_algebra` is checked against the regular
open algebra of the whole space.  ``sweep baire`` cross-checks the fact
(``is_baire`` against an empty :func:`largest_open_meager`) on every space
of up to ``MAX_TOPOLOGY_POINTS`` points.
"""

from __future__ import annotations

from typing import Iterable

from .order import (
    QuasiOrder,
    _count,
    _Frozen,
    _is_index,
    _unchecked,
    _upper_bounds,
    bits,
    lower_closure,
    upper_sets,
)
from .lattice import classify, is_basis

__all__ = [
    "TopologyError",
    "NotZeroDimensionalError",
    "topology",
    "interior",
    "closure_of",
    "is_regular_open",
    "regular_opens",
    "ROAlgebra",
    "ro_algebra",
    "meager_mask",
    "meager_ideal",
    "largest_open_meager",
    "is_baire",
    "CategoryAlgebra",
    "category_algebra",
    "clopen_sets",
    "is_zero_dimensional",
    "clopen_basis_check",
    "enumerate_topologies",
    "MAX_TOPOLOGY_POINTS",
]

_SCAN_LIMIT = 12  # 2**points subset scans refuse beyond this
# 6,942 labeled topologies on 5 points sweep in about 0.65 s (fresh process,
# median of 5, 2-vCPU Intel Xeon VM, Python 3.11); the 209,527 on 6, at about
# 0.11 ms a space for the category algebra (0.07 at 5, in-process), in 22 s
MAX_TOPOLOGY_POINTS = 5


class TopologyError(ValueError):
    """A topology input or construction is invalid."""


class NotZeroDimensionalError(TopologyError):
    """Raised when clopen sets fail to form a base."""


def topology(points: int, generators: Iterable[int]) -> QuasiOrder:
    """The space that the given open sets generate, as its preorder: the
    least open set containing ``p`` is the intersection of the generators
    containing it.  ``points`` and each generator mask are integers (what
    ``operator.index`` accepts, but not a bool), else a ``TopologyError``."""
    points = _count(points, "points", error=TopologyError)
    full = (1 << points) - 1
    up = [full] * points
    for g in generators:
        g = _count(g, "a generator", error=TopologyError)
        if g & ~full:
            raise TopologyError("generator outside the carrier")
        for p in bits(g):
            up[p] &= g
    return QuasiOrder(tuple(up))


def interior(q: QuasiOrder, s: int) -> int:
    """The points whose least open neighbourhood lies inside ``s``: those
    below no point outside ``s``."""
    return q.full_mask & ~lower_closure(q, q.full_mask & ~s)


def closure_of(q: QuasiOrder, s: int) -> int:
    """The points below some point of ``s``: the least closed superset."""
    return lower_closure(q, s & q.full_mask)


def is_regular_open(q: QuasiOrder, s: int) -> bool:
    """Equal to the interior of its own closure."""
    return s == interior(q, closure_of(q, s))


def regular_opens(q: QuasiOrder) -> tuple:
    return tuple(o for o in upper_sets(q) if is_regular_open(q, o))


# ---------------------------------------------------------------------------
# the regular open algebra


class ROAlgebra(_Frozen):
    """Regular open sets ordered by inclusion (``order``): a complete Boolean
    algebra whose join is ``int(cl(G | H))``, whose meet is the intersection
    and whose complement is the exterior."""

    def __init__(self, members: tuple, order: QuasiOrder):
        fields = self.__dict__
        fields["members"] = members
        fields["order"] = order


def _inclusion_order(members: tuple) -> QuasiOrder:
    """Distinct sets ordered by inclusion, a partial order by definition."""
    return _unchecked(QuasiOrder, is_poset=True, up_masks=tuple(
        sum(1 << j for j, b in enumerate(members) if a & ~b == 0)
        for a in members))


def ro_algebra(q: QuasiOrder) -> ROAlgebra:
    members = regular_opens(q)
    order = _inclusion_order(members)
    if not classify(order)["boolean"]:
        raise TopologyError("regular opens failed to form a Boolean algebra")
    return ROAlgebra(members, order)


# ---------------------------------------------------------------------------
# smallness


def meager_mask(q: QuasiOrder) -> int:
    """The largest meager set: the union of the nowhere dense points, which
    are the points that are not maximal, those with ``up(p)`` not inside
    ``down(p)``.  The closure of ``{p}`` is ``down(p)``, and its interior
    holds ``x`` iff ``up(x)`` lies inside ``down(p)``.  Such an ``x`` is in
    ``up(x)``, so ``x <= p`` and ``up(p)`` lies inside ``up(x)``, hence
    inside ``down(p)``; conversely, if ``up(p)`` lies inside ``down(p)``,
    then ``x = p`` is one.  So ``{p}`` is nowhere dense iff ``up(p)`` is not
    inside ``down(p)``."""
    return sum(1 << p for p, (up, down)
               in enumerate(zip(q.up_masks, q.down_masks)) if up & ~down)


def meager_ideal(q: QuasiOrder) -> tuple:
    """All meager subsets, i.e. the ideal generated by nowhere dense sets;
    it walks all ``2**q.size`` subsets, so it refuses past ``_SCAN_LIMIT``."""
    if q.size > _SCAN_LIMIT:
        raise TopologyError(
            f"subset scan over 2**{q.size} refused (limit {_SCAN_LIMIT})")
    meager = meager_mask(q)
    return tuple(s for s in range(1 << q.size) if s & ~meager == 0)


def largest_open_meager(q: QuasiOrder) -> int:
    """Union of every open meager set: the interior of the largest meager
    set, which is open and, lying inside that set, meager."""
    return interior(q, meager_mask(q))


def is_baire(q: QuasiOrder) -> bool:
    """No nonempty open set is meager."""
    meager = meager_mask(q)
    return all(o & ~meager for o in upper_sets(q) if o)


# ---------------------------------------------------------------------------
# the category algebra


class CategoryAlgebra(_Frozen):
    """Baire-property sets modulo the meager ideal.

    Each class is named by its least member, its trace on the comeager set
    (see :func:`category_algebra`), and ``classes`` sends each trace to its
    index; the quotient order is ``[A] <= [B]`` iff ``A \\ B`` is meager.
    ``ro_iso`` exhibits the isomorphism with the regular open algebra of the
    space, which is its own residual (see the module docstring); its keys
    are the regular opens in ascending order.
    """

    def __init__(self, order: QuasiOrder, reps: tuple, classes: dict,
                 ro_iso: dict):
        fields = self.__dict__
        fields["order"] = order
        fields["reps"] = reps
        fields["classes"] = classes  # trace on the comeager set -> class index
        fields["ro_iso"] = ro_iso    # regular open mask -> class index

    @property
    def size(self) -> int:
        return len(self.reps)

    def class_of(self, s: int) -> int:
        """The class of ``s``: ``KeyError`` off the Baire-property sets."""
        # the largest trace is the whole space's: the comeager set
        return self.classes[s & self.reps[-1]]


def category_algebra(q: QuasiOrder) -> CategoryAlgebra:
    """Quotient of the Baire-property sets by the meager ideal, with the
    isomorphism onto the regular open algebra exhibited.

    With ``M`` the largest meager set and ``N`` its complement, a set
    ``s = o ^ m`` (``o`` open, ``m`` meager) has the trace ``s & N = o & N``,
    and ``r ^ s`` is meager iff ``r & N == s & N``.  A trace
    ``o & N = o ^ (o & M)`` has the Baire property and is the least member
    of its class (the trace plus any subset of ``M``), also numerically.
    So the classes are the distinct traces of the opens, ascending as when
    numbered by least member, and ordered by inclusion (on traces,
    ``A \\ B`` is meager iff it is empty).

    Like the opens, the traces are closed under union and intersection and
    hold ``0`` and ``N``, so they are Boolean iff each trace ``r`` has its
    complement ``N & ~r`` among them: one lookup per class.  Each regular
    open of the space, its own residual (module docstring), goes to the
    class of its trace; that map is checked to be a bijection and an order
    isomorphism.  No subset of the carrier is scanned: ``upper_sets`` lists
    the opens once, and past ``MAX_CLOSURE_SIZE`` raises ``OrderError``.
    """
    opens = upper_sets(q)
    comeager = q.full_mask & ~meager_mask(q)
    reps = tuple(sorted({o & comeager for o in opens}))
    classes = {r: i for i, r in enumerate(reps)}
    if any(comeager & ~r not in classes for r in reps):
        raise TopologyError("category algebra failed to be Boolean")

    # each regular open g is open, so its trace g & comeager names a class
    iso = {g: classes[g & comeager] for g in opens if is_regular_open(q, g)}
    if len(set(iso.values())) != len(reps) or len(iso) != len(reps):
        raise TopologyError("category algebra is not isomorphic to the "
                            "regular open algebra")
    # order isomorphism both ways: the class order is trace inclusion
    for g in iso:
        for h in iso:
            if (g & ~h == 0) != (g & ~h & comeager == 0):
                raise TopologyError("trace map is not an order isomorphism")
    return CategoryAlgebra(_inclusion_order(reps), reps, classes, iso)


# ---------------------------------------------------------------------------
# zero-dimensional spaces


def clopen_sets(q: QuasiOrder) -> tuple:
    """The opens that are their own closure."""
    return tuple(o for o in upper_sets(q) if closure_of(q, o) == o)


def is_zero_dimensional(q: QuasiOrder) -> bool:
    """Every open set is a union of clopen sets.  The least neighbourhoods
    ``up(p)`` form a base, and a union of clopens equal to ``up(p)`` holds
    one that contains ``p``, hence ``up(p)``: so each ``up(p)`` is closed.
    That holds iff the preorder is symmetric, i.e. ``up(p) == down(p)``
    for every ``p``: if ``p <= r``, then ``up(r)`` is down-closed and holds
    ``r``, so it holds ``p``, and ``r <= p``; conversely each ``up(p)`` is
    then ``down(p)``, which is closed."""
    return q.up_masks == q.down_masks


def clopen_basis_check(q: QuasiOrder) -> dict:
    """Clopen classes form a basis of the category algebra when the space
    is zero dimensional; raises otherwise."""
    if not is_zero_dimensional(q):
        raise NotZeroDimensionalError("clopen sets do not form a base")
    cat = category_algebra(q)
    classes = 0
    for c in clopen_sets(q):
        classes |= 1 << cat.class_of(c)
    basis = is_basis(cat.order, classes)
    return {"zero_dimensional": True, "basis": basis,
            "clopen_classes": [i for i in bits(classes)]}


# ---------------------------------------------------------------------------
# enumeration and wire format


def enumerate_topologies(points: int) -> list:
    """Every topology on ``range(points)``, for up to ``MAX_TOPOLOGY_POINTS``
    labeled points, as every labeled preorder.

    A preorder on ``k + 1`` points restricts to one on the first ``k``; it is
    that preorder plus the down-set ``D`` and the up-set ``U`` of the new
    point, with every member of ``D`` below every member of ``U``.  Adding
    the points one at a time over every such ``(D, U)`` reaches each labeled
    preorder exactly once, and only preorders, so each is built unchecked.
    """
    if not _is_index(points, MAX_TOPOLOGY_POINTS + 1):
        raise TopologyError(f"topologies are enumerated on 0..{MAX_TOPOLOGY_POINTS} "
                            f"points, got {points!r}")
    orders = [_unchecked(QuasiOrder, up_masks=())]
    for k in range(points):
        grown = []
        for q in orders:
            ups = upper_sets(q)
            for low in upper_sets(q.dual):
                above_low = _upper_bounds(q, low)
                rows = tuple(up | (low >> p & 1) << k
                             for p, up in enumerate(q.up_masks))
                for high in ups:
                    if high & ~above_low == 0:
                        grown.append(_unchecked(QuasiOrder, up_masks=rows + (high | 1 << k,)))
        orders = grown
    return orders
