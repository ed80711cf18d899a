"""Finite topological spaces and their category algebras.

A finite space is stored as its specialization preorder (Alexandroff 1937;
Stong 1966): ``order.up_masks[p]`` is the least open set containing ``p``,
and the open sets are the up-sets.  Every preorder gives a topology, and
every topology on ``range(points)`` comes from exactly one.  Sets of points
are int bitmasks.  On a finite carrier the meager ideal collapses onto the
nowhere dense sets (finite unions of nowhere dense sets are nowhere dense
and there are only finitely many subsets), which the implementation records
as an exactness, not an approximation.  So the ideal is the set of subsets
of one largest meager set, ``FiniteTopology.meager_mask``: smallness tests
read that mask, and the category algebra reads its complement, on which each
class is the trace of an open set.  A set has the Baire property iff its
trace is one of those classes (``CategoryAlgebra.class_of``).

The largest meager set is nowhere dense, so it contains no nonempty open
set: every finite space is a Baire space, and the residual subspace of the
general theory, ``X`` minus the closure of the largest open meager set, is
``X`` itself.  So :func:`category_algebra` is checked against the regular
open algebra of the whole space.  ``sweep baire`` cross-checks the fact
(``is_baire`` against an empty :func:`largest_open_meager`) on every space
of up to ``MAX_TOPOLOGY_POINTS`` points.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .order import (
    QuasiOrder,
    _count,
    _Frozen,
    _is_index,
    bits,
    upper_sets,
)
from .lattice import classify, is_basis

__all__ = [
    "TopologyError",
    "NotZeroDimensionalError",
    "FiniteTopology",
    "topology",
    "interior",
    "closure_of",
    "is_regular_open",
    "regular_opens",
    "ROAlgebra",
    "ro_algebra",
    "is_nowhere_dense",
    "is_meager",
    "meager_ideal",
    "largest_open_meager",
    "is_baire",
    "CategoryAlgebra",
    "category_algebra",
    "clopen_sets",
    "is_zero_dimensional",
    "clopen_basis_check",
    "enumerate_topologies",
    "topology_to_json",
    "MAX_TOPOLOGY_POINTS",
]

_SCAN_LIMIT = 12  # 2**points subset scans refuse beyond this
# 6,942 labeled topologies on 5 points sweep in about 1.8 s; the 209,527 on 6
# would take 45 s or more (0.21 ms a space for the category algebra at 5)
MAX_TOPOLOGY_POINTS = 5


class TopologyError(ValueError):
    """A topology input or construction is invalid."""


class NotZeroDimensionalError(TopologyError):
    """Raised when clopen sets fail to form a base."""


class FiniteTopology(_Frozen):
    """A topology on ``range(points)`` given by its specialization preorder:
    the open sets are the up-sets of ``order``."""

    def __init__(self, order: QuasiOrder):
        self.__dict__["order"] = order

    @property
    def points(self) -> int:
        return self.order.size

    @property
    def full_mask(self) -> int:
        return self.order.full_mask

    @cached_property
    def opens_sorted(self) -> tuple:
        return upper_sets(self.order)

    @cached_property
    def opens(self) -> frozenset:
        return frozenset(self.opens_sorted)

    @cached_property
    def meager_mask(self) -> int:
        """The largest meager set: the union of the nowhere dense points."""
        return sum(1 << p for p in range(self.points)
                   if is_nowhere_dense(self, 1 << p))

    def is_open(self, s: int) -> bool:
        return interior(self, s) == s

    def is_closed(self, s: int) -> bool:
        return self.is_open(self.full_mask & ~s)

    def __repr__(self):
        return f"FiniteTopology(points={self.points})"


def topology(points: int, generators: Iterable[int]) -> FiniteTopology:
    """Topology generated by the given open sets: the least open set
    containing ``p`` is the intersection of the generators containing it.
    ``points`` and each generator mask are integers (what ``operator.index``
    accepts, but not a bool), else :class:`TopologyError`."""
    points = _count(points, "points", error=TopologyError)
    full = (1 << points) - 1
    up = [full] * points
    for g in generators:
        g = _count(g, "a generator", error=TopologyError)
        if g & ~full:
            raise TopologyError("generator outside the carrier")
        for p in bits(g):
            up[p] &= g
    return FiniteTopology(QuasiOrder(tuple(up)))


def interior(t: FiniteTopology, s: int) -> int:
    """The points whose least open neighbourhood lies inside ``s``."""
    out = 0
    for p, up in enumerate(t.order.up_masks):
        if up & ~s == 0:
            out |= 1 << p
    return out


def closure_of(t: FiniteTopology, s: int) -> int:
    """The points below some point of ``s``: the least closed superset."""
    out = 0
    for p in bits(s & t.full_mask):
        out |= t.order.down_masks[p]
    return out


def is_regular_open(t: FiniteTopology, s: int) -> bool:
    """Equal to the interior of its own closure."""
    return s == interior(t, closure_of(t, s))


def regular_opens(t: FiniteTopology) -> tuple:
    return tuple(o for o in t.opens_sorted if is_regular_open(t, o))


# ---------------------------------------------------------------------------
# the regular open algebra


class ROAlgebra(_Frozen):
    """Regular open sets ordered by inclusion (``order``): a complete Boolean
    algebra whose join is ``int(cl(G | H))``, whose meet is the intersection
    and whose complement is the exterior."""

    def __init__(self, space: FiniteTopology, members: tuple, order: QuasiOrder):
        fields = self.__dict__
        fields["space"] = space
        fields["members"] = members
        fields["order"] = order


def _boolean_by_inclusion(members: tuple, failure: str) -> QuasiOrder:
    """``members`` by inclusion; raises ``failure`` unless it is Boolean."""
    order = QuasiOrder(tuple(
        sum(1 << j for j, b in enumerate(members) if a & ~b == 0)
        for a in members))
    if not classify(order)["boolean"]:
        raise TopologyError(failure)
    return order


def ro_algebra(t: FiniteTopology) -> ROAlgebra:
    members = regular_opens(t)
    return ROAlgebra(t, members, _boolean_by_inclusion(
        members, "regular opens failed to form a Boolean algebra"))


# ---------------------------------------------------------------------------
# smallness


def is_nowhere_dense(t: FiniteTopology, s: int) -> bool:
    return interior(t, closure_of(t, s)) == 0


def is_meager(t: FiniteTopology, s: int) -> bool:
    """On a finite carrier, meager and nowhere dense coincide: countable
    unions degenerate to finite ones, and those stay nowhere dense.  So
    ``s`` is meager iff it lies inside the largest meager set."""
    return s & ~t.meager_mask == 0


def _scan_guard(t: FiniteTopology):
    if t.points > _SCAN_LIMIT:
        raise TopologyError(
            f"subset scan over 2**{t.points} refused (limit {_SCAN_LIMIT})")


def meager_ideal(t: FiniteTopology) -> tuple:
    """All meager subsets, i.e. the ideal generated by nowhere dense sets."""
    _scan_guard(t)
    return tuple(
        s for s in range(1 << t.points) if is_meager(t, s)
    )


def largest_open_meager(t: FiniteTopology) -> int:
    """Union of every open meager set: the interior of the largest meager
    set, which is open and, lying inside that set, meager."""
    return interior(t, t.meager_mask)


def is_baire(t: FiniteTopology) -> bool:
    """No nonempty open set is meager."""
    return all(not is_meager(t, o) for o in t.opens_sorted if o)


# ---------------------------------------------------------------------------
# the category algebra


class CategoryAlgebra(_Frozen):
    """Baire-property sets modulo the meager ideal.

    Each class is named by its least member, its trace on the comeager set
    (see :func:`category_algebra`), and ``classes`` sends each trace to its
    index; the quotient order is ``[A] <= [B]`` iff ``A \\ B`` is meager.
    ``ro_iso`` exhibits the isomorphism with the regular open algebra of the
    space, which is its own residual (see the module docstring).
    """

    def __init__(self, space: FiniteTopology, order: QuasiOrder, reps: tuple,
                 classes: dict, ro_members: tuple, ro_iso: dict):
        fields = self.__dict__
        fields["space"] = space
        fields["order"] = order
        fields["reps"] = reps
        fields["classes"] = classes  # trace on the comeager set -> class index
        fields["ro_members"] = ro_members  # regular_opens(space)
        fields["ro_iso"] = ro_iso    # regular open mask -> class index

    @property
    def size(self) -> int:
        return len(self.reps)

    def class_of(self, s: int) -> int:
        """The class of ``s``: ``KeyError`` off the Baire-property sets."""
        return self.classes[s & ~self.space.meager_mask]


def category_algebra(t: FiniteTopology) -> CategoryAlgebra:
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

    Each regular open of the space, its own residual (module docstring),
    goes to the class of its trace; that map is checked to be a bijection
    and an order isomorphism.
    """
    _scan_guard(t)
    comeager = t.full_mask & ~t.meager_mask
    reps = tuple(sorted({o & comeager for o in t.opens_sorted}))
    classes = {r: i for i, r in enumerate(reps)}
    order = _boolean_by_inclusion(reps, "category algebra failed to be Boolean")

    ro_members = regular_opens(t)
    # each g is open, so its trace g & comeager names a class
    iso = {g: classes[g & comeager] for g in ro_members}
    if len(set(iso.values())) != len(reps) or len(iso) != len(reps):
        raise TopologyError("category algebra is not isomorphic to the "
                            "regular open algebra")
    # order isomorphism both ways
    for g in ro_members:
        for h in ro_members:
            if (g & ~h == 0) != order.le(iso[g], iso[h]):
                raise TopologyError("trace map is not an order isomorphism")
    return CategoryAlgebra(t, order, reps, classes, ro_members, iso)


# ---------------------------------------------------------------------------
# zero-dimensional spaces


def clopen_sets(t: FiniteTopology) -> tuple:
    return tuple(o for o in t.opens_sorted if t.is_closed(o))


def is_zero_dimensional(t: FiniteTopology) -> bool:
    """Every open set is a union of clopen sets.  The least neighbourhoods
    ``up(p)`` form a base, and a union of clopens equal to ``up(p)`` holds
    one that contains ``p``, hence ``up(p)``: so each ``up(p)`` is closed."""
    return all(t.is_closed(up) for up in t.order.up_masks)


def clopen_basis_check(t: FiniteTopology) -> dict:
    """Clopen classes form a basis of the category algebra when the space
    is zero dimensional; raises otherwise."""
    if not is_zero_dimensional(t):
        raise NotZeroDimensionalError("clopen sets do not form a base")
    cat = category_algebra(t)
    classes = 0
    for c in clopen_sets(t):
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
    preorder exactly once.
    """
    if not _is_index(points, MAX_TOPOLOGY_POINTS + 1):
        raise TopologyError(f"topologies are enumerated on 0..{MAX_TOPOLOGY_POINTS} "
                            f"points, got {points!r}")
    orders = [QuasiOrder(())]
    for k in range(points):
        grown = []
        for q in orders:
            ups = upper_sets(q)
            for low in upper_sets(q.dual):
                above_low = q.full_mask
                for d in bits(low):
                    above_low &= q.up_masks[d]
                rows = tuple(up | (low >> p & 1) << k
                             for p, up in enumerate(q.up_masks))
                for high in ups:
                    if high & ~above_low == 0:
                        grown.append(QuasiOrder(rows + (high | 1 << k,)))
        orders = grown
    return [FiniteTopology(q) for q in orders]


def topology_to_json(t: FiniteTopology) -> dict:
    return {
        "points": t.points,
        "opens": [sorted(bits(o)) for o in t.opens_sorted],
    }

