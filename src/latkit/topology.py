"""Finite topological spaces and their category algebras.

Open sets are bitmasks over ``range(points)``.  On a finite carrier the
meager ideal collapses onto the nowhere dense sets (finite unions of
nowhere dense sets are nowhere dense and there are only finitely many
subsets), which the implementation records as an exactness, not an
approximation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .order import QuasiOrder, _is_index, bits
from .lattice import classify

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
    "has_baire_property",
    "baire_property_sets",
    "CategoryAlgebra",
    "category_algebra",
    "clopen_sets",
    "is_zero_dimensional",
    "clopen_basis_check",
    "subspace",
    "enumerate_topologies",
    "topology_to_json",
    "topology_from_json",
]

_SCAN_LIMIT = 12  # 2**points subset scans refuse beyond this
MAX_JSON_POINTS = 64  # points of a topology read from JSON


class TopologyError(ValueError):
    """A family of opens violates the topology axioms."""


class NotZeroDimensionalError(TopologyError):
    """Raised when clopen sets fail to form a base."""


@dataclass(frozen=True, eq=False)
class FiniteTopology:
    """A family of open subsets of ``range(points)``, as bitmasks."""

    points: int
    opens: frozenset

    def __post_init__(self):
        full = (1 << self.points) - 1
        opens = frozenset(int(o) for o in self.opens)
        if 0 not in opens or full not in opens:
            raise TopologyError("the empty set and the whole space must be open")
        for a in opens:
            if a & ~full:
                raise TopologyError("open set outside the carrier")
            for b in opens:
                if a | b not in opens or a & b not in opens:
                    raise TopologyError("opens not closed under union/intersection")
        object.__setattr__(self, "opens", opens)

    @property
    def full_mask(self) -> int:
        return (1 << self.points) - 1

    @cached_property
    def opens_sorted(self) -> tuple:
        return tuple(sorted(self.opens))

    def is_open(self, s: int) -> bool:
        return s in self.opens

    def is_closed(self, s: int) -> bool:
        return self.full_mask & ~s in self.opens

    def __repr__(self):
        return f"FiniteTopology(points={self.points}, opens={len(self.opens)})"


def topology(points: int, generators: Iterable[int]) -> FiniteTopology:
    """Topology generated by the given open sets (closure under union and
    intersection is applied; finite unions exhaust arbitrary ones here)."""
    full = (1 << points) - 1
    fam = {0, full}
    for g in generators:
        g = int(g)
        if g & ~full:
            raise TopologyError("generator outside the carrier")
        fam.add(g)
    while True:
        new = set(fam)
        for a in fam:
            for b in fam:
                new.add(a | b)
                new.add(a & b)
        if new == fam:
            break
        fam = new
    return FiniteTopology(points, frozenset(fam))


def interior(t: FiniteTopology, s: int) -> int:
    out = 0
    for o in t.opens_sorted:
        if o & ~s == 0:
            out |= o
    return out


def closure_of(t: FiniteTopology, s: int) -> int:
    return t.full_mask & ~interior(t, t.full_mask & ~s)


def is_regular_open(t: FiniteTopology, s: int) -> bool:
    """Equal to the interior of its own closure."""
    return s == interior(t, closure_of(t, s))


def regular_opens(t: FiniteTopology) -> tuple:
    return tuple(o for o in t.opens_sorted if is_regular_open(t, o))


# ---------------------------------------------------------------------------
# the regular open algebra


@dataclass(frozen=True, eq=False)
class ROAlgebra:
    """Regular open sets ordered by inclusion; a complete Boolean algebra
    with join ``int(cl(G | H))``, meet intersection, and complement the
    exterior."""

    space: FiniteTopology
    members: tuple
    order: QuasiOrder

    def index(self, g: int) -> int:
        return self.members.index(g)

    def join(self, g: int, h: int) -> int:
        return interior(self.space, closure_of(self.space, g | h))

    def meet(self, g: int, h: int) -> int:
        return g & h

    def complement(self, g: int) -> int:
        return self.space.full_mask & ~closure_of(self.space, g)


def ro_algebra(t: FiniteTopology) -> ROAlgebra:
    members = regular_opens(t)
    up = tuple(sum(1 << j for j, b in enumerate(members) if a & ~b == 0)
               for a in members)
    alg = ROAlgebra(t, members, QuasiOrder(up))
    flags = classify(alg.order)
    if not flags["boolean"]:
        raise TopologyError("regular opens failed to form a Boolean algebra")
    return alg


# ---------------------------------------------------------------------------
# smallness


def is_nowhere_dense(t: FiniteTopology, s: int) -> bool:
    return interior(t, closure_of(t, s)) == 0


def is_meager(t: FiniteTopology, s: int) -> bool:
    """On a finite carrier, meager and nowhere dense coincide: countable
    unions degenerate to finite ones, and those stay nowhere dense."""
    return is_nowhere_dense(t, s)


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
    """Union of every open meager set; itself open and meager."""
    out = 0
    for o in t.opens_sorted:
        if is_meager(t, o):
            out |= o
    if not (t.is_open(out) and is_meager(t, out)):
        raise RuntimeError("union of open meager sets is not open and meager")
    return out


def is_baire(t: FiniteTopology) -> bool:
    """No nonempty open set is meager."""
    return all(not is_meager(t, o) for o in t.opens_sorted if o)


def has_baire_property(t: FiniteTopology, s: int) -> bool:
    """Differs from some open set by a meager set."""
    return any(is_meager(t, s ^ o) for o in t.opens_sorted)


def baire_property_sets(t: FiniteTopology) -> tuple:
    _scan_guard(t)
    return tuple(
        s for s in range(1 << t.points) if has_baire_property(t, s)
    )


# ---------------------------------------------------------------------------
# the category algebra


@dataclass(frozen=True, eq=False)
class CategoryAlgebra:
    """Baire-property sets modulo the meager ideal.

    ``class_map`` sends each set with the Baire property to its class
    index; classes are named by their smallest member, and the quotient
    order is ``[A] <= [B]`` iff ``A \\ B`` is meager.  ``ro_iso`` exhibits
    the isomorphism with the regular open algebra of the complement of the
    closure of the largest open meager set.
    """

    space: FiniteTopology
    order: QuasiOrder
    reps: tuple
    class_map: dict
    largest_open_meager: int
    baire: bool
    ro_members: tuple   # regular opens of the residual subspace, as masks in X
    ro_iso: dict        # residual regular open mask -> class index

    @property
    def size(self) -> int:
        return len(self.reps)

    def join_class(self, i: int, j: int) -> int:
        return self.class_map[self.reps[i] | self.reps[j]]

    def meet_class(self, i: int, j: int) -> int:
        return self.class_map[self.reps[i] & self.reps[j]]

    def complement_class(self, i: int) -> int:
        return self.class_map[self.space.full_mask & ~self.reps[i]]


def subspace(t: FiniteTopology, carrier: int):
    """Subspace topology on the points of ``carrier``.

    Returns ``(topology, points)`` with ``points[i]`` the original index of
    the subspace point ``i``.
    """
    points = tuple(bits(carrier))
    pos = {p: i for i, p in enumerate(points)}

    def compress(mask: int) -> int:
        out = 0
        for p in bits(mask & carrier):
            out |= 1 << pos[p]
        return out

    opens = frozenset(compress(o) for o in t.opens)
    return FiniteTopology(len(points), opens), points


def category_algebra(t: FiniteTopology) -> CategoryAlgebra:
    """Quotient of the Baire-property sets by the meager ideal, with the
    isomorphism onto the residual regular open algebra exhibited."""
    _scan_guard(t)
    bp = baire_property_sets(t)
    class_map: dict = {}
    reps = []
    for s in bp:
        if s in class_map:
            continue
        idx = len(reps)
        reps.append(s)
        for r in bp:
            if r not in class_map and is_meager(t, r ^ s):
                class_map[r] = idx
    k = len(reps)
    order = QuasiOrder(tuple(
        sum(1 << j for j, b in enumerate(reps) if is_meager(t, a & ~b))
        for a in reps))
    flags = classify(order)
    if not flags["boolean"]:
        raise TopologyError("category algebra failed to be Boolean")

    u = largest_open_meager(t)
    residual = t.full_mask & ~closure_of(t, u)
    sub, points = subspace(t, residual)

    def decompress(mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << points[i]
        return out

    ro_members = tuple(decompress(g) for g in regular_opens(sub))
    iso = {}
    for g in ro_members:
        if g not in class_map:
            raise TopologyError("residual regular open lost the Baire property")
        iso[g] = class_map[g]
    if len(set(iso.values())) != k or len(iso) != k:
        raise TopologyError("category algebra is not isomorphic to the "
                            "residual regular open algebra")
    # order isomorphism both ways
    sub_ro = {g: i for i, g in enumerate(ro_members)}
    for g in ro_members:
        for h in ro_members:
            sub_leq = g & ~h == 0
            cat_leq = order.le(iso[g], iso[h])
            if sub_leq != cat_leq:
                raise TopologyError("residual map is not an order isomorphism")
    return CategoryAlgebra(
        t, order, tuple(reps), class_map, u, is_baire(t), ro_members, iso
    )


# ---------------------------------------------------------------------------
# zero-dimensional spaces


def clopen_sets(t: FiniteTopology) -> tuple:
    return tuple(o for o in t.opens_sorted if t.is_closed(o))


def is_zero_dimensional(t: FiniteTopology) -> bool:
    """Every open set is a union of clopen sets."""
    clopens = clopen_sets(t)
    for o in t.opens_sorted:
        cover = 0
        for c in clopens:
            if c & ~o == 0:
                cover |= c
        if cover != o:
            return False
    return True


def clopen_basis_check(t: FiniteTopology) -> dict:
    """Clopen classes form a basis of the category algebra when the space
    is zero dimensional; raises otherwise."""
    from .lattice import is_basis

    if not is_zero_dimensional(t):
        raise NotZeroDimensionalError("clopen sets do not form a base")
    cat = category_algebra(t)
    classes = 0
    for c in clopen_sets(t):
        classes |= 1 << cat.class_map[c]
    basis = is_basis(cat.order, classes)
    return {"zero_dimensional": True, "basis": basis,
            "clopen_classes": [i for i in bits(classes)]}


# ---------------------------------------------------------------------------
# enumeration and wire format


def enumerate_topologies(points: int):
    """Every topology on ``range(points)``, for up to 4 labeled points."""
    if not 0 <= points <= 4:
        raise ValueError("topology sweep supported for at most 4 points")
    full = (1 << points) - 1
    proper = [s for s in range(1 << points) if s not in (0, full)]
    out = []
    for included in itertools.chain.from_iterable(
        itertools.combinations(proper, r) for r in range(len(proper) + 1)
    ):
        fam = frozenset(included) | {0, full}
        if all(a | b in fam and a & b in fam for a in fam for b in fam):
            out.append(FiniteTopology(points, fam))
    return out


def topology_to_json(t: FiniteTopology) -> dict:
    return {
        "points": t.points,
        "opens": [sorted(bits(o)) for o in t.opens_sorted],
    }


def topology_from_json(obj: dict) -> FiniteTopology:
    """Read ``{"points": n, "opens": [[i, ...], ...]}``; the listed opens
    are generators and the closure is applied.  ``n`` is an integer in
    ``0..MAX_JSON_POINTS`` and each ``i`` an integer in ``range(n)``."""
    if not isinstance(obj, dict) or "points" not in obj:
        raise TopologyError("malformed topology object: need an object with points")
    points, opens = obj["points"], obj.get("opens", [])
    if not _is_index(points, MAX_JSON_POINTS + 1):
        raise TopologyError(
            f"points must be an integer in 0..{MAX_JSON_POINTS}, got {points!r}")
    if not isinstance(opens, list) or not all(
            isinstance(o, list) and all(_is_index(i, points) for i in o)
            for o in opens):
        raise TopologyError(f"opens must be lists of integers in range({points})")
    return topology(points, (sum(1 << i for i in set(o)) for o in opens))
