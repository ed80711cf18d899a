"""Finite quasi orders and posets on integer carriers.

The carrier of an order is always ``range(size)``, and the relation is
stored once, as the tuple of up-set bitmasks.  Subsets of the carrier are
int bitmasks, in and out; index lists become masks only in ``latkit.cli``,
the one reader and writer of JSON.  The relation cannot be changed after
construction, and an order keeps only values derived from it alone
(``down_masks``, ``dual``, ``is_poset``, ``full_mask``, ``up_index``); this
module imports no other module of the package.  Orders and maps derived
from checked ones (the dual, an induced suborder, a map built monotone)
are built by :func:`_unchecked`; the public constructors check every
input.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Iterable, Iterator, Optional

__all__ = [
    "OrderError",
    "QuasiOrder",
    "MonotoneMap",
    "build_quasi_order",
    "is_partial_order",
    "asym_quotient",
    "sup",
    "inf",
    "least_element",
    "minimal_elements",
    "positive_part",
    "atoms",
    "upper_closure",
    "lower_closure",
    "upper_sets",
    "induced_suborder",
    "linear_extension",
    "bits",
    "intersection_closure",
    "MAX_CLOSURE_SIZE",
]


# members of an intersection closure; the largest that the tests, demos and
# benchmark jobs build has 65, and a preregularity check over 2**18 takes
# about 0.3 s in-process (2-vCPU VM)
MAX_CLOSURE_SIZE = 1 << 18


class OrderError(ValueError):
    """A relation or map violates an order-theoretic contract."""


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def intersection_closure(masks: Iterable[int]) -> set:
    """Every intersection of a nonempty subfamily of ``masks``.

    A check over every nonempty ``B`` of a set ``A`` that sees ``B`` only
    through the AND of one key per member (for ``up_masks``: the upper
    bounds of ``B``) needs one visit per member of this closure, not one per
    subset.  The largest ``B`` in the class ``T``, also numerically, is the
    extent ``{a in A : key(a) contains T}``.  A closure can have
    ``2**len(masks) - 1`` members, so one that passes
    ``MAX_CLOSURE_SIZE`` raises :class:`OrderError`.
    """
    closure = set()
    for m in masks:
        if m not in closure:  # the closure is already closed under "& m"
            closure |= {m & c for c in closure}
            closure.add(m)
            if len(closure) > MAX_CLOSURE_SIZE:
                raise OrderError(f"intersection closure passed MAX_CLOSURE_SIZE "
                                 f"= {MAX_CLOSURE_SIZE} members")
    return closure


class _Frozen:
    """Base of the package's records.  Each ``__init__`` checks its
    arguments and writes the fields into the instance dict, where cached
    properties live too; assigning or deleting an attribute raises
    ``AttributeError``.  Records compare by identity unless they are
    :class:`_Value` records."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: "
                             f"{type(self).__name__} is immutable")


class _Value(_Frozen):
    """A record equal to one of its exact class whose ``_key()``, the tuple
    of its fields, is equal; it hashes by that tuple."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _unchecked(cls, **fields):
    """An instance of the record class ``cls`` holding ``fields``, without
    running its checks: only for values derived from checked ones, which
    are correct by construction.  A field may also preset a cached property
    that the caller has proved."""
    obj = object.__new__(cls)
    # a record refuses setattr, but its fields and cached properties all
    # live in the instance dict
    obj.__dict__.update(fields)
    return obj


def _is_index(value, size: int) -> bool:
    """``value`` is an int (not a bool) in ``range(size)``."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < size


def _count(value, what: str, least: int = 0, error=OrderError) -> int:
    """``value`` as an int ``>= least``: whatever ``operator.index`` accepts
    (numpy integers too) except a bool; anything else raises ``error``."""
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            n = least - 1
        if n >= least:
            return n
    raise error(f"{what} must be an integer >= {least}, got {value!r}")


class QuasiOrder(_Frozen):
    """A reflexive and transitive relation on ``range(size)``.

    ``up_masks[p]`` is the bitmask of ``{q : p <= q}``.  The strict relation
    ``p < q`` means ``p <= q`` and not ``q <= p`` (in a poset this is
    ``<=`` plus ``!=``).
    """

    def __init__(self, up_masks):
        up = tuple(up_masks)
        full = (1 << len(up)) - 1
        for p, row in enumerate(up):
            if not isinstance(row, int) or row & ~full:
                raise OrderError(f"row {p} is not a mask over range({len(up)})")
        if not all(row >> p & 1 for p, row in enumerate(up)):
            raise OrderError("relation is not reflexive")
        for row in up:
            for q in bits(row):
                if up[q] & ~row:
                    raise OrderError("relation is not transitive")
        self.__dict__["up_masks"] = up

    @property
    def size(self) -> int:
        return len(self.up_masks)

    def le(self, p: int, q: int) -> bool:
        return bool(self.up_masks[p] >> q & 1)

    def lt(self, p: int, q: int) -> bool:
        return self.le(p, q) and not self.le(q, p)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def down_masks(self) -> tuple:
        """``down_masks[p]`` is the bitmask of ``{q : q <= p}``."""
        down = [0] * self.size
        for p, row in enumerate(self.up_masks):
            for q in bits(row):
                down[q] |= 1 << p
        return tuple(down)

    @cached_property
    def dual(self) -> "QuasiOrder":
        """The opposite order (relation transposed), whose dual is this one."""
        return _unchecked(QuasiOrder, up_masks=self.down_masks,
                          down_masks=self.up_masks, dual=self)

    @cached_property
    def up_index(self) -> dict:
        """``{up_masks[u]: u}``, the lowest ``u`` per mask.  A nonempty up-set
        ``U`` has a least element ``u`` iff ``U = up(u)``, so the least
        element of an up-set (an AND of up-masks) is one lookup; among
        equivalent least elements the lowest index wins, as in
        :func:`least_element`."""
        # a later (lower) u overwrites a higher one with the same mask
        return dict(zip(reversed(self.up_masks), range(self.size - 1, -1, -1)))

    @cached_property
    def is_poset(self) -> bool:
        return is_partial_order(self)

    def __repr__(self):
        return f"QuasiOrder(size={self.size})"


def _check_mask(q: QuasiOrder, mask: int) -> int:
    """``mask``, after checking that it has no bits outside ``q``'s carrier."""
    if mask & ~q.full_mask:
        raise OrderError("mask has bits outside the carrier")
    return mask


class MonotoneMap(_Frozen):
    """A total order preserving map between two quasi orders.

    ``image[p]`` is the codomain index of element ``p``.  Construction fails
    unless the map is order preserving; being an embedding (reflecting
    order) is a cached flag, and ``lattice.is_convex(cod, range_mask)``
    decides whether the range is convex.
    """

    def __init__(self, dom: QuasiOrder, cod: QuasiOrder, image):
        img = tuple(image)
        if len(img) != dom.size:
            raise OrderError("image length does not match domain size")
        if not all(_is_index(v, cod.size) for v in img):
            raise OrderError(f"image values must be integers in range({cod.size})")
        for p in range(dom.size):
            up = cod.up_masks[img[p]]
            for q in bits(dom.up_masks[p]):
                if not up >> img[q] & 1:
                    raise OrderError(
                        f"map is not order preserving at ({p}, {q})"
                    )
        fields = self.__dict__
        fields["dom"] = dom
        fields["cod"] = cod
        fields["image"] = img

    def __call__(self, p: int) -> int:
        return self.image[p]

    @cached_property
    def is_embedding(self) -> bool:
        """``image[p] <= image[q]`` implies ``p <= q``: a monotone map that
        reflects order.  ``up(p)`` lies in the preimage of ``up(image[p])``,
        and the map reflects iff the two have the same size: one count per
        element, each range value weighted by the size of its fiber."""
        img, cod_up, rng = self.image, self.cod.up_masks, self.range_mask
        if len(set(img)) == len(img):  # every fiber has one element
            return all((cod_up[v] & rng).bit_count() == up.bit_count()
                       for v, up in zip(img, self.dom.up_masks))
        fiber = [0] * self.cod.size
        for v in img:
            fiber[v] += 1
        return all(sum(fiber[w] for w in bits(cod_up[v] & rng)) == up.bit_count()
                   for v, up in zip(img, self.dom.up_masks))

    @cached_property
    def range_mask(self) -> int:
        m = 0
        for v in self.image:
            m |= 1 << v
        return m

    def image_mask(self, A: int) -> int:
        m = 0
        for p in bits(_check_mask(self.dom, A)):
            m |= 1 << self.image[p]
        return m

    def __repr__(self):
        return f"MonotoneMap{self.image}"


# ---------------------------------------------------------------------------
# construction


def build_quasi_order(size: int, pairs: Iterable[tuple]) -> QuasiOrder:
    """Smallest reflexive-transitive relation on ``range(size)`` containing
    the generator ``pairs`` (Warshall's closure on the up-set masks).
    A size or a pair that is not an index raises :class:`OrderError`."""
    size = _count(size, "an order's size")
    up = [1 << p for p in range(size)]
    for pair in pairs:
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and _is_index(pair[0], size) and _is_index(pair[1], size)):
            raise OrderError(f"pair {pair!r} is not two integers in range({size})")
        up[pair[0]] |= 1 << pair[1]
    for k in range(size):
        for p in range(size):
            if up[p] >> k & 1:
                up[p] |= up[k]
    return QuasiOrder(tuple(up))


# ---------------------------------------------------------------------------
# basic interrogation


def is_partial_order(q: QuasiOrder) -> bool:
    """True iff the relation is also antisymmetric."""
    return all(up & down == 1 << p
               for p, (up, down) in enumerate(zip(q.up_masks, q.down_masks)))


def asym_quotient(q: QuasiOrder):
    """Collapse mutual-``<=`` classes to a poset.

    Returns ``(poset, class_map)`` where classes are numbered by smallest
    representative index and ``[p] <= [q]`` iff ``p <= q``.
    """
    n = q.size
    class_map = [-1] * n
    reps = []
    for p in range(n):
        if class_map[p] >= 0:
            continue
        c = len(reps)
        reps.append(p)
        cls = q.up_masks[p] & q.down_masks[p]
        for r in bits(cls):
            class_map[r] = c
    # the representatives ascend, so class i is element i of their suborder
    return induced_suborder(q, sum(1 << r for r in reps))[0], tuple(class_map)


def _require_poset(q: QuasiOrder):
    if not q.is_poset:
        raise OrderError("operation requires a partial order")


def _upper_bounds(q: QuasiOrder, mask: int) -> int:
    """The common upper bounds of the members of ``mask``, as a mask."""
    up = q.up_masks
    ub = q.full_mask
    while mask and ub:
        low = mask & -mask
        ub &= up[low.bit_length() - 1]
        mask ^= low
    return ub


def sup(q: QuasiOrder, A: int = 0) -> Optional[int]:
    """Least upper bound of ``A``, or ``None`` when it does not exist.

    ``sup(q, 0)`` is the minimum element of the whole order, if any.  The
    upper bounds form an up-set, so the bound is one ``up_index`` lookup.
    """
    _require_poset(q)
    return q.up_index.get(_upper_bounds(q, _check_mask(q, A)))


def least_element(q: QuasiOrder, mask: int) -> Optional[int]:
    """The least member of ``mask``, or ``None`` when it has none.

    Among equivalent least members of a quasi order the lowest index wins.
    For an up-set ``mask``, ``q.up_index.get(mask)`` gives the same answer
    by one lookup.
    """
    up = q.up_masks
    rest = mask
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        if mask & ~up[u] == 0:
            return u
        rest ^= low
    return None


def inf(q: QuasiOrder, A: int = 0) -> Optional[int]:
    """Greatest lower bound of ``A``; ``inf(q, 0)`` is the maximum, if any."""
    return sup(q.dual, A)


def minimal_elements(q: QuasiOrder, A: Optional[int] = None) -> int:
    """Members of ``A`` (default: the carrier) with no member of ``A``
    strictly below them: ``down(p) & A`` lies inside ``up(p)``."""
    m = q.full_mask if A is None else _check_mask(q, A)
    up, down = q.up_masks, q.down_masks
    out = 0
    for p in bits(m):
        if not down[p] & m & ~up[p]:
            out |= 1 << p
    return out


def positive_part(q: QuasiOrder, A: Optional[int] = None) -> int:
    """The members of ``A`` (default: the carrier) that are not minimal in
    ``A``."""
    m = q.full_mask if A is None else _check_mask(q, A)
    return m & ~minimal_elements(q, m)


def atoms(q: QuasiOrder, A: Optional[int] = None) -> int:
    """Atoms of the suborder on ``A`` (default: the carrier): its
    nonminimal elements that cannot be split into an incompatible pair.

    ``p`` splits when two nonminimal ``a, b <= p`` have no common nonminimal
    lower bound.  On a chain nothing is incompatible, so every nonminimal
    element of a chain is an atom.  The suborder's relation is ``q``'s
    restricted to ``A``, so its masks are ``q``'s ANDed with ``A``.
    """
    pos = positive_part(q, A)
    down = q.down_masks
    out = 0
    for p in bits(pos):
        below = [down[a] & pos for a in bits(down[p] & pos)]
        if all(a & b for i, a in enumerate(below) for b in below[i + 1:]):
            out |= 1 << p
    return out


# ---------------------------------------------------------------------------
# subsets derived from the order


def upper_closure(q: QuasiOrder, A: int) -> int:
    """Upper set generated by ``A``: everything above some member."""
    m = 0
    for a in bits(_check_mask(q, A)):
        m |= q.up_masks[a]
    return m


def lower_closure(q: QuasiOrder, A: int) -> int:
    m = 0
    for a in bits(_check_mask(q, A)):
        m |= q.down_masks[a]
    return m


def upper_sets(q: QuasiOrder) -> tuple:
    """Every up-set of ``q`` in ascending mask order; ``upper_sets(q.dual)``
    lists the lower sets.

    A down-set is the intersection of the complements of ``up(p)`` over the
    points ``p`` outside it, so the up-sets are the complements of the
    members of the intersection closure of those complements, plus the
    empty set (the empty subfamily); past ``MAX_CLOSURE_SIZE`` up-sets it
    raises :class:`OrderError`.
    """
    full = q.full_mask
    downs = intersection_closure(full & ~up for up in q.up_masks)
    downs.add(full)
    return tuple(sorted(full & ~d for d in downs))


def induced_suborder(q: QuasiOrder, A: int):
    """Restrict the order to ``A``.

    Returns ``(suborder, elements)`` where ``elements[i]`` is the carrier
    index represented by ``i`` in the suborder.
    """
    elems = tuple(bits(_check_mask(q, A)))
    up = tuple(sum(1 << j for j, b in enumerate(elems) if q.up_masks[a] >> b & 1)
               for a in elems)
    # the restriction of a reflexive and transitive relation is one, and
    # antisymmetry survives it too
    proved = {"is_poset": True} if q.is_poset else {}
    return _unchecked(QuasiOrder, up_masks=up, **proved), elems


def linear_extension(q: QuasiOrder) -> tuple:
    """Elements ordered compatibly with ``<=`` (smaller down-sets first)."""
    return tuple(sorted(range(q.size), key=lambda p: (q.down_masks[p].bit_count(), p)))
