"""Finite quasi orders and posets on integer carriers.

The carrier of an order is always ``range(size)``; the relation is a
read-only boolean matrix.  Subsets of the carrier travel as int bitmasks,
wrapped in :class:`Subset` at the public surface.  Everything is immutable
after construction, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Union

import numpy as np

__all__ = [
    "OrderError",
    "QuasiOrder",
    "Subset",
    "MonotoneMap",
    "build_quasi_order",
    "order_from_relation",
    "is_partial_order",
    "asym_quotient",
    "sup",
    "inf",
    "least_element",
    "minimal_elements",
    "positive_part",
    "are_incompatible",
    "atoms",
    "is_atomic",
    "is_atomless",
    "down_set",
    "up_set",
    "interval",
    "upper_closure",
    "lower_closure",
    "is_upper_set",
    "is_lower_set",
    "is_directed",
    "is_bounded_above",
    "is_bounded_below",
    "induced_suborder",
    "linear_extension",
    "bits",
    "intersection_closure",
    "mask_of",
    "order_to_json",
    "order_from_json",
    "subset_to_json",
    "subset_from_json",
]


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
    extent ``{a in A : key(a) contains T}``.
    """
    closure = set()
    for m in masks:
        if m not in closure:  # the closure is already closed under "& m"
            closure |= {m & c for c in closure}
            closure.add(m)
    return closure


def _row_masks(mat: np.ndarray) -> tuple:
    """Row ``p`` of a boolean matrix as the int with bit ``q`` = ``mat[p, q]``."""
    return tuple(int.from_bytes(row.tobytes(), "little")
                 for row in np.packbits(mat, axis=1, bitorder="little"))


def _as_bool_matrix(rel) -> np.ndarray:
    mat = np.array(rel, dtype=bool)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise OrderError(f"relation must be square, got shape {mat.shape}")
    return mat


@dataclass(frozen=True, eq=False)
class QuasiOrder:
    """A reflexive and transitive relation on ``range(size)``.

    ``leq[p, q]`` holds iff ``p <= q``.  The strict relation ``p < q`` means
    ``p <= q`` and not ``q <= p`` (in a poset this is ``<=`` plus ``!=``).
    """

    leq: np.ndarray

    def __post_init__(self):
        mat = _as_bool_matrix(self.leq)
        n = mat.shape[0]
        if not mat[np.diag_indices(n)].all():
            raise OrderError("relation is not reflexive")
        if (np.matmul(mat, mat) & ~mat).any():
            raise OrderError("relation is not transitive")
        mat.flags.writeable = False
        object.__setattr__(self, "leq", mat)

    @property
    def size(self) -> int:
        return self.leq.shape[0]

    def le(self, p: int, q: int) -> bool:
        return bool(self.leq[p, q])

    def lt(self, p: int, q: int) -> bool:
        return bool(self.leq[p, q] and not self.leq[q, p])

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def up_masks(self) -> tuple:
        """``up_masks[p]`` is the bitmask of ``{q : p <= q}``."""
        return _row_masks(self.leq)

    @cached_property
    def down_masks(self) -> tuple:
        """``down_masks[p]`` is the bitmask of ``{q : q <= p}``."""
        return _row_masks(self.leq.T)

    @cached_property
    def dual(self) -> "QuasiOrder":
        """The opposite order (relation transposed)."""
        return QuasiOrder(self.leq.T.copy())

    @cached_property
    def is_poset(self) -> bool:
        return is_partial_order(self)

    @cached_property
    def _subset_cache(self) -> dict:
        # scratch cache for expensive per-subset verdicts; write-once per key
        return {}

    def __repr__(self):
        return f"QuasiOrder(size={self.size})"


SetLike = Union["Subset", int, Iterable[int]]


@dataclass(frozen=True)
class Subset:
    """A bitmask subset of a quasi order's carrier."""

    order: QuasiOrder
    mask: int

    def __post_init__(self):
        if self.mask & ~self.order.full_mask:
            raise OrderError("subset mask has bits outside the carrier")

    @classmethod
    def from_indices(cls, order: QuasiOrder, indices: Iterable[int]) -> "Subset":
        mask = 0
        for i in indices:
            if not 0 <= i < order.size:
                raise IndexError(f"element {i} out of range")
            mask |= 1 << i
        return cls(order, mask)

    @classmethod
    def full(cls, order: QuasiOrder) -> "Subset":
        return cls(order, order.full_mask)

    @classmethod
    def empty(cls, order: QuasiOrder) -> "Subset":
        return cls(order, 0)

    def indices(self) -> tuple:
        return tuple(bits(self.mask))

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def __contains__(self, p: int) -> bool:
        return bool((self.mask >> p) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self):
        return f"Subset{self.indices()}"


def mask_of(order: QuasiOrder, A: SetLike) -> int:
    """Coerce a :class:`Subset`, bitmask int, or index iterable to a bitmask."""
    if isinstance(A, Subset):
        if A.order is not order:
            raise OrderError("subset belongs to a different order")
        return A.mask
    if isinstance(A, int):
        if A & ~order.full_mask:
            raise OrderError("mask has bits outside the carrier")
        return A
    return Subset.from_indices(order, A).mask


@dataclass(frozen=True, eq=False)
class MonotoneMap:
    """A total order preserving map between two quasi orders.

    ``image[p]`` is the codomain index of element ``p``.  Construction fails
    unless the map is order preserving; order reflection is a cached flag.
    """

    dom: QuasiOrder
    cod: QuasiOrder
    image: tuple

    def __post_init__(self):
        img = tuple(int(v) for v in self.image)
        object.__setattr__(self, "image", img)
        if len(img) != self.dom.size:
            raise OrderError("image length does not match domain size")
        if img and not all(0 <= v < self.cod.size for v in img):
            raise OrderError("image value out of codomain range")
        for p in range(self.dom.size):
            up = self.dom.up_masks[p]
            for q in bits(up):
                if not self.cod.leq[img[p], img[q]]:
                    raise OrderError(
                        f"map is not order preserving at ({p}, {q})"
                    )

    def __call__(self, p: int) -> int:
        return self.image[p]

    @cached_property
    def is_order_reflecting(self) -> bool:
        img = self.image
        for p in range(self.dom.size):
            for q in range(self.dom.size):
                if self.cod.leq[img[p], img[q]] and not self.dom.leq[p, q]:
                    return False
        return True

    @cached_property
    def is_embedding(self) -> bool:
        return self.is_order_reflecting

    @cached_property
    def range_mask(self) -> int:
        m = 0
        for v in self.image:
            m |= 1 << v
        return m

    def range_subset(self) -> Subset:
        return Subset(self.cod, self.range_mask)

    def image_mask(self, A: SetLike) -> int:
        m = 0
        for p in bits(mask_of(self.dom, A)):
            m |= 1 << self.image[p]
        return m

    def __repr__(self):
        return f"MonotoneMap{self.image}"


# ---------------------------------------------------------------------------
# construction


def build_quasi_order(size: int, pairs: Iterable[tuple]) -> QuasiOrder:
    """Smallest reflexive-transitive relation on ``range(size)`` containing
    the generator ``pairs``."""
    rel = np.eye(size, dtype=bool)
    for a, b in pairs:
        if not (0 <= a < size and 0 <= b < size):
            raise IndexError(f"pair ({a}, {b}) out of range for size {size}")
        rel[a, b] = True
    while True:
        closed = rel | np.matmul(rel, rel)
        if np.array_equal(closed, rel):
            break
        rel = closed
    return QuasiOrder(rel)


def order_from_relation(rel) -> QuasiOrder:
    """Wrap an explicit boolean relation matrix, validating the axioms."""
    return QuasiOrder(_as_bool_matrix(rel).copy())


# ---------------------------------------------------------------------------
# basic interrogation


def is_partial_order(q: QuasiOrder) -> bool:
    """True iff the relation is also antisymmetric."""
    both = q.leq & q.leq.T
    return int(both.sum()) == q.size


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
    k = len(reps)
    rel = np.zeros((k, k), dtype=bool)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            rel[i, j] = q.leq[a, b]
    return QuasiOrder(rel), tuple(class_map)


def _require_poset(q: QuasiOrder):
    if not q.is_poset:
        raise OrderError("operation requires a partial order")


def sup(q: QuasiOrder, A: SetLike = 0) -> Optional[int]:
    """Least upper bound of ``A``, or ``None`` when it does not exist.

    ``sup(q, ())`` is the minimum element of the whole order, if any.
    """
    _require_poset(q)
    m = mask_of(q, A)
    ub = q.full_mask
    for a in bits(m):
        ub &= q.up_masks[a]
        if not ub:
            return None
    return least_element(q, ub)


def least_element(q: QuasiOrder, mask: int) -> Optional[int]:
    """The least member of ``mask``, or ``None`` when it has none.

    Among equivalent least members of a quasi order the lowest index wins.
    """
    for u in bits(mask):
        if mask & ~q.up_masks[u] == 0:
            return u
    return None


def inf(q: QuasiOrder, A: SetLike = 0) -> Optional[int]:
    """Greatest lower bound of ``A``; ``inf(q, ())`` is the maximum, if any."""
    return sup(q.dual, mask_of(q, A))


def minimal_elements(q: QuasiOrder) -> Subset:
    """Elements with nothing strictly below them."""
    mask = 0
    for p in range(q.size):
        if not any(q.lt(r, p) for r in bits(q.down_masks[p])):
            mask |= 1 << p
    return Subset(q, mask)


def positive_part(q: QuasiOrder) -> Subset:
    """Complement of the minimal elements."""
    return Subset(q, q.full_mask & ~minimal_elements(q).mask)


def are_incompatible(q: QuasiOrder, p: int, r: int) -> bool:
    """True when ``p`` and ``r`` have no common extension in the positive
    part, i.e. nothing nonminimal lies below both."""
    pos = positive_part(q).mask
    return q.down_masks[p] & q.down_masks[r] & pos == 0


def atoms(q: QuasiOrder) -> Subset:
    """Nonminimal elements that cannot be split into an incompatible pair.

    ``p`` splits when two nonminimal ``a, b <= p`` have no common nonminimal
    lower bound.  On a chain nothing is incompatible, so every nonminimal
    element of a chain is an atom.
    """
    pos = positive_part(q).mask
    out = 0
    for p in bits(pos):
        below = q.down_masks[p] & pos
        split = False
        items = list(bits(below))
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                if q.down_masks[a] & q.down_masks[b] & pos == 0:
                    split = True
                    break
            if split:
                break
        if not split:
            out |= 1 << p
    return Subset(q, out)


def is_atomic(q: QuasiOrder) -> bool:
    """Every nonminimal element has an atom below it."""
    at = atoms(q).mask
    return all(at & q.down_masks[p] for p in bits(positive_part(q).mask))


def is_atomless(q: QuasiOrder) -> bool:
    return atoms(q).mask == 0


# ---------------------------------------------------------------------------
# subsets derived from the order


def down_set(q: QuasiOrder, p: int) -> Subset:
    return Subset(q, q.down_masks[p])


def up_set(q: QuasiOrder, p: int) -> Subset:
    return Subset(q, q.up_masks[p])


def interval(q: QuasiOrder, p: int, r: int) -> Subset:
    """The interval ``[p, r] = {s : p <= s <= r}``."""
    return Subset(q, q.up_masks[p] & q.down_masks[r])


def upper_closure(q: QuasiOrder, A: SetLike) -> Subset:
    """Upper set generated by ``A``: everything above some member."""
    m = 0
    for a in bits(mask_of(q, A)):
        m |= q.up_masks[a]
    return Subset(q, m)


def lower_closure(q: QuasiOrder, A: SetLike) -> Subset:
    m = 0
    for a in bits(mask_of(q, A)):
        m |= q.down_masks[a]
    return Subset(q, m)


def is_upper_set(q: QuasiOrder, A: SetLike) -> bool:
    m = mask_of(q, A)
    return upper_closure(q, m).mask == m


def is_lower_set(q: QuasiOrder, A: SetLike) -> bool:
    m = mask_of(q, A)
    return lower_closure(q, m).mask == m


def is_directed(q: QuasiOrder, A: SetLike) -> bool:
    """Nonempty, and every two members have a common upper bound in ``A``."""
    m = mask_of(q, A)
    if not m:
        return False
    items = list(bits(m))
    for i, a in enumerate(items):
        for b in items[i:]:
            if q.up_masks[a] & q.up_masks[b] & m == 0:
                return False
    return True


def is_bounded_above(q: QuasiOrder, A: SetLike) -> bool:
    ub = q.full_mask
    for a in bits(mask_of(q, A)):
        ub &= q.up_masks[a]
    return ub != 0


def is_bounded_below(q: QuasiOrder, A: SetLike) -> bool:
    return is_bounded_above(q.dual, mask_of(q, A))


def induced_suborder(q: QuasiOrder, A: SetLike):
    """Restrict the order to ``A``.

    Returns ``(suborder, elements)`` where ``elements[i]`` is the carrier
    index represented by ``i`` in the suborder.
    """
    elems = tuple(bits(mask_of(q, A)))
    k = len(elems)
    rel = np.zeros((k, k), dtype=bool)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            rel[i, j] = q.leq[a, b]
    return QuasiOrder(rel), elems


def linear_extension(q: QuasiOrder) -> tuple:
    """Elements ordered compatibly with ``<=`` (smaller down-sets first)."""
    return tuple(sorted(range(q.size), key=lambda p: (q.down_masks[p].bit_count(), p)))


# ---------------------------------------------------------------------------
# JSON wire format


def order_to_json(q: QuasiOrder) -> dict:
    """``{"size": n, "pairs": [[a, b], ...]}`` with all strict related pairs."""
    pairs = [
        [p, r]
        for p in range(q.size)
        for r in range(q.size)
        if p != r and q.leq[p, r]
    ]
    return {"size": q.size, "pairs": pairs}


def order_from_json(obj: dict) -> QuasiOrder:
    """Read the generator format; the reflexive-transitive closure is taken."""
    try:
        size = int(obj["size"])
        pairs = [(int(a), int(b)) for a, b in obj.get("pairs", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise OrderError(f"malformed order object: {exc}") from exc
    return build_quasi_order(size, pairs)


def subset_to_json(s: Subset) -> list:
    return list(s.indices())


def subset_from_json(order: QuasiOrder, arr) -> Subset:
    return Subset.from_indices(order, (int(i) for i in arr))
