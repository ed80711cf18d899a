"""Constructors and enumerators for small orders.

Power sets use the mask convention: element ``i`` of ``powerset_lattice(n)``
is the subset of the ground set ``range(n)`` with bitmask ``i``, ordered by
inclusion.  Chain products index vectors in mixed radix, least significant
coordinate first.
"""

from __future__ import annotations

import functools
import itertools
import math

from .order import (
    OrderError,
    QuasiOrder,
    _count,
    _unchecked,
    bits,
    build_quasi_order,
    upper_sets,
)
from .lattice import is_lattice

__all__ = [
    "chain",
    "antichain",
    "diamond",
    "m3",
    "n5",
    "bowtie",
    "powerset_lattice",
    "is_powerset_order",
    "chain_product",
    "enumerate_posets",
    "enumerate_lattices",
    "canonical_key",
    "MAX_ENUMERATION_SIZE",
]

# 16,999 posets on 8 elements take seconds; the 183,231 on 9 would take hours
MAX_ENUMERATION_SIZE = 8


def chain(n: int) -> QuasiOrder:
    """The linear order 0 < 1 < ... < n-1."""
    n = _count(n, "a chain's length")
    full = (1 << n) - 1
    return QuasiOrder(tuple(full ^ ((1 << p) - 1) for p in range(n)))


def antichain(n: int) -> QuasiOrder:
    n = _count(n, "an antichain's size")
    return QuasiOrder(tuple(1 << p for p in range(n)))


def diamond() -> QuasiOrder:
    """Bottom 0, incomparable 1 and 2, top 3."""
    return build_quasi_order(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def m3() -> QuasiOrder:
    """Bottom 0, three pairwise incomparable middles 1,2,3, top 4."""
    return build_quasi_order(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def n5() -> QuasiOrder:
    """The pentagon: 0 < 1 < 2 < 4 and 0 < 3 < 4."""
    return build_quasi_order(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def bowtie() -> QuasiOrder:
    """Two minimal elements 0,1 each below two maximal elements 2,3."""
    return build_quasi_order(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


def powerset_lattice(n: int) -> QuasiOrder:
    """Power-set lattice of an ``n``-element ground set; element = bitmask.
    It is the order of the cube ``C_2^n``, and every call for one ``n``
    returns the same object."""
    return _cube(_count(n, "a ground set's size"))


def is_powerset_order(q: QuasiOrder) -> bool:
    """Check that ``q`` is a power-set lattice in the mask convention."""
    n = q.size.bit_length() - 1
    return q.size > 0 and q.up_masks == powerset_lattice(n).up_masks


def chain_product(dims) -> QuasiOrder:
    """Product of finite chains ``C_{dims[0]} x ... x C_{dims[-1]}`` with
    the componentwise order, its elements in mixed radix, least significant
    coordinate first: coordinate ``i`` of ``x`` is ``x // stride % dims[i]``
    with ``stride`` the product of the heights before ``i``.  ``up(x)`` is
    the AND over coordinates ``i`` of the mask of the elements at least as
    high as ``x`` on ``i``."""
    dims = tuple(_count(d, "a chain height", 1) for d in dims)
    size = math.prod(dims)
    ups = [(1 << size) - 1] * size
    stride = 1
    for d in dims:
        coord = [x // stride % d for x in range(size)]
        at_least = [sum(1 << y for y in range(size) if coord[y] >= t)
                    for t in range(d)]
        ups = [up & at_least[t] for up, t in zip(ups, coord)]
        stride *= d
    return QuasiOrder(tuple(ups))


@functools.cache
def _cube(n: int) -> QuasiOrder:
    """``C_2^n``, built once per ``n``.  In base 2 the index of a 0/1
    vector is the bitmask of its support, so its order is the subset
    lattice of ``range(n)`` label for label."""
    return chain_product((2,) * n)


# ---------------------------------------------------------------------------
# enumeration of small posets up to isomorphism


def _relabeled_rows(q: QuasiOrder):
    """The rows of the poset ``q`` under each relabeling that keeps the
    (indegree, outdegree) profile: row ``r`` under ``perm`` is the set
    ``{b : perm[r] <= perm[b]}``, its little-endian bytes read big-endian."""
    width = (q.size + 7) // 8
    # encoding bit b = 8 * k + t: byte k is read first, so it is most significant
    weight = [1 << (8 * (width - 1 - b // 8) + b % 8) for b in range(q.size)]
    ups = [tuple(bits(m)) for m in q.up_masks]
    groups = {}
    for p, (down, up) in enumerate(zip(q.down_masks, q.up_masks)):
        groups.setdefault((down.bit_count(), up.bit_count()), []).append(p)

    def rows(parts):
        perm = [p for part in parts for p in part]
        at = dict(zip(perm, weight))
        return [sum(map(at.__getitem__, ups[i])) for i in perm]

    return map(rows, itertools.product(
        *(itertools.permutations(groups[k]) for k in sorted(groups))))


def canonical_key(q: QuasiOrder) -> bytes:
    """Isomorphism-invariant canonical encoding of a poset: its size, then
    the least rows of :func:`_relabeled_rows`; ``enumerate_posets`` keys and
    sorts classes by this.  The 8-element antichain still has 8! relabelings,
    so enumeration stops at ``MAX_ENUMERATION_SIZE``.

    An automorphism keeps each element's profile, so it permutes within the
    profile cells: a relabeling composed with one gives the same rows, and
    two relabelings with equal rows differ by one.  So each rows value, the
    least one too, occurs exactly ``|Aut(q)|`` times.
    """
    width = (q.size + 7) // 8
    return bytes([q.size]) + b"".join(
        row.to_bytes(width, "big") for row in min(_relabeled_rows(q)))


def _extensions(q: QuasiOrder):
    """Each poset made from the poset ``q`` by adjoining a new maximal
    element ``k = q.size`` above a lower set ``low``, in ascending order of
    ``low``, built unchecked.  It is a poset: ``k`` lies below nothing
    else, and what lies below ``k`` is ``low``, which is closed downwards.
    So ``down(k) = low | 1 << k``, and every other down-set is the same as
    in ``q``, since nothing lies above ``k``."""
    k = q.size
    downs = q.down_masks
    for low in upper_sets(q.dual):
        yield _unchecked(
            QuasiOrder,
            up_masks=tuple(up | (low >> p & 1) << k
                           for p, up in enumerate(q.up_masks)) + (1 << k,),
            down_masks=downs + (low | 1 << k,), is_poset=True)


@functools.cache
def _level(n: int) -> tuple:
    """The ``n``-element posets, one per class, each its own canonical form,
    in ``canonical_key`` order; built once per process.  Up to
    ``MAX_ENUMERATION_SIZE`` = 8 elements a key row is one byte, the up-mask
    of its element, so a key reads back as a poset.  Its labels come in
    sorted profile-cell order, so its compatible relabelings are the
    original's, and the identity already gives the minimum: its key is the
    one it was read from."""
    if n == 1:
        return (chain(1),)
    keys = {canonical_key(c) for q in _level(n - 1) for c in _extensions(q)}
    return tuple(_unchecked(QuasiOrder, up_masks=tuple(key[1:]), is_poset=True)
                 for key in sorted(keys))


def _check_enumeration_size(n: int, limit: int = MAX_ENUMERATION_SIZE) -> int:
    n = _count(n, "an enumeration size")
    if n > limit:
        raise OrderError(f"enumeration is limited to {limit} elements, got {n}")
    return n


def enumerate_posets(n: int):
    """All posets with exactly ``n`` elements, one per isomorphism class,
    sorted by ``canonical_key``; ``n > MAX_ENUMERATION_SIZE`` raises.

    Built by repeatedly adjoining a new maximal element above a lower set,
    which reaches every finite poset; each class is the poset its key reads
    back as, so the list does not depend on the order of generation.
    Levels are cached per process, so the immutable posets are shared
    between calls; the list is new on every call.
    """
    n = _check_enumeration_size(n)
    return list(_level(n)) if n >= 1 else []


def _bounded(q: QuasiOrder) -> QuasiOrder:
    """``q`` with a new bottom ``0`` and a new top ``q.size + 1``, its own
    elements moved up by one, built unchecked.  A new least and a new
    greatest element keep a poset a poset.  The bottom lies below every
    element and the top above every one, so the down-masks are ``1``, each
    old one shifted up with the bottom added, and the full mask."""
    n = q.size + 2
    full, top = (1 << n) - 1, 1 << n - 1
    return _unchecked(
        QuasiOrder, up_masks=(full, *(up << 1 | top for up in q.up_masks), top),
        down_masks=(1, *(down << 1 | 1 for down in q.down_masks), full),
        is_poset=True)


def enumerate_lattices(n: int):
    """All lattices with exactly ``n`` elements, one per isomorphism class,
    each its own canonical form in ``canonical_key`` order up to 9
    elements.  Built from level ``n - 2``: for ``n > 2`` each lattice has
    its bottom at 0 and its top at ``n - 1``.  So ``n - 2`` is held to
    ``MAX_ENUMERATION_SIZE``, and ``n`` may pass it by two.

    A finite lattice with ``n >= 2`` elements has a bottom and a top, and
    what is left without them is an arbitrary ``(n - 2)``-element poset.
    So adding a new bottom and a new top to one representative of each
    class of ``enumerate_posets(n - 2)`` and keeping the lattices gives each
    lattice class exactly once: isomorphic lattices have isomorphic middles.
    Sizes up to 2 filter ``enumerate_posets(n)``.  Up to
    ``MAX_ENUMERATION_SIZE`` the list equals that filter for every ``n``,
    ``up_masks`` for ``up_masks``.

    Each is its own canonical form: the middles are, and in a lattice's key
    the bottom and the top sit alone in the first and last profile cells,
    while each middle row moves up one bit within the first byte, up to 9
    elements.  At 10 the last bit moves into the second byte: only 4,985 of
    the 5,994 lattices are canonical, and they are not in key order.
    """
    n = _check_enumeration_size(n, MAX_ENUMERATION_SIZE + 2)
    if n <= 2:
        return [q for q in enumerate_posets(n) if is_lattice(q)]
    return list(filter(is_lattice, map(_bounded, enumerate_posets(n - 2))))
