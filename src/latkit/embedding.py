"""Order-embedding censuses, continuity checks, and structure theorems.

The census enumerator is a generator: it backtracks over the domain's
elements in index order and yields each map, in ascending image order, as
the search reaches it, so no census is held (but for the interval search,
which sorts its maps at the end).  Each variable's candidates are the set
bits of an AND of codomain masks (strictly above, strictly below or
incomparable), one per assigned variable, so only injective, preserving and
reflecting choices are visited; the convex and lower-set filters prune
partial ranges ``rng`` whose convex hull ``up(rng) & down(rng)`` or
down-closure ``down(rng)`` already exceeds the domain size, and a convex
census of a domain with a bottom and a top searches only the intervals of
the domain's size.  Each map's range flags are read off the masks at its leaf.
The tests check the census against a naive one over all maps, with maps and
flags derived from the plain definitions.

One engine serves both product-form theorems: a convex-range embedding of
finite distributive lattices is ``D -> b | phi[D]`` on the down-sets of their
join-irreducibles (Birkhoff), which reads as ``a -> h[a] | b`` on power sets
and as the shifted partial projection ``x -> (x o g) + y`` on chain products.
"""

from __future__ import annotations

import itertools
import operator
from functools import cache
from typing import Iterator, Optional

from .builders import _relabeled_rows, enumerate_posets
from .order import (
    MonotoneMap,
    OrderError,
    QuasiOrder,
    _check_mask,
    _count,
    _require_poset,
    _unchecked,
    _upper_bounds,
    atoms,
    bits,
    induced_suborder,
    inf,
    linear_extension,
    lower_closure,
    sup,
    upper_closure,
    upper_sets,
)
from .lattice import (
    _largest_failing,
    _sup_failures,
    check_jid,
    classify,
    is_basis,
    is_convex,
    is_join_dense,
    is_lattice,
    is_meet_closed,
    is_preregular,
    is_strongly_interval_predense,
    is_sublattice,
    preregular_masks,
)

__all__ = [
    "BudgetExceededError",
    "PreconditionFailedError",
    "NotEmbeddingError",
    "NotConvexRangeError",
    "DecompositionMismatchError",
    "HypothesisFailed",
    "enumerate_embeddings",
    "enumerate_monotone_maps",
    "continuity_checks",
    "atom_image_check",
    "preregular_continuity_sweep",
    "birkhoff_formula_census",
    "birkhoff_decompose",
    "extend_from_join_dense",
    "check_transfer_setting",
    "verify_transfer_map",
    "verify_convexity_transfer",
]


class BudgetExceededError(RuntimeError):
    """The search exceeded its node-count cap."""


class PreconditionFailedError(ValueError):
    """An operation was applied to a map outside its stated precondition."""


class NotEmbeddingError(PreconditionFailedError):
    pass


class NotConvexRangeError(PreconditionFailedError):
    pass


class DecompositionMismatchError(RuntimeError):
    """A decomposition failed to reconstruct its map; this signals a theorem
    violation and must never occur on valid inputs."""


class HypothesisFailed(ValueError):
    """A named hypothesis of an extension theorem does not hold."""

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        super().__init__(f"hypothesis {hypothesis!r} failed"
                         + (f": {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# censuses


# one shared, read-only flags dict per (convex, preregular, lower set) value
_RANGE_FLAGS = {key: dict(zip(("embedding", "convex_range", "preregular_range",
                               "downward_closed_range"), (True, *key)))
                for key in itertools.product((False, True), repeat=3)}


def enumerate_embeddings(dom: QuasiOrder, cod: QuasiOrder, *,
                         convex_range: bool = False,
                         preregular_range: bool = False,
                         downward_closed_range: bool = False,
                         budget_nodes: Optional[int] = None) -> Iterator[tuple]:
    """Yield ``(image, flags)`` for each order embedding ``dom -> cod``, in
    ascending image order, as the backtracking search reaches it (an
    interval search, below, yields its maps only once it ends).

    Keyword filters restrict the census to maps whose range is convex,
    preregular, or a lower set.  ``flags`` is one of the read-only dicts of
    ``_RANGE_FLAGS``.  The candidates of each variable are the set bits of
    an AND of one codomain mask per assigned variable, so every visited
    candidate is already injective, preserving and reflecting on the
    assigned part; :class:`BudgetExceededError` is raised once the visited
    candidates pass ``budget_nodes``.  Nothing runs, so nothing is checked,
    before the first ``next()``.

    The variables are assigned in index order and each variable's
    candidates are tried in ascending order, so the leaves come in
    ascending image order.  Every leaf is an embedding, and its flags are
    exact without a second pass.  At a leaf the range ``rng`` has ``n``
    members.  The search keeps its up-closure ``ups`` and down-closure
    ``downs``.  The convex hull of ``rng`` is ``ups & downs``, the elements
    above one member and below another, and contains ``rng``, so the convex
    prune ``(ups & downs).bit_count() > n`` on the last variable is exactly
    ``ups & downs != rng``; likewise the lower-set prune is exactly ``downs
    != rng``.

    A convex range of a domain with a bottom and a top is an interval.  For
    every ``p``, ``s(bot) <= s(p) <= s(top)``, so the range lies inside
    ``I = [s(bot), s(top)]``; being convex and holding both ends, it holds
    all of ``I``.  So the range is ``I``, ``I`` has ``n`` elements, and ``s``
    is an isomorphism onto ``I``: each ``p`` goes to an element of ``I``
    with as many elements of ``I`` below and above it as ``p`` has in the
    domain.  So with ``convex_range`` on such a domain the bottom is
    assigned first, the top second and the rest along a linear extension; a
    top candidate counts as a node but is skipped unless ``I`` has ``n``
    elements, and every later variable draws only from the elements of
    ``I`` with its two counts.  This search keeps every map it finds until
    it ends, then sorts them and yields them, so it yields nothing before
    the search is done and a budget overrun yields no map.  Other domains
    keep the hull and lower-set prunes alone and yield each map at once.

    Preregularity serves as both filter and flag.  When the domain is a
    lattice it is decided from joins and meets.  The range ``A`` is
    isomorphic to the domain, so for every nonempty ``B`` inside ``A`` the
    set of upper bounds of ``B`` in ``A`` has a least element.  So ``A`` is
    upwards preregular iff every such ``B`` has a supremum in ``cod`` and
    that supremum lies in ``A``; as ``sup(B + {b}) = sup{sup B, b}``, by
    induction binary joins suffice, and the join of ``s(p)`` and ``s(q)``
    inside ``A`` is ``s(p v q)``.  So the verdict checks ``s(p v q) =
    sup{s(p), s(q)}`` and its dual for each incomparable pair, two
    ``up_index`` lookups.  On other domains it is :func:`_preserves_sups`
    on ``s`` and on the duals, as ``s`` preserves suprema iff the inclusion
    of ``A`` does.  Either runs once per distinct range of the census (a
    census of ``P(6)`` into itself has 720 maps and one range).
    """
    if not dom.is_poset or not cod.is_poset:
        raise OrderError("census requires partial orders")
    n, k = dom.size, cod.size
    order = range(n)
    bottom, top = sup(dom, 0), inf(dom, 0)
    interval = convex_range and bottom is not None and top is not None
    if interval:
        ends = (bottom,) if top == bottom else (bottom, top)
        order = ends + tuple(p for p in linear_extension(dom) if p not in ends)
    up_d, down_d = dom.up_masks, dom.down_masks
    # shape[p]: how many domain elements lie below and above p; allowed[p]:
    # the candidates of p inside the current interval, else every element
    shape = [(down_d[p].bit_count(), up_d[p].bit_count()) for p in range(n)]
    allowed = [cod.full_mask] * n
    image = [-1] * n
    nodes = 0
    up_c, down_c = cod.up_masks, cod.down_masks
    above = [up_c[c] & ~(1 << c) for c in range(k)]
    below = [down_c[c] & ~(1 << c) for c in range(k)]
    apart = [cod.full_mask & ~(up_c[c] | down_c[c]) for c in range(k)]
    # per depth: (q, table) for each earlier variable q, where table[image[q]]
    # is the set of images allowed by how q relates to this depth's variable
    constraints = [
        [(q, above if up_d[q] >> p & 1 else below if up_d[p] >> q & 1
          else apart) for q in order[:d]]
        for d, p in enumerate(order)
    ]
    preregular = {}  # range mask -> whether that range is preregular
    lattice_dom = is_lattice(dom)
    if lattice_dom:
        # (p, q, p v q, p ^ q) for each incomparable pair
        join_d, meet_d = dom.up_index, dom.dual.up_index
        pairs = [(p, q, join_d[up_d[p] & up_d[q]], meet_d[down_d[p] & down_d[q]])
                 for p in range(n) for q in range(p)
                 if not (up_d[p] >> q & 1 or up_d[q] >> p & 1)]
        join_at, meet_at = cod.up_index, cod.dual.up_index
    kept = []  # the interval search's maps
    # per depth: the untried candidates (-1 before the first), and the partial
    # range with its upper and lower closures, whose AND is its convex hull
    left = [-1] * (n + 1)
    state = [(0, 0, 0)] * (n + 1)
    depth = 0
    while depth >= 0:
        rng, ups, downs = state[depth]
        cands = left[depth]
        if depth == n:  # a leaf: every variable is assigned
            prereg = preregular.get(rng)
            if prereg is None:
                prereg = preregular[rng] = all(
                    join_at.get(up_c[image[p]] & up_c[image[q]]) == image[j]
                    and meet_at.get(down_c[image[p]] & down_c[image[q]]) == image[m]
                    for p, q, j, m in pairs
                ) if lattice_dom else (_preserves_sups(dom, cod, image) and
                                       _preserves_sups(dom.dual, cod.dual, image))
            if prereg or not preregular_range:
                found = tuple(image), _RANGE_FLAGS[ups & downs == rng, prereg,
                                                   downs == rng]
                if interval:
                    kept.append(found)
                else:
                    yield found
            cands = 0  # nothing to try here: back up a level
        elif cands < 0:
            cands = allowed[order[depth]]
            for q, table in constraints[depth]:
                cands &= table[image[q]]
        while cands:
            low = cands & -cands
            cands ^= low
            c = low.bit_length() - 1
            nodes += 1
            if budget_nodes is not None and nodes > budget_nodes:
                raise BudgetExceededError(
                    f"node budget {budget_nodes} exceeded")
            if interval and depth == 1:  # c is the top's image
                span = ups & down_c[c]
                if span.bit_count() != n:
                    continue
                by_shape = {}
                for e in bits(span):
                    key = ((down_c[e] & span).bit_count(),
                           (up_c[e] & span).bit_count())
                    by_shape[key] = by_shape.get(key, 0) | 1 << e
                for v in order[2:]:
                    allowed[v] = by_shape.get(shape[v], 0)
            u, dn = ups | up_c[c], downs | down_c[c]
            if convex_range and (u & dn).bit_count() > n:
                continue
            if downward_closed_range and dn.bit_count() > n:
                continue
            image[order[depth]] = c
            left[depth] = cands
            depth += 1
            left[depth] = -1
            state[depth] = rng | low, u, dn
            break
        else:
            depth -= 1
    yield from sorted(kept)


def enumerate_monotone_maps(dom: QuasiOrder, cod: QuasiOrder) -> Iterator[tuple]:
    """Yield every order preserving image tuple, by raw product scan."""
    n, k = dom.size, cod.size
    strict = [(p, q) for p in range(n) for q in bits(dom.up_masks[p]) if p != q]
    for img in itertools.product(range(k), repeat=n):
        if all(cod.le(img[p], img[q]) for p, q in strict):
            yield img


# ---------------------------------------------------------------------------
# continuity and range structure


def continuity_checks(sigma: MonotoneMap) -> dict:
    """Preservation of nonempty suprema/infima and of directed bounds.

    Both suprema depend on ``B`` only through the upper bounds of ``B`` and
    of its image, so the scan runs over one class per member of
    :func:`intersection_closure`.  A finite nonempty set is directed iff it
    has a greatest element ``g``, and its class is then the key of ``g``.
    Monotone maps between finite posets are therefore always Scott
    continuous; the flag is still computed, not assumed.
    """
    dom, cod = sigma.dom, sigma.cod
    if dom.size:
        _require_poset(dom)
        _require_poset(cod)
    keys, _, bad = _sup_failures(dom, cod, sigma.image, range(dom.size))
    co_keys, _, co_bad = _sup_failures(dom.dual, cod.dual, sigma.image, range(dom.size))
    return {
        "preserves_nonempty_sups": not bad,
        "preserves_nonempty_infs": not co_bad,
        "scott_continuous": not any(k in bad for k in keys.values()),
        "co_continuous": not any(k in co_bad for k in co_keys.values()),
    }


def _preserves_sups(dom: QuasiOrder, cod: QuasiOrder, image) -> bool:
    """The ``preserves_nonempty_sups`` flag of :func:`continuity_checks`."""
    return not _sup_failures(dom, cod, image, range(dom.size))[2]


def atom_image_check(sigma: MonotoneMap) -> bool:
    """Image of the atoms equals the atoms of the range's suborder.

    Requires an order preserving and reflecting map.
    """
    if not sigma.is_embedding:
        raise PreconditionFailedError("map is not order reflecting")
    img_atoms = sigma.image_mask(atoms(sigma.dom))
    return img_atoms == atoms(sigma.cod, sigma.range_mask)


def preregular_continuity_sweep(max_size: int) -> dict:
    """Every embedding ``P -> Q`` with preregular range preserves nonempty
    suprema and infima, over every pair of posets with
    ``1 <= |P| <= |Q| <= max_size``, decided once per codomain ``Q`` and
    preregular range ``R``, not once per pair.

    An embedding ``P -> Q`` is an isomorphism of ``P`` onto its range ``R``
    that sends the supremum of ``B`` in ``P`` to that of its image in ``R``,
    so it preserves nonempty suprema and infima iff the inclusion ``R -> Q``
    does.  The inclusion does iff ``R`` is preregular: both checks are one
    function, ``lattice._sup_failures``, which compares, per class of upper
    bounds of a nonempty ``B`` in ``R``, its least member inside ``R`` with
    its least member in ``Q``; :func:`preregularity_witness` runs it on the
    inclusion (and on the duals for infima).  So no embedding this sweep
    counts can fail, ``violations`` is always empty, and the tests compare
    that claim with a continuity check of every inclusion and every census
    map.

    The embeddings with range ``R`` number ``|Aut(P)|`` for the one class
    ``P`` of the induced suborder on ``R`` and none for any other, so each
    range from :func:`preregular_masks` adds ``|Aut|``, the count of the
    least rows among the suborder's relabeled rows (:func:`canonical_key`),
    memoized on its up-masks; ``pairs`` comes from the level sizes.
    """
    max_size = _count(max_size, "a sweep's largest size")
    levels = [enumerate_posets(n) for n in range(1, max_size + 1)]
    counts = [len(level) for level in levels]
    # a codomain of size n pairs with every domain of size at most n
    pairs = sum(map(operator.mul, counts, itertools.accumulate(counts)))
    automorphisms = {}
    embeddings = 0

    @cache
    def renumber(rmask: int, mask: int) -> int:
        """``mask``, a subset of ``rmask``, on the indices of the suborder."""
        return sum(1 << j for j, b in enumerate(bits(rmask)) if mask >> b & 1)

    for level in levels:
        for cod in level:
            up = cod.up_masks
            for rmask in preregular_masks(cod)[1:]:  # the empty set is first
                key = tuple([renumber(rmask, up[a] & rmask) for a in bits(rmask)])
                aut = automorphisms.get(key)
                if aut is None:
                    rows = list(_relabeled_rows(
                        _unchecked(QuasiOrder, up_masks=key, is_poset=True)))
                    aut = automorphisms[key] = rows.count(min(rows))
                embeddings += aut
    return {
        "pairs": pairs,
        "embeddings": embeddings,
        "violations": [],
        "holds": True,
    }


# ---------------------------------------------------------------------------
# Birkhoff form: both product theorems


@cache
def _birkhoff_labels(L: QuasiOrder) -> tuple:
    """``(J, steps, jset, index)`` for a finite distributive lattice ``L``,
    computed once per order object.

    ``J`` is the suborder of the join-irreducibles: the elements whose
    strict down-set has a greatest element, one ``L.dual.up_index`` lookup
    each (the bottom's is empty, so it has none).  ``steps[i]`` is ``(p,
    p_)`` for the element ``p`` that label ``i`` of ``J`` stands for and its
    one lower cover ``p_``.  ``jset[x]`` is the mask of the labels below
    ``x``, and ``index`` maps it back to ``x``.

    In a finite lattice each ``x`` is the join of the join-irreducibles
    below it, so ``x -> jset[x]`` is injective into the down-sets of ``J``;
    it is onto them iff ``L`` is distributive (Birkhoff, "Rings of sets",
    1937).  So counting the down-sets decides distributivity, and anything
    else raises :class:`PreconditionFailedError`.
    """
    if not (L.size and L.is_poset and is_lattice(L)):
        raise PreconditionFailedError("the Birkhoff form needs a lattice")
    down, greatest = L.down_masks, L.dual.up_index
    steps = tuple((p, greatest[down[p] & ~(1 << p)]) for p in range(L.size)
                  if down[p] & ~(1 << p) in greatest)
    J, elems = induced_suborder(L, sum(1 << p for p, _ in steps))
    jset = tuple(sum(1 << i for i, p in enumerate(elems) if down[x] >> p & 1)
                 for x in range(L.size))
    try:
        distributive = len(upper_sets(J.dual)) == L.size
    except OrderError:  # more down-sets than MAX_CLOSURE_SIZE, so than L.size
        distributive = False
    if not distributive:
        raise PreconditionFailedError("lattice is not distributive")
    return J, steps, jset, {m: x for x, m in enumerate(jset)}


def _moved(phi: tuple, jset: tuple) -> list:
    """``phi[jset[x]]`` for each ``x``, as masks of codomain labels."""
    return [sum(1 << phi[i] for i in bits(m)) for m in jset]


def birkhoff_formula_census(L: QuasiOrder, M: QuasiOrder, *,
                            budget_nodes: Optional[int] = None) -> tuple:
    """Image tuples of every map ``x -> b | phi[jset(x)]`` of finite
    distributive lattices, read on the join-irreducible labels of
    :func:`birkhoff_decompose`; sorted.

    ``phi`` runs over the convex-range census ``J(L) -> J(M)``, capped by
    ``budget_nodes``, and ``b`` over the down-sets of ``J(M)`` disjoint
    from ``C = phi[J(L)]`` whose union with ``C`` is a down-set.
    """
    J_L, _, jset_l, _ = _birkhoff_labels(L)
    J_M, _, _, index_m = _birkhoff_labels(M)
    out = []
    for phi, _ in enumerate_embeddings(J_L, J_M, convex_range=True,
                                       budget_nodes=budget_nodes):
        moved = _moved(phi, jset_l)
        c = sum(1 << j for j in phi)
        # the down-sets of J(M) are the keys of index_m
        out.extend(tuple(index_m[b | m] for m in moved)
                   for b in index_m if not b & c and b | c in index_m)
    return tuple(sorted(out))


def birkhoff_decompose(sigma: MonotoneMap) -> tuple:
    """``(phi, b)`` with ``sigma(x) = b | phi[jset(x)]`` on the
    join-irreducible labels, for a convex-range embedding of finite
    distributive lattices.

    ``b`` is the labels below the image of the bottom, and ``phi(p)`` the
    one label below ``sigma(p)`` and not below ``sigma(p_)``, for ``p_`` the
    lower cover of ``p``.  Any failure after the precondition checks is a
    :class:`DecompositionMismatchError` (it would contradict the theorem).

    The abstract's two forms are readings of ``(phi, b)``.  On
    ``powerset_lattice(n)`` label ``i`` is the singleton ``{i}`` and
    ``jset(a) = a``, so ``phi`` *is* ``h`` in ``a -> h[a] | b`` and ``b`` is
    the baseline mask.  On ``chain_product(dims)`` the labels of chain ``i``
    are its points above 0, in order and chain by chain; ``phi`` sends
    domain chain ``i`` onto a segment of one codomain chain ``j``, the pair
    ``(j, i)`` of ``g`` in ``x -> (x o g) + y``, and ``y_j`` is the number
    of chain-``j`` labels in ``b``.
    """
    if not sigma.is_embedding:
        raise NotEmbeddingError("map is not an order embedding")
    if not sigma.has_convex_range:
        raise NotConvexRangeError("range is not convex")
    _, steps, jset_l, index_l = _birkhoff_labels(sigma.dom)
    _, _, jset_m, index_m = _birkhoff_labels(sigma.cod)
    image = sigma.image
    b = jset_m[image[index_l[0]]]
    phi = []
    for p, lower in steps:
        new = jset_m[image[p]] & ~jset_m[image[lower]]
        if new.bit_count() != 1:
            raise DecompositionMismatchError(
                f"join-irreducible {p} does not add one label")
        phi.append(new.bit_length() - 1)
    if image != tuple(index_m.get(b | m) for m in _moved(phi, jset_l)):
        raise DecompositionMismatchError("reconstruction differs from the map")
    return tuple(phi), b


# ---------------------------------------------------------------------------
# extension from a join-dense subset


def _hypothesis(name: str, ok: bool, detail: str = ""):
    if not ok:
        raise HypothesisFailed(name, detail)


def _check_sigma_hypotheses(L: QuasiOrder, dmask: int, sigma: dict,
                            M: QuasiOrder):
    if set(sigma) != set(bits(dmask)):
        raise PreconditionFailedError("sigma must be defined exactly on D")
    _hypothesis("M-complete-semilattice", classify(M)["complete_semilattice"])
    _hypothesis("D-join-dense", is_join_dense(L, dmask))
    _hypothesis("D-meet-subsemilattice", is_meet_closed(L, dmask))
    for d in bits(dmask):
        for e in bits(dmask):
            if L.le(d, e) and not M.le(sigma[d], sigma[e]):
                raise HypothesisFailed("sigma-order-preserving", f"({d},{e})")
    _check_sigma_bounds(L, dmask, sigma, M)


def _check_sigma_bounds(L: QuasiOrder, dmask: int, sigma: dict, M: QuasiOrder):
    keys, classes, bad = _sup_failures(L, M, sigma, bits(dmask))
    if bad:
        raise HypothesisFailed("sigma-preserves-sups-in-L",
                               f"B={list(bits(_largest_failing(keys, bad)[0]))}")
    bad = {ub for ub in classes if ub & L.full_mask and not ub >> L.size}
    if bad:
        raise HypothesisFailed("sigma-preserves-boundedness-in-L",
                               f"A={list(bits(_largest_failing(keys, bad)[0]))}")


def _sup_extension(L: QuasiOrder, dmask: int, sigma: dict,
                   M: QuasiOrder) -> MonotoneMap:
    """``p -> sup sigma(D & down(p))``, monotone as that set grows with ``p``,
    so it is built unchecked; each bound is one ``up_index`` lookup, as in
    :func:`order.sup`."""
    _require_poset(M)
    image = []
    for p in range(L.size):
        below = sum({1 << sigma[d] for d in bits(dmask & L.down_masks[p])})
        s = M.up_index.get(_upper_bounds(M, below))
        if s is None:
            raise RuntimeError("bounded image lost its supremum")
        image.append(s)
    return _unchecked(MonotoneMap, dom=L, cod=M, image=tuple(image))


def extend_from_join_dense(L: QuasiOrder, D: int, sigma: dict,
                           M: QuasiOrder) -> MonotoneMap:
    """Extend a map off a join-dense meet subsemilattice to all of ``L``.

    Each hypothesis is checked, not assumed, and a failure raises
    :class:`HypothesisFailed` naming the violated clause; for a clause about
    every subset of ``D``, the detail is the numerically largest violating
    subset.  The extension sends ``p`` to the supremum of the images of the
    members of ``D`` below ``p``, which pins it down uniquely wherever that
    set is nonempty.
    """
    dmask = _check_mask(L, D)
    sigma = {int(k): int(v) for k, v in sigma.items()}
    _check_sigma_hypotheses(L, dmask, sigma, M)
    out = _sup_extension(L, dmask, sigma, M)
    if any(out.image[d] != sigma[d] for d in bits(dmask)):
        raise RuntimeError("extension failed to extend")
    if not _preserves_sups(L, M, out.image):
        raise RuntimeError("extension lost continuity")
    return out


def check_transfer_setting(L: QuasiOrder, B: int, E: int,
                           M: QuasiOrder):
    """The hypotheses of :func:`verify_convexity_transfer` that do not
    involve ``sigma``, in its order, raising :class:`HypothesisFailed`.
    ``M`` is flat-complete once ``M-lattice`` holds: in a finite lattice
    every subset, flat or not, has a supremum."""
    bmask = _check_mask(L, B)
    emask = _check_mask(M, E)
    for name, q in (("L", L), ("M", M)):
        flags = classify(q)
        _hypothesis(f"{name}-complete-semilattice", flags["complete_semilattice"])
        _hypothesis(f"{name}-lattice", flags["lattice"])
        _hypothesis(f"{name}-jid", check_jid(q)["holds"])
    bottom = sup(L, 0)
    _hypothesis("B-contains-0", bottom is not None and (bmask >> bottom) & 1)
    _hypothesis("B-meet-subsemilattice", is_meet_closed(L, bmask))
    _hypothesis("B-strongly-interval-predense",
                is_strongly_interval_predense(L, bmask))
    _hypothesis("B-basis", is_basis(L, bmask))
    _hypothesis("E-join-dense", is_join_dense(M, emask))
    _hypothesis("E-preregular", is_preregular(M, emask))
    _hypothesis("E-sublattice", is_sublattice(M, emask))


def verify_transfer_map(L: QuasiOrder, B: int, E: int,
                        M: QuasiOrder, sigma: dict) -> dict:
    """The ``sigma-*`` hypotheses of :func:`verify_convexity_transfer` and
    its report, in a setting that :func:`check_transfer_setting` passed."""
    bmask = _check_mask(L, B)
    emask = _check_mask(M, E)
    sigma = {int(k): int(v) for k, v in sigma.items()}
    _hypothesis("sigma-defined-on-B", set(sigma) == set(bits(bmask)))
    rng_mask = 0
    for v in sigma.values():
        rng_mask |= 1 << v
    _hypothesis("sigma-range-in-E", rng_mask & ~emask == 0)
    _hypothesis("sigma-embedding", all(
        M.le(sigma[a], sigma[b]) == L.le(a, b)
        for a in bits(bmask) for b in bits(bmask)))
    hull = upper_closure(M, rng_mask) & lower_closure(M, rng_mask)
    _hypothesis("sigma-convex-in-E", hull & emask & ~rng_mask == 0)
    _check_sigma_bounds(L, bmask, sigma, M)

    ext = _sup_extension(L, bmask, sigma, M)
    found = _preserves_sups(L, M, ext.image)
    convex = is_convex(M, ext.range_mask)
    embedding = ext.is_embedding
    return {
        "holds": found and convex and embedding,
        "extension": list(ext.image),
        "unique": found,
        "convex_range": convex,
        "embedding": embedding,
        "extensions_found": int(found),
    }


def verify_convexity_transfer(L: QuasiOrder, B: int, E: int,
                              M: QuasiOrder, sigma: dict) -> dict:
    """Extension of a convex-range embedding off a basis stays convex.

    Hypotheses: ``L`` and ``M`` lattices and complete semilattices with the
    join-infinite distributive law, ``M`` flat-complete (a finite lattice
    is complete, so it is), ``B`` a strongly interval predense basis
    containing the bottom, ``E`` a join-dense preregular sublattice of
    ``M``, and ``sigma`` an embedding of ``B`` into ``E`` whose range is
    convex inside ``E``.  Verifies existence, uniqueness, and convex range
    of the extension.

    The extension is decided from one candidate.  A basis is join-dense
    (each element is the supremum of a family from ``B``, hence of all of
    ``B`` below it), and ``B`` holds the bottom, so every ``x`` is the
    supremum of the nonempty set ``B & down(x)``.  An extension of ``sigma``
    that preserves nonempty suprema must send ``x`` to ``sup sigma(B &
    down(x))``, the map :func:`extend_from_join_dense` builds, which agrees
    with the monotone ``sigma`` on ``B``.  So there is at most one, and it
    exists iff that map preserves nonempty suprema: ``extensions_found`` is
    0 or 1, and ``unique`` means it is 1.
    """
    check_transfer_setting(L, B, E, M)
    return verify_transfer_map(L, B, E, M, sigma)
