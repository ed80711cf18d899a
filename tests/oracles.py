"""Definition-level oracles that only the tests use: a naive embedding
census over every map with flags from the plain definitions, order
reflection by its pairwise definition, the per-pair continuity check of
preregular-range embeddings, the order-closedness report of a map's range,
a seeded random lattice generator, the Boolean algebras by their
definition, directedness and boundedness of a subset, an order read from
a boolean relation matrix, a relabeled copy of an order, the seeded
per-law loops over drawn vectors of ``N^d`` that the scalar grid of the
monoid laws replaced, and the monoid laws of a finite table, each in its
own loop over every instance."""

import itertools
import random

from latkit.embedding import (
    BudgetExceededError,
    continuity_checks,
    enumerate_embeddings,
    enumerate_monotone_maps,
)
from latkit.lattice import (
    is_convex,
    is_lattice,
    is_preregular,
    order_closed_checks,
)
from latkit.monoid import (
    MAX_SAMPLED_SET_SIZE,
    SAMPLE_BOUND,
    MonoidError,
    associated_order,
)
from latkit.order import (
    MonotoneMap,
    OrderError,
    QuasiOrder,
    _upper_bounds,
    bits,
    build_quasi_order,
    inf,
    lower_closure,
    mask_of,
    sup,
)


def range_flags(dom: QuasiOrder, cod: QuasiOrder, image: tuple) -> dict:
    """The range flags of one embedding, from the plain definitions."""
    rmask = 0
    for v in image:
        rmask |= 1 << v
    return {
        "embedding": True,
        "convex_range": is_convex(cod, rmask),
        "preregular_range": is_preregular(cod, rmask),
        "downward_closed_range": lower_closure(cod, rmask).mask == rmask,
    }


def is_order_reflecting(sigma: MonotoneMap) -> bool:
    """``image[p] <= image[q]`` implies ``p <= q``, pair by pair."""
    img, dom, cod = sigma.image, sigma.dom, sigma.cod
    return all(dom.le(p, q) for p in range(dom.size) for q in range(dom.size)
               if cod.le(img[p], img[q]))


def verify_preregular_continuity(P: QuasiOrder, Q: QuasiOrder, *,
                                 budget_nodes=None) -> dict:
    """The per-pair form of ``preregular_continuity_sweep``: one census of
    the preregular-range embeddings ``P -> Q`` and one continuity check per
    map; every map that drops a nonempty supremum or infimum is a
    violation."""
    census = enumerate_embeddings(P, Q, preregular_range=True,
                                  budget_nodes=budget_nodes)
    violations = []
    for mm in census.maps:
        cont = continuity_checks(mm)
        if not (cont["preserves_nonempty_sups"] and cont["preserves_nonempty_infs"]):
            violations.append({"image": list(mm.image), "continuity": cont})
    return {
        "embeddings": len(census),
        "violations": violations,
        "holds": not violations,
    }


def range_property_checks(sigma: MonotoneMap) -> dict:
    """Order-closedness flags of the range, and whether the range is the
    interval between the images of the extrema (when the domain has them)."""
    cod = sigma.cod
    rmask = sigma.range_mask
    oc = order_closed_checks(cod, rmask)
    out = {
        "up_boc_range": oc["up_boc"],
        "down_oc_range": oc["down_oc"],
        "order_closed_range": oc["up_oc"] and oc["down_oc"],
    }
    bottom = sup(sigma.dom, 0)
    top = inf(sigma.dom, 0)
    if bottom is None or top is None:
        out["interval_range"] = None
    else:
        lo, hi = sigma.image[bottom], sigma.image[top]
        out["interval_range"] = rmask == cod.up_masks[lo] & cod.down_masks[hi]
    return out


def naive_embedding_census(dom: QuasiOrder, cod: QuasiOrder, *,
                           convex_range: bool = False,
                           preregular_range: bool = False,
                           downward_closed_range: bool = False,
                           limit: int = 10 ** 6) -> tuple:
    """Reference census over all ``|cod| ** |dom|`` maps; the independent
    completeness oracle for ``enumerate_embeddings``."""
    if cod.size ** dom.size > limit:
        raise BudgetExceededError("naive census too large")
    out = []
    for img in enumerate_monotone_maps(dom, cod):
        mm = MonotoneMap(dom, cod, img)
        if not mm.is_embedding:
            continue
        f = range_flags(dom, cod, img)
        if convex_range and not f["convex_range"]:
            continue
        if preregular_range and not f["preregular_range"]:
            continue
        if downward_closed_range and not f["downward_closed_range"]:
            continue
        out.append(img)
    return tuple(sorted(out))


def random_lattice(n: int, rng: random.Random, edge_prob: float = 0.4) -> QuasiOrder:
    """A random ``n``-element lattice: random mid-layer order glued between a
    fresh bottom and top, resampled until the result is a lattice."""
    if n < 2:
        raise OrderError("need at least bottom and top")
    mid = n - 2
    while True:
        pairs = []
        for a in range(mid):
            for b in range(a + 1, mid):
                if rng.random() < edge_prob:
                    pairs.append((a, b))
        for a in range(mid):
            pairs.append((mid, a))      # bottom below all
            pairs.append((a, mid + 1))  # all below top
        pairs.append((mid, mid + 1))
        q = build_quasi_order(n, pairs)
        if is_lattice(q):
            return q


def is_directed(q: QuasiOrder, A) -> bool:
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


def is_bounded_above(q: QuasiOrder, A) -> bool:
    return _upper_bounds(q, mask_of(q, A)) != 0


def order_from_relation(rel) -> QuasiOrder:
    """Read a square boolean relation matrix (nested sequences, or any
    2-D array) row by row, validating the axioms."""
    try:
        rows = [tuple(row) for row in rel]
        ok = all(len(row) == len(rows) and all(v in (False, True) for v in row)
                 for row in rows)
    except (TypeError, ValueError):  # a scalar, or an array where a bool belongs
        ok = False
    if not ok:
        raise OrderError("relation must be a square matrix of booleans")
    return QuasiOrder(tuple(sum(1 << q for q, v in enumerate(row) if v)
                            for row in rows))


def ref_is_boolean(q: QuasiOrder) -> bool:
    """A Boolean algebra by definition: a bounded lattice in which every
    element has a complement and meet distributes over join, read through
    ``sup`` and ``inf`` of pairs."""
    n = q.size

    def join(a, b):
        return sup(q, 1 << a | 1 << b)

    def meet(a, b):
        return inf(q, 1 << a | 1 << b)

    bottom, top = sup(q, 0), inf(q, 0)
    if bottom is None or top is None or any(
            join(a, b) is None or meet(a, b) is None
            for a, b in itertools.product(range(n), repeat=2)):
        return False
    return all(any(meet(p, c) == bottom and join(p, c) == top for c in range(n))
               for p in range(n)) and all(
        meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
        for a, b, c in itertools.product(range(n), repeat=3))


def relabel(q: QuasiOrder, perm) -> QuasiOrder:
    """The isomorphic copy of ``q`` in which element ``p`` is ``perm[p]``,
    through the checked constructor."""
    up = [0] * q.size
    for p, row in enumerate(q.up_masks):
        up[perm[p]] = sum(1 << perm[r] for r in bits(row))
    return QuasiOrder(up)


def sampled_vector(rng: random.Random, dim: int) -> tuple:
    """A seeded vector of ``dim`` coordinates in ``0..SAMPLE_BOUND``."""
    return tuple(rng.randint(0, SAMPLE_BOUND) for _ in range(dim))


def sampled_instances(dim: int, samples: int, seed: int, set_law: bool = False):
    """``samples`` seeded instances ``(a, B)`` of ``N^dim``: a vector ``a``,
    then ``B``, two vectors (a triple ``a, b, c`` read as ``(a, (b, c))``)
    or, for a set law, 1..MAX_SAMPLED_SET_SIZE of them."""
    rng = random.Random(seed)
    for _ in range(samples):
        a = sampled_vector(rng, dim)
        k = rng.randint(1, MAX_SAMPLED_SET_SIZE) if set_law else 2
        yield a, tuple(sampled_vector(rng, dim) for _ in range(k))


def ref_sampled_distributivity(m, mode: str, samples: int, seed: int) -> dict:
    """One distributive law of the vector monoid ``m`` in its own loop over
    its own draws, with the report the seeded runs gave."""
    bound_of = m.inf_of if mode.startswith("plus_meet") else m.sup_of
    report = {"mode": mode, "holds": True, "witness": None, "checked": 0,
              "sampling": {"seed": seed, "instance_count": samples}}
    for a, B in sampled_instances(m.dim, samples, seed, mode.endswith("_inf")):
        report["checked"] += 1
        lhs = m.add(a, bound_of(B))
        rhs = bound_of([m.add(a, b) for b in B])
        if lhs != rhs:
            report["holds"] = False
            report["witness"] = {"a": list(a), "B": [list(b) for b in B],
                                 "lhs": list(lhs), "rhs": list(rhs)}
            break
    return report


def ref_sampled_disjoint_sum(m, samples: int, seed: int) -> dict:
    """Both disjointness laws of the vector monoid ``m`` over seeded
    triples, with join and meet taken per coordinate apart from ``m``."""
    zero = m.zero()

    def meet(x, y):
        return tuple(map(min, x, y))

    report = {"holds": True, "witness": None, "checked": 0,
              "sampling": {"seed": seed, "instance_count": samples}}
    for a, (b, c) in sampled_instances(m.dim, samples, seed):
        report["checked"] += 1
        if meet(a, b) == zero and tuple(map(max, a, b)) != m.add(a, b):
            witness = {"law": "sum_is_join", "a": list(a), "b": list(b)}
        elif (meet(a, c) == zero and meet(b, c) == zero
                and meet(m.add(a, b), c) != zero):
            witness = {"law": "sum_stays_disjoint",
                       "a": list(a), "b": list(b), "c": list(c)}
        else:
            continue
        report["holds"] = False
        report["witness"] = witness
        break
    return report


def ref_poset_order(m, what):
    q = associated_order(m)
    if not q.is_poset:
        raise MonoidError(f"{what} checks need a poset monoid")
    return q


def ref_finite_monoid_binary(m, mode):
    """The report of a binary distributive law over every triple, by
    definition: ``a + (b v c) = (a + b) v (a + c)`` whenever ``b v c``
    exists (``^`` for ``plus_meet``)."""
    q = ref_poset_order(m, "distributivity")
    bound = inf if mode == "plus_meet" else sup
    report = {"mode": mode, "holds": True, "witness": None, "checked": 0}
    for a, b, c in itertools.product(range(m.size), repeat=3):
        report["checked"] += 1
        s = bound(q, 1 << b | 1 << c)
        if s is None:
            continue
        lhs, rhs = m.op(a, s), bound(q, 1 << m.op(a, b) | 1 << m.op(a, c))
        if lhs != rhs:
            report["holds"] = False
            report["witness"] = {"a": a, "B": [b, c], "lhs": lhs, "rhs": rhs}
            break
    return report


def ref_finite_monoid_set_law(m, mode):
    """The report of a set distributive law over every ``(a, B)``, by
    definition: ``a + vB = v(a + B)`` whenever ``vB`` exists (``^`` for
    ``plus_meet_inf``), visiting ``a``, then the mask of ``B``, ascending,
    the empty ``B`` included."""
    q = ref_poset_order(m, "distributivity")
    bound = inf if mode == "plus_meet_inf" else sup
    report = {"mode": mode, "holds": True, "witness": None, "checked": 0}
    for a, bmask in itertools.product(range(m.size), range(1 << m.size)):
        report["checked"] += 1
        s = bound(q, bmask)
        if s is None:
            continue
        B = list(bits(bmask))
        sums = 0
        for b in B:
            sums |= 1 << m.op(a, b)
        lhs, rhs = m.op(a, s), bound(q, sums)
        if lhs != rhs:
            report["holds"] = False
            report["witness"] = {"a": a, "B": B, "lhs": lhs, "rhs": rhs}
            break
    return report


def ref_finite_disjoint_sum(m):
    """The report of both disjointness laws over every triple, by
    definition, with the identity as the least element."""
    q = ref_poset_order(m, "disjoint-sum")

    def disjoint(x, y):
        return inf(q, 1 << x | 1 << y) == m.identity

    report = {"holds": True, "witness": None, "checked": 0}
    for a, b, c in itertools.product(range(m.size), repeat=3):
        report["checked"] += 1
        if disjoint(a, b) and sup(q, 1 << a | 1 << b) != m.op(a, b):
            report["witness"] = {"law": "sum_is_join", "a": a, "b": b}
        elif disjoint(a, c) and disjoint(b, c) and not disjoint(m.op(a, b), c):
            report["witness"] = {"law": "sum_stays_disjoint",
                                 "a": a, "b": b, "c": c}
        else:
            continue
        report["holds"] = False
        break
    return report
