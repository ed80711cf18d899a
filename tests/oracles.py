"""Definition-level oracles that only the tests use: the census stream
read as a tuple of images or a list of checked maps, a naive embedding
census over every map with flags from the plain definitions, order
reflection by its pairwise definition, the per-pair continuity check of
preregular-range embeddings, the order-closedness report of a map's range,
a seeded random lattice generator, the Boolean algebras by their
definition, directedness and boundedness of a subset, an order read from
a boolean relation matrix, a relabeled copy of an order, the coordinates
of a chain product and the shifted-projection census of chain products,
the seeded per-law loops over drawn vectors of ``N^d`` that the scalar
grid of the monoid laws replaced, the monoid laws of a finite table, each in its
own loop over every instance, and the derived structures that the library
no longer builds: the atoms of a subset through its induced suborder, the
pair-class search of a group completion, the join and meet tables of a
poset, the order flags, distributivity, strong interval predensity and
basis checks read off those tables, the set-distributivity scan with
its own loop over the intersection closure of each element's keys, the
nowhere dense test by its definition, and the argparse parser that read
the command line before ``cli._parse_argv``."""

import argparse
import itertools
import operator
from functools import reduce
import random
from types import SimpleNamespace

from latkit.cli import CENSUS_FILTERS, GLOBAL_OPTIONS, INT_OPTIONS, TABLES, _flag
from latkit.embedding import (
    BudgetExceededError,
    continuity_checks,
    enumerate_embeddings,
    enumerate_monotone_maps,
)
from latkit.lattice import (
    is_convex,
    is_lattice,
    is_meet_subsemilattice,
    is_preregular,
    order_closed_checks,
    set_distributivity_failure,
)
from latkit.monoid import (
    MAX_SAMPLED_SET_SIZE,
    SAMPLE_BOUND,
    FiniteMonoid,
    MonoidError,
    NotCancellativeError,
    associated_order,
)
from latkit.order import (
    MonotoneMap,
    OrderError,
    QuasiOrder,
    _upper_bounds,
    bits,
    build_quasi_order,
    induced_suborder,
    inf,
    intersection_closure,
    lower_closure,
    sup,
)
from latkit.topology import closure_of, interior


def range_flags(dom: QuasiOrder, cod: QuasiOrder, image: tuple) -> dict:
    """The range flags of one embedding, from the plain definitions."""
    rmask = 0
    for v in image:
        rmask |= 1 << v
    return {
        "embedding": True,
        "convex_range": is_convex(cod, rmask),
        "preregular_range": is_preregular(cod, rmask),
        "downward_closed_range": lower_closure(cod, rmask) == rmask,
    }


def census_images(dom: QuasiOrder, cod: QuasiOrder, **options) -> tuple:
    """The images that ``enumerate_embeddings`` yields, in its order."""
    return tuple(image for image, _ in enumerate_embeddings(dom, cod, **options))


def census_maps(dom: QuasiOrder, cod: QuasiOrder, **options) -> list:
    """Each map that ``enumerate_embeddings`` yields, as a checked
    ``MonotoneMap``, in its order."""
    return [MonotoneMap(dom, cod, image)
            for image, _ in enumerate_embeddings(dom, cod, **options)]


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
    maps = census_maps(P, Q, preregular_range=True, budget_nodes=budget_nodes)
    violations = []
    for mm in maps:
        cont = continuity_checks(mm)
        if not (cont["preserves_nonempty_sups"] and cont["preserves_nonempty_infs"]):
            violations.append({"image": list(mm.image), "continuity": cont})
    return {
        "embeddings": len(maps),
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


def is_directed(q: QuasiOrder, m: int) -> bool:
    """Nonempty, and every two members have a common upper bound in ``m``."""
    if not m:
        return False
    items = list(bits(m))
    for i, a in enumerate(items):
        for b in items[i:]:
            if q.up_masks[a] & q.up_masks[b] & m == 0:
                return False
    return True


def is_bounded_above(q: QuasiOrder, m: int) -> bool:
    return _upper_bounds(q, m) != 0


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


def chain_vectors(dims) -> list:
    """The coordinate vector of each element of ``chain_product(dims)``:
    mixed radix, least significant coordinate first."""
    return [v[::-1] for v in itertools.product(*(range(d) for d in reversed(dims)))]


def _shift_room(g: tuple, dom_dims: tuple, cod_dims: tuple) -> list:
    """The largest shift that fits each codomain coordinate: ``m_j - k_i``
    where coordinate ``j`` reads domain coordinate ``i``, else ``m_j - 1``."""
    room = [m - 1 for m in cod_dims]
    for j, i in g:
        room[j] -= dom_dims[i] - 1
    return room


def projection_image(g: tuple, y: tuple, dom_dims: tuple,
                     cod_dims: tuple) -> tuple:
    """The image tuple of ``x -> (x o g) + y``.  An index is linear in its
    vector, so each image is the index of ``y`` plus the index of the
    unshifted projection."""
    strides = tuple(itertools.accumulate(cod_dims[:-1], operator.mul, initial=1))
    base = sum(map(operator.mul, y, strides))
    return tuple(base + sum(vec[i] * strides[j] for j, i in g)
                 for vec in chain_vectors(dom_dims))


def chainprod_reading(phi: tuple, b: int, dom_dims, cod_dims) -> tuple:
    """``(g, y)`` of ``x -> (x o g) + y`` read off a Birkhoff decomposition
    ``(phi, b)`` of a map between chain products.  The join-irreducible
    labels are the points above 0 of each chain, chain by chain, so domain
    chain ``i`` reads the codomain chain ``j`` that its labels go to, and
    ``y_j`` is the number of chain-``j`` labels in ``b``."""
    dom_chain, cod_chain = ([c for c, d in enumerate(dims) for _ in range(d - 1)]
                            for dims in (dom_dims, cod_dims))
    g = tuple(sorted({(cod_chain[j], dom_chain[i]) for i, j in enumerate(phi)}))
    y = tuple(sum(b >> t & 1 for t, c in enumerate(cod_chain) if c == j)
              for j in range(len(cod_dims)))
    return g, y


def ref_chainprod_formula_census(dom_dims, cod_dims) -> tuple:
    """Image tuples of every shifted partial projection ``x -> (x o g) + y``
    of ``chain_product(dom_dims)`` into ``chain_product(cod_dims)`` that
    fits, sorted: ``g`` pairs each domain coordinate ``i`` with its own
    codomain coordinate ``j``, as ``(j, i)``, and ``y`` shifts every
    codomain coordinate.  The power-set form is its ``(2,) * n`` case.
    Every domain chain must have height 2 or more."""
    dom_dims, cod_dims = tuple(dom_dims), tuple(cod_dims)
    n = len(dom_dims)
    out = set()
    for K in itertools.combinations(range(len(cod_dims)), n):
        for perm in itertools.permutations(range(n)):
            g = tuple(zip(K, perm))
            # a shift range is empty where a domain chain does not fit
            for y in itertools.product(
                    *(range(r + 1) for r in _shift_room(g, dom_dims, cod_dims))):
                out.add(projection_image(g, y, dom_dims, cod_dims))
    return tuple(sorted(out))


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
    """The report of a set distributive law over every ``(a, B)`` with
    ``B`` nonempty, by definition: ``a + vB = v(a + B)`` whenever ``vB``
    exists (``^`` for ``plus_meet_inf``), visiting ``a``, then the mask of
    ``B``, ascending."""
    q = ref_poset_order(m, "distributivity")
    bound = inf if mode == "plus_meet_inf" else sup
    report = {"mode": mode, "holds": True, "witness": None, "checked": 0}
    for a, bmask in itertools.product(range(m.size), range(1, 1 << m.size)):
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


def ref_relative_atoms(q: QuasiOrder, A) -> int:
    """The atoms of the induced suborder on ``A``, mapped back to ``q``'s
    indices, as a mask: on the suborder, the nonminimal elements ``p`` with
    no two nonminimal ``a, b <= p`` lacking a common nonminimal lower
    bound, pair by pair."""
    sub, elems = induced_suborder(q, A)
    down = sub.down_masks
    pos = sum(1 << p for p in range(sub.size)
              if any(sub.lt(r, p) for r in bits(down[p])))
    out = 0
    for p in bits(pos):
        below = list(bits(down[p] & pos))
        if all(down[a] & down[b] & pos for i, a in enumerate(below)
               for b in below[i + 1:]):
            out |= 1 << elems[p]
    return out


def ref_group_completion(m: FiniteMonoid) -> SimpleNamespace:
    """The group completion by its pair-class search: the classes of
    ``M x N``, with ``N`` the noninvertible elements and the identity,
    under ``(a,b) ~ (c,d)`` iff ``a+r = c+s`` and ``b+r = d+s`` for some
    ``r, s`` in ``N``, each named by its lexicographically least member:
    ``source``, ``group`` (the class table), ``reps``, ``embedding``
    (``a`` to the class of ``(a, e)``) and ``pair_class``."""
    if not m.is_commutative:
        raise MonoidError("group completion requires commutativity")
    if not m.is_cancellative:
        raise NotCancellativeError("monoid is not cancellative")
    n = m.size
    e = m.identity
    inv = set(m.invertibles)
    carrier_n = sorted((set(range(n)) - inv) | {e})
    pairs = [(a, b) for a in range(n) for b in carrier_n]

    def related(p, q):
        a, b = p
        c, d = q
        return any(
            m.table[a][r] == m.table[c][s] and m.table[b][r] == m.table[d][s]
            for r in carrier_n for s in carrier_n
        )

    pair_class: dict = {}
    reps = []
    for p in pairs:
        if p in pair_class:
            continue
        idx = len(reps)
        reps.append(p)
        for q in pairs:
            if q not in pair_class and related(p, q):
                pair_class[q] = idx
    k = len(reps)
    table = [[pair_class[(m.table[a][c], m.table[b][d])] for c, d in reps]
             for a, b in reps]
    identity = pair_class[(e, e)]
    group = FiniteMonoid(table, identity)
    # the construction guarantees an abelian group and a monomorphism
    if not (group.is_commutative and len(group.invertibles) == k):
        raise RuntimeError("pair classes failed to form an abelian group")
    embedding = tuple(pair_class[(a, e)] for a in range(n))
    if len(set(embedding)) != n:
        raise RuntimeError("embedding failed to be injective")
    return SimpleNamespace(source=m, group=group, reps=tuple(reps),
                           embedding=embedding, pair_class=pair_class)


def ref_lattice_view(q: QuasiOrder) -> SimpleNamespace:
    """The join and meet tables of a poset, as tuples of rows with ``-1``
    for a missing bound (``c`` is the join of ``a`` and ``b`` iff
    ``up[a] & up[b] == up[c]``; meets read the dual), and whether every
    entry exists."""
    if not q.is_poset:
        raise OrderError("lattice view requires a partial order")
    tables = []
    for o in (q, q.dual):
        masks, at = o.up_masks, o.up_index
        tables.append(tuple(tuple(at.get(a & b, -1) for b in masks) for a in masks))
    return SimpleNamespace(
        base=q, join=tables[0], meet=tables[1],
        is_lattice=all(v >= 0 for table in tables for row in table for v in row))


def _ref_require_lattice(lv: SimpleNamespace):
    if not lv.is_lattice:
        raise OrderError("operation requires a lattice")


def ref_distributivity_witness(lv: SimpleNamespace):
    """The first triple, ``a``, then ``b``, then ``c`` ascending, at which
    either distributive identity fails on the tables, or ``None``."""
    _ref_require_lattice(lv)
    n = lv.base.size
    J, M = lv.join, lv.meet
    for a, b, c in itertools.product(range(n), repeat=3):
        if (M[a][J[b][c]] != J[M[a][b]][M[a][c]]
                or J[a][M[b][c]] != M[J[a][b]][J[a][c]]):
            return {"a": a, "b": b, "c": c}
    return None


def ref_table_infinite_distributive(lv: SimpleNamespace, dual: bool) -> dict:
    """``check_jid`` (``check_mid`` with ``dual``) with the meet (join)
    read off the tables."""
    _ref_require_lattice(lv)
    table = lv.join if dual else lv.meet
    checked, hit = set_distributivity_failure(lv.base.dual if dual else lv.base,
                                              lambda a, b: table[a][b])
    witness = None if hit is None else {"a": hit[0], "B": list(bits(hit[1]))}
    return {"holds": hit is None, "mode": "exhaustive", "checked": checked,
            "witness": witness}


def ref_set_distributivity_failure(q: QuasiOrder, op) -> tuple:
    """``set_distributivity_failure`` as it was before it ran the shared
    sup-preservation scan: its own visit per member of the intersection
    closure of the keys ``up(b) | up(op(a, b)) << n``, with the same least
    ``B`` per failing class and the same ``checked`` count."""
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
                    if reduce(operator.and_, (keys[c] for c in kept - {b}),
                              full) == t:
                        kept.remove(b)
                failing.append(sum(1 << b for b in kept))
        if failing:
            return a * ((1 << n) - 1) + min(failing), (a, min(failing))
    return n * ((1 << n) - 1), None


def ref_is_strongly_interval_predense(lv: SimpleNamespace, dmask: int) -> bool:
    """Every strict pair ``p < r`` has a ``d <= r`` in ``D`` whose table
    meet with ``p`` is another member of ``D``."""
    _ref_require_lattice(lv)
    q = lv.base
    return all(
        any(lv.meet[d][p] != d and dmask >> lv.meet[d][p] & 1
            for d in bits(dmask & q.down_masks[r]))
        for p in range(q.size) for r in range(q.size) if q.lt(p, r))


def ref_is_basis(lv: SimpleNamespace, dmask: int) -> bool:
    """``D`` is a meet subsemilattice and every element is the join of a
    pairwise-incompatible family from ``D``, searched on the tables."""
    _ref_require_lattice(lv)
    q = lv.base
    bottom = sup(q, 0)
    if bottom is None:
        raise OrderError("basis check requires a pointed lattice")
    if not is_meet_subsemilattice(q, dmask):
        return False

    def covers(target: int) -> bool:
        cands = list(bits(dmask & q.down_masks[target]))

        def extend(start, chosen, current):
            if current == target:
                return True
            for k in range(start, len(cands)):
                d = cands[k]
                if any(lv.meet[d][c] != bottom for c in chosen):
                    continue
                nxt = d if current is None else lv.join[current][d]
                if q.le(nxt, target) and extend(k + 1, chosen + (d,), nxt):
                    return True
            return False

        return target == bottom or extend(0, (), None)

    return all(covers(a) for a in range(q.size))


def ref_order_flags(q: QuasiOrder) -> dict:
    """The four join and meet flags of a poset, read off its tables from
    :func:`ref_lattice_view`: ``lattice`` and ``complete_semilattice`` as
    ``classify`` gives them, ``semilattice_monoid`` and ``lattice_monoid``
    as ``monoid_class`` does."""
    n = q.size
    lv = ref_lattice_view(q)
    semilattice = all(v >= 0 for row in lv.join for v in row)
    return {
        "lattice": lv.is_lattice,
        "complete_semilattice": sup(q, 0) is not None and all(
            lv.join[a][b] >= 0 for a in range(n) for b in range(a)
            if q.up_masks[a] & q.up_masks[b]),
        "semilattice_monoid": semilattice,
        "lattice_monoid": semilattice and lv.is_lattice,
    }


def monoid_to_json(m: FiniteMonoid) -> dict:
    """The JSON form of a table that ``latkit.cli`` reads."""
    return {"size": m.size, "table": [list(row) for row in m.table],
            "identity": m.identity}


def is_nowhere_dense(q: QuasiOrder, s: int) -> bool:
    """The interior of the closure of ``s`` is empty."""
    return interior(q, closure_of(q, s)) == 0


def ref_parser() -> argparse.ArgumentParser:
    """One flat parser of every option, in any order around the command
    and its name; which options a command reads is
    :meth:`RunConfig.refuse_unread`'s decision alone."""
    parser = argparse.ArgumentParser(
        prog="latkit",
        description="checkers, censuses, and theorem verifiers for finite "
                    "order structures")
    parser.add_argument("command", nargs="?", choices=(*TABLES, "enumerate"))
    parser.add_argument("name", nargs="?", help="the verifier (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list registered verifiers and exit")
    parser.add_argument("--format", choices=("table", "json"))
    for key in (*INT_OPTIONS, *GLOBAL_OPTIONS):
        parser.add_argument(_flag(key), type=int)
    parser.add_argument("--input", action="append", default=[],
                        help="path to a JSON structure or fixture")
    parser.add_argument("--dom", help="order spec (inline JSON)")
    parser.add_argument("--cod", help="order spec (inline JSON)")
    for name in CENSUS_FILTERS:
        parser.add_argument(_flag(name), action="store_true", default=None)
    return parser
