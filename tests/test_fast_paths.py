"""The lookup and lister fast paths against the definition-level scans.

Each ``ref_*`` function below is the plain scan: the least element of a
mask by testing every member, the bounds of a set through that scan, and a
subset property over every nonempty ``B``.  The library reads the least
element of an up-set from ``QuasiOrder.up_index``, lists the convex subsets
as ``U & D``, and builds derived orders and maps without re-checking them;
each must agree with these references exactly.
"""

import pytest

from latkit.builders import chain, enumerate_lattices, enumerate_posets
from latkit.embedding import continuity_checks, enumerate_embeddings
from latkit.lattice import convex_subsets, is_convex, preregularity_witness
from latkit.order import (
    MonotoneMap,
    OrderError,
    QuasiOrder,
    induced_suborder,
    inf,
    least_element,
    sup,
)
from latkit.topology import enumerate_topologies

POSETS = [q for n in range(1, 6) for q in enumerate_posets(n)]
QUASI_ORDERS = [q for n in range(1, 5) for q in enumerate_topologies(n)]
SMALL_LATTICES = [q for n in range(1, 6) for q in enumerate_lattices(n)]


def members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def ref_least(q, mask):
    """The least member of ``mask``, lowest index first."""
    for u in members(mask):
        if mask & ~q.up_masks[u] == 0:
            return u
    return None


def ref_sup(q, mask):
    if not q.is_poset:
        raise OrderError("operation requires a partial order")
    ub = q.full_mask
    for a in members(mask):
        ub &= q.up_masks[a]
    return ref_least(q, ub)


def ref_inf(q, mask):
    return ref_sup(q.dual, mask)


def outcome(f, *args):
    try:
        return "value", f(*args)
    except OrderError:
        return "raises", OrderError


def test_quasi_orders_have_equivalent_points():
    # the lowest-index rule only shows on orders that are not posets
    assert sum(not q.is_poset for q in QUASI_ORDERS) > 100


@pytest.mark.parametrize("orders", [POSETS, QUASI_ORDERS],
                         ids=["posets-to-5", "topologies-to-4"])
def test_bounds_by_lookup_match_the_scan(orders):
    for q in orders:
        for mask in range(1 << q.size):
            assert least_element(q, mask) == ref_least(q, mask)
            assert outcome(sup, q, mask) == outcome(ref_sup, q, mask)
            assert outcome(inf, q, mask) == outcome(ref_inf, q, mask)


@pytest.mark.parametrize("orders", [POSETS, QUASI_ORDERS],
                         ids=["posets-to-5", "topologies-to-4"])
def test_up_index_is_the_least_element_of_every_up_set(orders):
    for q in orders:
        for mask in range(1 << q.size):
            upper = all(q.up_masks[a] & ~mask == 0 for a in members(mask))
            if upper:
                assert q.up_index.get(mask) == ref_least(q, mask)


def ref_preregularity_witness(q, amask, upwards):
    """The numerically largest nonempty ``B`` of ``A`` whose supremum
    inside ``A`` exists and differs from the ambient one."""
    o = q if upwards else q.dual
    for b in range(amask, 0, -1):
        if b & ~amask:
            continue
        ub = o.full_mask
        for x in members(b):
            ub &= o.up_masks[x]
        inside, ambient = ref_least(o, ub & amask), ref_least(o, ub)
        if inside is not None and inside != ambient:
            return {"B": members(b), "in_subset": inside, "in_ambient": ambient}
    return None


def ref_continuity(sigma):
    """``continuity_checks`` by a scan of every nonempty ``B``."""
    dom, cod, img = sigma.dom, sigma.cod, sigma.image
    out = {}
    for name, d, c in (("sups", dom, cod), ("infs", dom.dual, cod.dual)):
        nonempty = directed = True
        for b in range(1, 1 << dom.size):
            s = ref_sup(d, b)
            if s is None:
                continue
            image = 0
            for x in members(b):
                image |= 1 << img[x]
            if ref_sup(c, image) != img[s]:
                nonempty = False
                # a finite directed set holds its own supremum
                if b >> s & 1:
                    directed = False
        out[name] = (nonempty, directed)
    return {
        "preserves_nonempty_sups": out["sups"][0],
        "preserves_nonempty_infs": out["infs"][0],
        "scott_continuous": out["sups"][1],
        "co_continuous": out["infs"][1],
    }


def test_preregularity_and_continuity_match_every_nonempty_b():
    for q in SMALL_LATTICES:
        for amask in range(1, 1 << q.size):
            for upwards in (True, False):
                assert (preregularity_witness(q, amask, upwards)
                        == ref_preregularity_witness(q, amask, upwards))
            sub, elems = induced_suborder(q, amask)
            inclusion = MonotoneMap(sub, q, elems)
            assert continuity_checks(inclusion) == ref_continuity(inclusion)


@pytest.mark.parametrize("orders", [
    [q for n in range(1, 8) for q in enumerate_lattices(n)], POSETS,
], ids=["lattices-to-7", "posets-to-5"])
def test_convex_subsets_are_the_convex_masks(orders):
    for q in orders:
        want = [a for a in range(2 ** q.size) if is_convex(q, a)]
        assert convex_subsets(q) == want


def same_as_checked(derived):
    """The public constructor accepts the relation, and the values the
    derived order carries equal those of the checked one."""
    checked = QuasiOrder(derived.up_masks)
    assert derived.up_masks == checked.up_masks
    assert derived.down_masks == checked.down_masks
    assert derived.is_poset == checked.is_poset
    assert derived.dual.up_masks == checked.dual.up_masks


def test_derived_orders_pass_the_public_checks():
    for q in POSETS + QUASI_ORDERS:
        same_as_checked(q.dual)
        assert q.dual.dual.up_masks == q.up_masks
        for amask in range(1 << q.size):
            sub, elems = induced_suborder(q, amask)
            same_as_checked(sub)
            inclusion = MonotoneMap(sub, q, elems)
            assert inclusion.is_embedding


def test_census_maps_carry_what_the_public_checks_find():
    small = [q for q in POSETS if q.size <= 4]
    for dom in small:
        for cod in small:
            for image, flags in enumerate_embeddings(dom, cod):
                checked = MonotoneMap(dom, cod, image)
                assert checked.is_embedding
                assert is_convex(cod, checked.range_mask) == flags["convex_range"]


def test_public_constructors_still_check_outside_input():
    # 0 <= 1 and 1 <= 2, but not 0 <= 2
    with pytest.raises(OrderError, match="not transitive"):
        QuasiOrder((0b011, 0b110, 0b100))
    with pytest.raises(OrderError, match="not order preserving"):
        MonotoneMap(chain(2), chain(2), (1, 0))
