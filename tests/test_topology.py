"""Finite spaces: interior/closure, regular opens, category algebras.

The ``ref_*`` functions are the family-of-opens implementation that the
preorder model replaced: a space is its frozenset of open masks, every
operation scans it, and topologies are found by testing every family of
proper subsets.  They are the oracle for the mask code.  The ``loop_*``
functions are the per-point loops that interior and closure ran before
they read the down-closure.
"""

import itertools
import random
import time

import numpy as np
import pytest

from latkit import topology as topology_module
from latkit.lattice import check_jid, check_mid, classify, is_basis
from latkit.builders import chain
from latkit.cli import _topology_to_json
from latkit.order import QuasiOrder, bits, upper_sets
from latkit.topology import (
    MAX_TOPOLOGY_POINTS,
    NotZeroDimensionalError,
    TopologyError,
    category_algebra,
    clopen_basis_check,
    clopen_sets,
    closure_of,
    enumerate_topologies,
    interior,
    is_baire,
    is_regular_open,
    is_zero_dimensional,
    largest_open_meager,
    meager_ideal,
    meager_mask,
    regular_opens,
    ro_algebra,
    topology,
)
from oracles import is_nowhere_dense, ref_lattice_view


# ---------------------------------------------------------------------------
# the family-of-opens reference


def ref_is_topology(points, opens):
    full = (1 << points) - 1
    return (0 in opens and full in opens
            and all(a & ~full == 0 for a in opens)
            and all(a | b in opens and a & b in opens for a in opens for b in opens))


def ref_topology(points, generators):
    """Closure of the generators under union and intersection."""
    full = (1 << points) - 1
    fam = {0, full, *generators}
    while True:
        new = set(fam)
        for a in fam:
            for b in fam:
                new.add(a | b)
                new.add(a & b)
        if new == fam:
            return frozenset(fam)
        fam = new


def ref_enumerate_topologies(points):
    full = (1 << points) - 1
    proper = [s for s in range(1 << points) if s not in (0, full)]
    out = []
    for r in range(len(proper) + 1):
        for included in itertools.combinations(proper, r):
            fam = frozenset(included) | {0, full}
            if all(a | b in fam and a & b in fam for a in fam for b in fam):
                out.append(fam)
    return out


class Ref:
    """A space as its family of opens."""

    def __init__(self, points, opens):
        self.points, self.opens = points, frozenset(opens)
        self.full = (1 << points) - 1
        self.opens_sorted = tuple(sorted(self.opens))


def ref_interior(t, s):
    out = 0
    for o in t.opens_sorted:
        if o & ~s == 0:
            out |= o
    return out


def ref_closure(t, s):
    return t.full & ~ref_interior(t, t.full & ~s)


def ref_is_regular_open(t, s):
    return s == ref_interior(t, ref_closure(t, s))


def ref_regular_opens(t):
    return tuple(o for o in t.opens_sorted if ref_is_regular_open(t, o))


def ref_is_meager(t, s):
    return ref_interior(t, ref_closure(t, s)) == 0


def ref_meager_ideal(t):
    return tuple(s for s in range(1 << t.points) if ref_is_meager(t, s))


def ref_largest_open_meager(t):
    out = 0
    for o in t.opens_sorted:
        if ref_is_meager(t, o):
            out |= o
    return out


def ref_is_baire(t):
    return all(not ref_is_meager(t, o) for o in t.opens_sorted if o)


def ref_has_baire_property(t, s):
    return any(ref_is_meager(t, s ^ o) for o in t.opens_sorted)


def ref_baire_property_sets(t):
    return tuple(s for s in range(1 << t.points) if ref_has_baire_property(t, s))


def ref_clopen_sets(t):
    return tuple(o for o in t.opens_sorted if t.full & ~o in t.opens)


def ref_is_zero_dimensional(t):
    clopens = ref_clopen_sets(t)
    for o in t.opens_sorted:
        cover = 0
        for c in clopens:
            if c & ~o == 0:
                cover |= c
        if cover != o:
            return False
    return True


def ref_subspace(t, carrier):
    points = tuple(bits(carrier))
    pos = {p: i for i, p in enumerate(points)}

    def compress(mask):
        return sum(1 << pos[p] for p in bits(mask & carrier))

    return Ref(len(points), {compress(o) for o in t.opens}), points


def ref_category_algebra(t):
    """``(order up_masks, reps, class_map, ro_members, ro_iso)`` with the
    pairwise class loop, and the regular opens of the residual subspace
    (the space minus the closure of its largest open meager set) mapped
    back into the space."""
    bp = ref_baire_property_sets(t)
    class_map, reps = {}, []
    for s in bp:
        if s in class_map:
            continue
        idx = len(reps)
        reps.append(s)
        for r in bp:
            if r not in class_map and ref_is_meager(t, r ^ s):
                class_map[r] = idx
    up = tuple(sum(1 << j for j, b in enumerate(reps) if ref_is_meager(t, a & ~b))
               for a in reps)
    u = ref_largest_open_meager(t)
    sub, points = ref_subspace(t, t.full & ~ref_closure(t, u))
    ro_members = tuple(sum(1 << points[i] for i in bits(g))
                       for g in ref_regular_opens(sub))
    return (up, tuple(reps), class_map, ro_members,
            {g: class_map[g] for g in ro_members})


def loop_interior(q, s):
    """The points whose least open neighbourhood lies inside ``s``."""
    out = 0
    for p, up in enumerate(q.up_masks):
        if up & ~s == 0:
            out |= 1 << p
    return out


def loop_closure(q, s):
    """The union of the down-sets of the points of ``s``."""
    out = 0
    for p in bits(s & q.full_mask):
        out |= q.down_masks[p]
    return out


def checked_inclusion_order(members):
    """``members`` by inclusion, through the checked constructor."""
    return QuasiOrder(tuple(sum(1 << j for j, b in enumerate(members) if a & ~b == 0)
                            for a in members))


def small_spaces():
    """Every topology on at most 4 points, as ``(Ref, QuasiOrder)``."""
    return [(Ref(n, fam), topology(n, fam))
            for n in range(5) for fam in ref_enumerate_topologies(n)]


# ---------------------------------------------------------------------------


def baire_sets(t):
    """The sets with the Baire property: those whose trace on the comeager
    set names a class of the category algebra, ascending."""
    classes = category_algebra(t).classes
    return tuple(s for s in range(1 << t.size) if s & ~meager_mask(t) in classes)


def sierpinski():
    # point 1 open, point 0 not
    return topology(2, [0b10])


def discrete(n):
    return topology(n, [1 << i for i in range(n)])


def indiscrete(n):
    return topology(n, [])


def test_topology_axioms_enforced():
    # the preorder model has no invalid state: a family of sets is a
    # topology exactly when generating from it adds nothing
    for n in (2, 3):
        for flags in range(1 << (1 << n)):
            fam = frozenset(s for s in range(1 << n) if flags >> s & 1)
            assert ref_is_topology(n, fam) == (
                frozenset(upper_sets(topology(n, fam))) == fam)
    with pytest.raises(TopologyError):
        topology(2, [0b01, 0b100])


def test_space_operations_match_reference():
    spaces = small_spaces()
    assert len(spaces) == 390
    for ref, t in spaces:
        n = ref.points
        assert t.size == n and t.full_mask == ref.full
        assert upper_sets(t) == ref.opens_sorted
        for s in range(1 << n):
            assert interior(t, s) == ref_interior(ref, s)
            assert closure_of(t, s) == ref_closure(ref, s)
        assert regular_opens(t) == ref_regular_opens(ref)
        assert meager_ideal(t) == ref_meager_ideal(ref)
        assert largest_open_meager(t) == ref_largest_open_meager(ref)
        assert is_baire(t) == ref_is_baire(ref)
        assert clopen_sets(t) == ref_clopen_sets(ref)
        assert is_zero_dimensional(t) == ref_is_zero_dimensional(ref)
        cat = category_algebra(t)
        up, reps, class_map, *rest = ref_category_algebra(ref)
        assert (cat.order.up_masks, cat.reps, tuple(cat.ro_iso),
                cat.ro_iso) == (up, reps, *rest)
        for s in range(1 << n):
            if s in class_map:
                assert cat.class_of(s) == class_map[s]
            else:
                with pytest.raises(KeyError):
                    cat.class_of(s)


def test_interior_and_closure_match_their_point_loops():
    for _, t in small_spaces():
        for s in range(1 << t.size + 1):  # bits outside the carrier too
            assert interior(t, s) == loop_interior(t, s)
            assert closure_of(t, s) == loop_closure(t, s)


def test_category_algebra_order_and_complement_test_match_the_checked_path():
    # on every space of at most 5 points, the unchecked class order is the
    # checked inclusion order of the traces, and the complement test agrees
    # with classify; the opens themselves are a ring of sets too, Boolean
    # iff every open is clopen, so the test meets failing families there
    spaces = boolean_opens = 0
    for n in range(MAX_TOPOLOGY_POINTS + 1):
        for t in enumerate_topologies(n):
            spaces += 1
            cat = category_algebra(t)
            order = checked_inclusion_order(cat.reps)
            assert cat.order.up_masks == order.up_masks
            comeager = t.full_mask & ~meager_mask(t)
            assert classify(order)["boolean"] == all(
                comeager & ~r in cat.classes for r in cat.reps)
            opens = upper_sets(t)
            boolean = all(t.full_mask & ~o in opens for o in opens)
            assert classify(checked_inclusion_order(opens))["boolean"] == boolean
            boolean_opens += boolean
    assert spaces == 7332 and 0 < boolean_opens < spaces


def test_generated_topology_matches_reference():
    rng = random.Random(20261018)
    for _ in range(2000):
        n = rng.randint(0, 6)
        gens = [rng.randrange(1 << n) for _ in range(rng.randint(0, 5))]
        assert frozenset(upper_sets(topology(n, gens))) == ref_topology(n, gens)


def test_enumerate_topologies_matches_reference():
    for n in range(5):
        got = [frozenset(upper_sets(t)) for t in enumerate_topologies(n)]
        assert len(got) == len(set(got))
        assert set(got) == set(ref_enumerate_topologies(n))


def maximal_points(q):
    """Points with nothing strictly above them, read off ``le``."""
    return [p for p in range(q.size)
            if all(q.le(r, p) for r in range(q.size) if q.le(p, r))]


def test_closed_forms_of_meager_sets_and_algebra_sizes():
    # meager means missing every maximal point; RO(X) and the category
    # algebra both have one atom per class of maximal points
    for _, t in small_spaces():
        top = maximal_points(t)
        top_mask = sum(1 << p for p in top)
        meager = meager_mask(t)
        for s in range(1 << t.size):
            assert (s & ~meager == 0) == (s & top_mask == 0)
        classes = len({t.up_masks[p] for p in top})
        assert len(ro_algebra(t).members) == category_algebra(t).size == 2 ** classes


def test_meager_mask_and_baire_sets_match_nowhere_dense_scans():
    # oracle on every space of up to 5 points: the largest meager set is the
    # union of the nowhere dense subsets, and the Baire-property sets are
    # the ones that differ from some open set by a nowhere dense set
    for t in (t for n in range(6) for t in enumerate_topologies(n)):
        union = 0
        meager = meager_mask(t)
        for s in range(1 << t.size):
            nowhere_dense = is_nowhere_dense(t, s)
            assert (s & ~meager == 0) == nowhere_dense
            if nowhere_dense:
                union |= s
        assert meager_mask(t) == union
        assert baire_sets(t) == tuple(
            s for s in range(1 << t.size)
            if any(is_nowhere_dense(t, s ^ o) for o in upper_sets(t)))


def test_five_point_spaces_are_distinct_topologies():
    spaces = enumerate_topologies(5)
    opens = [upper_sets(t) for t in spaces]
    assert len(set(opens)) == len(spaces) == 6942
    for family in opens:
        members = frozenset(family)
        for a in family:
            for b in family:
                assert a | b in members and a & b in members


def test_enumeration_limit():
    assert MAX_TOPOLOGY_POINTS == 5
    for points in (-1, MAX_TOPOLOGY_POINTS + 1, True):
        with pytest.raises(TopologyError):
            enumerate_topologies(points)


@pytest.mark.parametrize("opens", [
    [[i] for i in range(64)],                 # discrete
    [list(range(i, 64)) for i in range(64)],  # the chain 0 < 1 < ... < 63
])
def test_sixty_four_point_space_loads_at_once(opens):
    start = time.perf_counter()
    t = topology(64, (sum(1 << i for i in g) for g in opens))
    assert time.perf_counter() - start < 1.0
    assert t.size == 64
    for p, g in enumerate(opens):
        assert t.up_masks[p] == sum(1 << i for i in g)
    assert interior(t, 1 << 63) == 1 << 63


@pytest.mark.parametrize("points, generators", [
    (3, [2.9]), (3, [True]), (3, ["3"]), (-1, []), (2.0, []), (True, []),
], ids=["generator-float", "generator-bool", "generator-str", "points-negative",
        "points-float", "points-bool"])
def test_topology_refuses_bad_input(points, generators):
    # refused, not truncated to an int or failing on a shift
    with pytest.raises(TopologyError, match="must be"):
        topology(points, generators)


def test_topology_takes_index_integers():
    t = topology(np.int64(3), [np.uint8(0b011)])
    assert upper_sets(t) == upper_sets(topology(3, [0b011]))
    assert type(t.size) is int


def test_generated_closure():
    opens = upper_sets(topology(3, [0b011, 0b110]))
    assert 0b010 in opens             # the intersection
    assert 0b111 in opens


def test_interior_closure():
    sp = sierpinski()
    assert interior(sp, 0b01) == 0
    assert closure_of(sp, 0b01) == 0b01
    assert closure_of(sp, 0b10) == 0b11
    d = discrete(3)
    for s in range(8):
        assert interior(d, s) == s == closure_of(d, s)


def test_interior_closure_laws():
    for t in enumerate_topologies(3):
        full = t.full_mask
        for s in range(1 << 3):
            i = interior(t, s)
            c = closure_of(t, s)
            assert i & ~s == 0 and s & ~c == 0
            assert interior(t, i) == i
            assert closure_of(t, c) == c
            assert full & ~closure_of(t, s) == interior(t, full & ~s)
        for s in range(1 << 3):
            for r in range(1 << 3):
                if s & ~r == 0:
                    assert interior(t, s) & ~interior(t, r) == 0
                    assert closure_of(t, s) & ~closure_of(t, r) == 0


def test_regular_open():
    sp = sierpinski()
    assert not is_regular_open(sp, 0b10)
    assert is_regular_open(sp, 0) and is_regular_open(sp, 0b11)
    assert all(is_regular_open(discrete(2), s) for s in range(4))


def test_ro_algebra_examples():
    assert ro_algebra(sierpinski()).members == (0, 3)
    rod = ro_algebra(discrete(3))
    assert len(rod.members) == 8
    # disjoint union of two Sierpinski spaces: four regular opens
    du = topology(4, [0b0010, 0b1000, 0b0011, 0b1100])
    assert len(ro_algebra(du).members) == 4


def test_ro_algebra_is_boolean_with_jid_mid():
    for t in enumerate_topologies(3):
        alg = ro_algebra(t)
        flags = classify(alg.order)
        assert flags["boolean"]
        assert check_jid(alg.order)["holds"] and check_mid(alg.order)["holds"]


def test_ro_double_complement():
    # the complement of a regular open set is its exterior, and the join of
    # two is the interior of the closure of their union
    for t in enumerate_topologies(3):
        alg = ro_algebra(t)
        for g in alg.members:
            c = t.full_mask & ~closure_of(t, g)
            assert c in alg.members
            assert t.full_mask & ~closure_of(t, c) == g
            assert g & c == 0
            assert interior(t, closure_of(t, g | c)) == t.full_mask


def test_meager_is_an_ideal():
    for t in enumerate_topologies(3):
        meager = set(meager_ideal(t))
        for s in meager:
            for r in range(1 << 3):
                if r & ~s == 0:
                    assert r in meager
        for s in meager:
            for r in meager:
                assert (s | r) in meager


@pytest.mark.parametrize("n", range(MAX_TOPOLOGY_POINTS + 1))
def test_every_space_is_its_own_residual(n):
    # the definition-level largest open meager set is empty on every labeled
    # space, so the residual subspace is the whole carrier, and the category
    # algebra built through it is the one category_algebra builds on X
    spaces = enumerate_topologies(n)
    assert len(spaces) == (1, 1, 4, 29, 355, 6942)[n]  # A000798
    for t in spaces:
        ref = Ref(t.size, upper_sets(t))
        assert ref_largest_open_meager(ref) == 0
        cat = category_algebra(t)
        up, reps, class_map, *rest = ref_category_algebra(ref)
        assert (cat.order.up_masks, cat.reps, tuple(cat.ro_iso),
                cat.ro_iso) == (up, reps, *rest)
        assert cat.classes == {s: i for s, i in class_map.items()
                               if s & meager_mask(t) == 0}


def test_meager_examples():
    assert meager_ideal(discrete(3)) == (0,)
    sp = sierpinski()
    assert is_nowhere_dense(sp, 0b01)
    assert 0b10 & ~meager_mask(sp)
    assert set(meager_ideal(sp)) == {0, 0b01}


def test_largest_open_meager_and_baire():
    assert largest_open_meager(discrete(3)) == 0
    assert is_baire(sierpinski())
    # no finite space has a nonempty open meager set: open sets are their own
    # interiors, so an open meager set is empty; the sweep records this
    for n in (1, 2, 3, 4):
        for t in enumerate_topologies(n):
            u = largest_open_meager(t)
            assert u == 0
            assert is_baire(t) == (u == 0)


def test_baire_property():
    sp = sierpinski()
    assert baire_sets(sp) == (0, 1, 2, 3)
    t = indiscrete(2)
    assert baire_sets(t) == (0, 0b11)
    with pytest.raises(KeyError):
        category_algebra(t).class_of(0b01)


def test_category_algebra_discrete():
    cat = category_algebra(discrete(3))
    assert cat.size == 8
    assert classify(cat.order)["boolean"]
    assert tuple(cat.ro_iso) == regular_opens(discrete(3))


def test_category_algebra_sierpinski():
    sp = sierpinski()
    cat = category_algebra(sp)
    assert cat.size == 2
    bp = baire_sets(sp)
    assert bp == (0, 1, 2, 3)
    assert sorted(cat.ro_iso.values()) == sorted({cat.class_of(s) for s in bp})
    # the class of a union is the join of the classes
    join = ref_lattice_view(cat.order).join
    for a in bp:
        for b in bp:
            assert join[cat.class_of(a)][cat.class_of(b)] == cat.class_of(a | b)


def test_category_algebra_class_operations():
    # union, intersection and complement of Baire-property sets are the
    # join, meet and complement of their classes
    for t in enumerate_topologies(3):
        cat = category_algebra(t)
        lv = ref_lattice_view(cat.order)
        bottom, top = cat.class_of(0), cat.class_of(t.full_mask)
        bp = baire_sets(t)
        for a in bp:
            ca = cat.class_of(a)
            comp = cat.class_of(t.full_mask & ~a)
            assert lv.meet[ca][comp] == bottom and lv.join[ca][comp] == top
        for a in bp[:6]:
            for b in bp[:6]:
                ca, cb = cat.class_of(a), cat.class_of(b)
                assert cat.class_of(a | b) == lv.join[ca][cb]
                assert cat.class_of(a & b) == lv.meet[ca][cb]


def test_category_algebra_reads_no_subset_scan(monkeypatch):
    # the classes are the traces of the opens: the definition-level scan
    # of the meager ideal is never run
    def refuse(t):
        raise AssertionError("subset scan")

    monkeypatch.setattr(topology_module, "meager_ideal", refuse)
    for _, t in small_spaces():
        assert category_algebra(t).size >= 1
        if is_zero_dimensional(t):
            assert clopen_basis_check(t)["basis"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_category_algebra_iso_with_residual_ro(n):
    for t in enumerate_topologies(n):
        cat = category_algebra(t)     # raises if the isomorphism breaks
        assert len(cat.ro_iso) == cat.size


def test_clopen_basis_checks():
    assert clopen_basis_check(discrete(3))["basis"]
    assert clopen_basis_check(indiscrete(2))["basis"]
    with pytest.raises(NotZeroDimensionalError):
        clopen_basis_check(sierpinski())
    du = topology(4, [0b0011, 0b1100])  # two indiscrete clopen blobs
    assert is_zero_dimensional(du)
    assert clopen_basis_check(du)["basis"]


def test_clopen_classes_dense_in_zero_dimensional():
    for t in enumerate_topologies(3):
        if not is_zero_dimensional(t):
            continue
        cat = category_algebra(t)
        classes = 0
        for c in clopen_sets(t):
            classes |= 1 << cat.class_of(c)
        assert is_basis(cat.order, classes)


def test_enumerate_topologies_counts():
    # OEIS A000798; each order is built unchecked, and each passes the
    # checked constructor
    levels = [enumerate_topologies(n) for n in range(6)]
    assert [len(level) for level in levels] == [1, 1, 4, 29, 355, 6942]
    for level in levels:
        for t in level:
            assert QuasiOrder(t.up_masks).up_masks == t.up_masks


def test_scan_guard():
    with pytest.raises(TopologyError):
        meager_ideal(indiscrete(13))


def test_category_algebra_past_the_scan_limit():
    # the category algebra lists the opens, not the subsets: a 13-point
    # chain has 14 opens, and only its top point is not nowhere dense
    cat = category_algebra(chain(13))
    assert cat.size == 2 and cat.reps == (0, 1 << 12)
    assert clopen_basis_check(indiscrete(13)) == {
        "zero_dimensional": True, "basis": True, "clopen_classes": [0, 1]}


@pytest.mark.parametrize("n", range(MAX_TOPOLOGY_POINTS + 1))
def test_zero_dimensional_is_a_symmetric_preorder(n):
    # oracle: every least neighbourhood up(p) is closed
    for t in enumerate_topologies(n):
        assert is_zero_dimensional(t) == all(
            closure_of(t, up) == up for up in t.up_masks)


def test_json_round_trip():
    # reports list every open set; those opens generate the space again
    sp = sierpinski()
    obj = _topology_to_json(sp)
    assert obj == {"points": 2, "opens": [[], [1], [0, 1]]}
    again = topology(obj["points"], (sum(1 << i for i in o) for o in obj["opens"]))
    assert upper_sets(again) == upper_sets(sp)
