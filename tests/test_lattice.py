"""Poset classification and subset-property verdicts."""

import itertools

import pytest

from latkit.builders import (
    antichain,
    bowtie,
    chain,
    enumerate_lattices,
    enumerate_posets,
    m3,
    n5,
    powerset_lattice,
)
from latkit.lattice import (
    OrderError,
    check_jid,
    check_mid,
    classify,
    convexity_witness,
    covers_of_bottom,
    density_checks,
    distributivity_witness,
    inf_in_subset,
    is_basis,
    is_convex,
    is_dense,
    is_distributive,
    is_flat,
    is_interval_predense,
    is_join_closed,
    is_join_dense,
    is_meet_closed,
    is_meet_subsemilattice,
    is_preregular,
    is_strongly_interval_predense,
    is_sublattice,
    order_closed_checks,
    order_closure_up,
    preregularity_witness,
    subset_report,
    sup_in_subset,
)
from latkit.order import (
    MonotoneMap,
    atoms,
    bits,
    build_quasi_order,
    induced_suborder,
    inf,
    lower_closure,
    minimal_elements,
    positive_part,
    sup,
    upper_closure,
)
from oracles import (
    ref_distributivity_witness,
    ref_is_basis,
    ref_is_boolean,
    ref_is_strongly_interval_predense,
    ref_lattice_view,
    ref_order_flags,
    ref_table_infinite_distributive,
    relabel,
)


def all_subsets(q):
    return range(1 << q.size)


def brute_sup_in(q, amask, bmask):
    """Oracle: upper bounds of B inside A, then the least among them."""
    a_items = [p for p in range(q.size) if (amask >> p) & 1]
    b_items = [p for p in range(q.size) if (bmask >> p) & 1]
    ubs = [u for u in a_items if all(q.le(b, u) for b in b_items)]
    least = [u for u in ubs if all(q.le(u, v) for v in ubs)]
    return least[0] if least else None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_classify_flags_are_the_lattice_view_flags(n):
    # every poset of at most 6 elements and every lattice of 7 or 8, with
    # their duals
    for q in enumerate_posets(n) if n <= 6 else enumerate_lattices(n):
        for o in (q, q.dual):
            got, want = classify(o), ref_order_flags(o)
            assert (got["lattice"], got["complete_semilattice"]) == \
                (want["lattice"], want["complete_semilattice"])


def test_classify_stock_posets():
    full = classify(powerset_lattice(3))
    assert full == {
        "lattice": True, "complete_semilattice": True, "complete_lattice": True,
        "bounded": True, "boolean": True, "pointed": True,
    }
    c = classify(chain(3))
    assert c["lattice"] and c["complete_lattice"] and not c["boolean"]
    b = classify(bowtie())
    assert not b["lattice"] and not b["pointed"]
    a = classify(antichain(2))
    assert not a["complete_semilattice"] and not a["lattice"]


@pytest.mark.parametrize("n", range(1, 7))
def test_lattice_view_tables_are_pairwise_sup_and_inf(n):
    # the pairwise sup/inf loop that the lookup tables replaced is the oracle
    for p in enumerate_posets(n):
        for q in (p, p.dual):
            lv = ref_lattice_view(q)
            for a in range(n):
                for b in range(n):
                    pair = (1 << a) | (1 << b)
                    for table, bound in ((lv.join, sup), (lv.meet, inf)):
                        v = bound(q, pair)
                        assert table[a][b] == (-1 if v is None else v)


def test_distributivity():
    assert is_distributive(powerset_lattice(3))
    assert not is_distributive(m3())
    assert not is_distributive(n5())
    with pytest.raises(OrderError):
        is_distributive(bowtie())
    # the first failing triple: the atoms (M3), or 1 < 3 against 2 (N5)
    for q in (m3(), n5()):
        assert distributivity_witness(q) == {"a": 1, "b": 2, "c": 3}
    assert distributivity_witness(powerset_lattice(3)) is None


@pytest.mark.parametrize("n", range(1, 7))
def test_distributivity_witness_is_the_first_failing_triple(n):
    for q in enumerate_lattices(n):
        join = [[sup(q, 1 << a | 1 << b) for b in range(n)] for a in range(n)]
        meet = [[inf(q, 1 << a | 1 << b) for b in range(n)] for a in range(n)]
        first = next(({"a": a, "b": b, "c": c}
                      for a, b, c in itertools.product(range(n), repeat=3)
                      if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]
                      or join[a][meet[b][c]] != meet[join[a][b]][join[a][c]]),
                     None)
        assert distributivity_witness(q) == first


def test_boolean_needs_distributivity():
    # M3 and N5 are complemented, and no Boolean algebra
    for q in (m3(), n5()):
        assert classify(q)["complete_lattice"] and not classify(q)["boolean"]
    for n in range(7):
        assert classify(powerset_lattice(n))["boolean"]
        assert classify(relabel(powerset_lattice(n),
                                list(reversed(range(1 << n)))))["boolean"]


@pytest.mark.parametrize("n", range(1, 9))
def test_boolean_flag_is_the_definition(n):
    orders = enumerate_posets(n) if n <= 5 else enumerate_lattices(n)
    for q in orders:
        for o in (q, q.dual):
            assert classify(o)["boolean"] == ref_is_boolean(o), o.up_masks


def lookup_against_tables(q, dmasks) -> int:
    """Compare the lookup-based checks on ``q`` with the same checks read
    off ``ref_lattice_view``'s tables, verdict for verdict and witness for
    witness, over ``dmasks``; return how many subsets reached the basis
    search."""
    lv = ref_lattice_view(q)
    assert distributivity_witness(q) == ref_distributivity_witness(lv)
    assert check_jid(q) == ref_table_infinite_distributive(lv, False)
    assert check_mid(q) == ref_table_infinite_distributive(lv, True)
    searched = 0
    for dmask in dmasks:
        assert is_strongly_interval_predense(q, dmask) == \
            ref_is_strongly_interval_predense(lv, dmask), (q.up_masks, dmask)
        basis = is_basis(q, dmask)
        assert basis == ref_is_basis(lv, dmask), (q.up_masks, dmask)
        searched += basis
    return searched


@pytest.mark.parametrize("n", range(1, 9))
def test_lookups_match_the_tables_on_every_small_lattice(n):
    # every lattice of n elements and its dual, with every subset D up to
    # 6 elements and, above that, the subsets holding the bottom
    bases = 0
    for q in enumerate_lattices(n):
        for o in (q, q.dual):
            bottom = sup(o, 0)
            bases += lookup_against_tables(o, (
                d for d in range(1 << n) if n <= 6 or d >> bottom & 1))
    assert bases > 0


def test_lookups_match_the_tables_on_the_fixtures():
    for q in (m3(), n5(), powerset_lattice(3)):
        lookup_against_tables(q, range(1 << q.size))
    p4 = powerset_lattice(4)
    lookup_against_tables(p4, range(1, 1 << 16, 97))
    for q in (m3(), n5()):
        assert distributivity_witness(q) == {"a": 1, "b": 2, "c": 3}


def test_jid_mid():
    assert check_jid(powerset_lattice(3))["holds"]
    assert check_mid(powerset_lattice(3))["holds"]
    bad = check_jid(m3())
    assert not bad["holds"]
    w = bad["witness"]
    # an atom against the other two: a ^ vB = a but v(a ^ B) = 0
    assert w is not None and len(w["B"]) >= 2
    assert check_jid(chain(5))["holds"]
    assert check_mid(chain(5))["holds"]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jid_implies_distributive(n):
    for q in enumerate_lattices(n):
        if check_jid(q)["holds"]:
            assert is_distributive(q)
        if check_mid(q)["holds"]:
            assert is_distributive(q)


def test_convexity():
    p3 = powerset_lattice(3)
    assert is_convex(p3, 0b10101010)      # the interval [{0}, X]
    assert not is_convex(p3, 0b10000111)  # {0,1} missing
    w = convexity_witness(p3, 0b10000111)
    assert w["missing"] == 3
    assert is_convex(p3, 0)
    assert is_convex(p3, 0b100000)


def test_linear_convexity_is_the_pair_scan():
    # convexity_witness scans every pair of members for a gap; is_convex
    # reads the up-closure AND the down-closure
    subsets = 0
    for n in range(1, 6):
        for q in enumerate_posets(n):
            for amask in range(1 << n):
                subsets += 1
                assert is_convex(q, amask) == (convexity_witness(q, amask) is None)
    assert subsets == 1 * 2 + 2 * 4 + 5 * 8 + 16 * 16 + 63 * 32


def test_sup_in_subset_requires_b_inside_a():
    c3 = chain(3)
    with pytest.raises(OrderError):
        sup_in_subset(c3, 0b011, 0b100)
    with pytest.raises(OrderError):
        inf_in_subset(c3, 0b011, 0b100)
    assert inf_in_subset(c3, 0b101, 0b000) == 2


def test_sup_in_subset_matches_oracle():
    for q in enumerate_posets(4):
        for amask in all_subsets(q):
            bmask = amask
            while True:
                assert sup_in_subset(q, amask, bmask) == brute_sup_in(q, amask, bmask)
                if bmask == 0:
                    break
                bmask = (bmask - 1) & amask


def test_preregular_examples():
    p3 = powerset_lattice(3)
    # convex subsets of a lattice are preregular
    assert is_preregular(p3, 0b10101010)
    assert is_preregular(p3, p3.full_mask)
    # bowtie over a bottom: {a, b, c} is convex but its inner sup has no
    # ambient counterpart
    bw = build_quasi_order(5, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    assert is_convex(bw, 0b1110)
    w = preregularity_witness(bw, 0b1110, upwards=True)
    assert sorted(w["B"]) == [1, 2] and w["in_subset"] == 3 and w["in_ambient"] is None


def test_preregular_with_disagreeing_sup():
    # chain 0<1<2<3 with a shortcut subset {0,1,3}: inner sup of {0,1} is 1,
    # ambient sup is 1 as well; use {1,3} against an added side element
    # explicit 5-element witness: z, a, b < c < d with subset {a, b, d}
    q = build_quasi_order(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    amask = (1 << 1) | (1 << 2) | (1 << 4)
    w = preregularity_witness(q, amask, upwards=True)
    assert w is not None and w["in_subset"] == 4 and w["in_ambient"] == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_convex_implies_preregular_in_lattices(n):
    for q in enumerate_lattices(n):
        for amask in all_subsets(q):
            if is_convex(q, amask):
                assert is_preregular(q, amask)


def test_order_closed_checks():
    p2 = powerset_lattice(2)
    assert order_closed_checks(p2, p2.full_mask) == {
        "up_boc": True, "down_boc": True, "up_oc": True, "down_oc": True,
    }
    # two incomparable bottoms under a 2-chain; sup of the bottoms escapes A
    q = build_quasi_order(4, [(0, 2), (1, 2), (2, 3)])
    amask = 0b1011  # {0, 1, 3}
    checks = order_closed_checks(q, amask)
    assert not checks["up_boc"] and not checks["up_oc"]
    # intervals of a complete lattice are closed every way
    p3 = powerset_lattice(3)
    assert all(order_closed_checks(p3, 0b10101010).values())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_boundedly_closed_in_complete_semilattice_is_preregular(n):
    for q in enumerate_posets(n):
        if not classify(q)["complete_semilattice"]:
            continue
        for amask in all_subsets(q):
            oc = order_closed_checks(q, amask)
            if oc["up_boc"] and oc["down_boc"]:
                assert is_preregular(q, amask)


def test_order_closure():
    p2 = powerset_lattice(2)
    assert tuple(bits(order_closure_up(p2, 0b110))) == (0, 1, 2, 3)
    assert order_closure_up(p2, 0) == 0
    assert tuple(bits(order_closure_up(p2.dual, 0b110))) == (0, 1, 2, 3)
    # idempotent, extensive, monotone
    for q in enumerate_posets(4):
        closures = {}
        for amask in all_subsets(q):
            c = order_closure_up(q, amask)
            closures[amask] = c
            assert amask & ~c == 0
            assert order_closure_up(q, c) == c
        for amask in all_subsets(q):
            for bmask in all_subsets(q):
                if amask & ~bmask == 0:
                    assert closures[amask] & ~closures[bmask] == 0


def test_flat():
    p3 = powerset_lattice(3)
    assert is_flat(p3, 0b10110)        # singletons meet at the bottom
    assert is_flat(p3, 0b101010)       # pairwise meets all equal {0}
    assert not is_flat(p3, 0b1101000)  # meets hit different singletons
    assert is_flat(p3, 0b100000)


def test_flat_completeness_matches_literal_scan():
    # a finite lattice is flat complete, as the M-lattice hypothesis of
    # embedding.check_transfer_setting reads it: every flat subset has a
    # supremum, checked subset by subset
    lattices = 0
    for n in range(1, 7):
        for q in enumerate_lattices(n):
            lattices += 1
            assert all(sup(q, m) is not None
                       for m in all_subsets(q) if is_flat(q, m))
    assert lattices == 1 + 1 + 1 + 2 + 5 + 15


def test_density_checks_powerset_singletons():
    p3 = powerset_lattice(3)
    flags = density_checks(p3, 0b10110)
    assert flags == {
        "dense": True,
        "join_dense": True,
        "interval_predense": True,
        "strongly_interval_predense": False,  # meets with p fall to 0, not in D
        "basis": True,
    }
    with_zero = density_checks(p3, 0b10111)
    assert with_zero["strongly_interval_predense"] and with_zero["basis"]


def test_density_chain_successors():
    c4 = chain(4)
    flags = density_checks(c4, 0b1110)
    assert flags["dense"] and flags["join_dense"] and flags["interval_predense"]
    assert not flags["strongly_interval_predense"]
    assert density_checks(c4, 0b1111)["strongly_interval_predense"]


def is_upwards_preregular(q, m):
    # the witness in one direction, under the name that keeps its case's id
    return preregularity_witness(q, m, upwards=True)


SUBSET_ARGUMENTS = [
    sup, inf, minimal_elements, positive_part, atoms, upper_closure,
    lower_closure, induced_suborder, is_convex, convexity_witness,
    is_preregular, is_upwards_preregular, order_closed_checks,
    order_closure_up, is_flat, is_dense, is_join_dense, is_interval_predense,
    is_strongly_interval_predense, is_meet_closed, is_join_closed,
    is_sublattice, is_meet_subsemilattice, is_basis, density_checks,
    subset_report,
    lambda q, m: preregularity_witness(q, m, upwards=False),
    lambda q, m: sup_in_subset(q, m, 0),
    lambda q, m: inf_in_subset(q, q.full_mask, m),
    lambda q, m: MonotoneMap(q, q, range(q.size)).image_mask(m),
]


@pytest.mark.parametrize("call", SUBSET_ARGUMENTS)
def test_every_subset_argument_is_checked_against_the_carrier(call):
    # a subset is an int mask, and a bit outside the carrier (a negative
    # mask has infinitely many) is refused wherever a mask comes in
    p3 = powerset_lattice(3)
    for mask in (1 << 8, 0b1 | 1 << 9, -1):
        with pytest.raises(OrderError, match="mask has bits outside the carrier"):
            call(p3, mask)


def test_basis_requires_pointed_lattice():
    with pytest.raises(OrderError):
        is_basis(bowtie(), 0b11)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_join_dense_implies_interval_predense_implies_dense(n):
    # on pointed posets; lattices below size 6 cover the pointed cases well
    for q in enumerate_posets(n):
        if sup(q, 0) is None:
            continue
        for dmask in all_subsets(q):
            jd = is_join_dense(q, dmask)
            ip = is_interval_predense(q, dmask)
            de = is_dense(q, dmask)
            if jd:
                assert ip
            if ip:
                assert de


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_join_dense_equals_interval_predense_on_meet_semilattices(n):
    for q in enumerate_posets(n):
        lv = ref_lattice_view(q)
        if not all(v >= 0 for row in lv.meet for v in row):
            continue
        for dmask in all_subsets(q):
            assert is_join_dense(q, dmask) == is_interval_predense(q, dmask)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dense_meet_subsemilattice_of_boolean_algebra_is_basis(n):
    q = powerset_lattice(n)
    for dmask in all_subsets(q):
        if is_dense(q, dmask) and is_meet_subsemilattice(q, dmask):
            assert is_basis(q, dmask)


def test_meet_subsemilattice_vs_meet_closed():
    p3 = powerset_lattice(3)
    # an antichain has no inner meets, so the weak notion holds vacuously
    assert is_meet_subsemilattice(p3, 0b10110)
    assert not is_meet_closed(p3, 0b10110)
    assert is_meet_closed(p3, 0b10111)
    # inner meet exists but disagrees with the ambient one
    assert not is_meet_subsemilattice(p3, 0b1001001)  # {0,1} ^ {1,2} = {1}, inner gives 0
    # wait: inner lower bounds of {3, 6} inside {0,3,6} = {0}: inner meet 0, ambient 2
    assert inf_in_subset(p3, 0b1001001, 0b1001000) == 0


def closed_by_definition(q, amask, dual):
    """Oracle: every pair of members of ``A`` has a meet (a join with
    ``dual``) in ``q``, the greatest (least) of its common lower (upper)
    bounds, and that bound lies in ``A``."""
    def below(x, y):
        return q.le(y, x) if dual else q.le(x, y)
    members = [p for p in range(q.size) if (amask >> p) & 1]
    for a in members:
        for b in members:
            bounds = [c for c in range(q.size) if below(c, a) and below(c, b)]
            best = [g for g in bounds if all(below(c, g) for c in bounds)]
            if len(best) != 1 or not (amask >> best[0]) & 1:
                return False
    return True


def test_meet_join_and_sublattice_closure_match_their_definitions():
    # every labeling of every poset of at most 4 elements and every lattice
    # of at most 5, so no verdict leans on a linear-extension labeling
    shapes = [q for n in range(5) for q in enumerate_posets(n)]
    shapes += [q for n in range(6) for q in enumerate_lattices(n)]
    orders = {relabel(q, perm) for q in shapes
              for perm in itertools.permutations(range(q.size))}
    verdicts = set()
    for q in orders:
        for amask in all_subsets(q):
            meet = closed_by_definition(q, amask, dual=False)
            join = closed_by_definition(q, amask, dual=True)
            assert is_meet_closed(q, amask) == meet, (q, amask)
            assert is_join_closed(q, amask) == join, (q, amask)
            assert is_sublattice(q, amask) == (meet and join), (q, amask)
            verdicts.add((meet, join))
    # every combination of the two verdicts occurs
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def test_covers_of_bottom_equals_atoms_in_boolean_algebras():
    for n in range(1, 5):
        q = powerset_lattice(n)
        assert covers_of_bottom(q) == atoms(q)
    # in a chain the two notions differ
    c3 = chain(3)
    assert tuple(bits(covers_of_bottom(c3))) == (1,)
    assert tuple(bits(atoms(c3))) == (1, 2)


def loop_covers_of_bottom(q):
    """The elements above the bottom with no element strictly between,
    read off ``lt``."""
    bottom = sup(q, 0)
    return sum(1 << p for p in range(q.size) if q.lt(bottom, p) and not any(
        q.lt(bottom, r) for r in bits(q.down_masks[p] & ~(1 << p))))


def test_covers_of_bottom_matches_the_loop_on_every_small_poset():
    pointed = [q for n in range(1, 7) for q in enumerate_posets(n)
               if sup(q, 0) is not None]
    # one per poset of at most 5 elements, under a new bottom
    assert len(pointed) == 88
    for q in pointed:
        assert covers_of_bottom(q) == loop_covers_of_bottom(q), q.up_masks


def test_subset_report_shape():
    p3 = powerset_lattice(3)
    rep = subset_report(p3, 0b10000111)
    assert rep["convex"] == {"holds": False,
                             "witness": {"p": 0, "q": 7, "missing": 3}}
    # the inner join of the two singletons is the top, the ambient one is not
    assert not rep["preregular_up"]["holds"]
    assert rep["preregular_up"]["witness"]["in_subset"] == 7
    assert rep["preregular_down"]["holds"]
    for key in ("up_boc", "down_boc", "up_oc", "down_oc", "flat"):
        assert "holds" in rep[key]
