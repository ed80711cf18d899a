"""The upper-bound-class scans against the literal "for every subset B" scans.

Each ``ref_*`` function below walks every subset (in descending submask
order, or in ascending mask order for the distributive laws) and evaluates
the definition directly.  The library versions visit one subset per class
of upper bounds instead, and must agree with these references exactly,
witnesses, counts and error behaviour included.
"""

import itertools
import random

import numpy as np
import pytest

from latkit.builders import enumerate_lattices, enumerate_posets, powerset_lattice
from latkit.embedding import (
    HypothesisFailed,
    _check_sigma_hypotheses,
    _preserves_sups,
    continuity_checks,
)
from latkit.lattice import (
    _join,
    check_jid,
    check_mid,
    classify,
    inf_in_subset,
    is_join_dense,
    is_meet_closed,
    order_closed_checks,
    order_closure_up,
    preregularity_witness,
    set_distributivity_failure,
    sup_in_subset,
)
from latkit.monoid import (
    MonoidError,
    associated_order,
    check_disjoint_sum_laws,
    check_distributivity,
    cyclic_group,
    enumerate_commutative_monoids,
    truncated_addition_monoid,
)
from latkit.order import (
    MAX_CLOSURE_SIZE,
    MonotoneMap,
    OrderError,
    bits,
    build_quasi_order,
    inf,
    intersection_closure,
    sup,
)
from oracles import (
    census_maps,
    is_bounded_above,
    is_directed,
    order_from_relation,
    ref_finite_disjoint_sum,
    ref_finite_monoid_binary,
    ref_finite_monoid_set_law,
    ref_lattice_view,
    ref_set_distributivity_failure,
)


# ---------------------------------------------------------------------------
# reference scans


def ref_preregularity_witness(q, m, upwards):
    if upwards:
        inner, outer = sup_in_subset, sup
    else:
        inner, outer = inf_in_subset, inf
    sub = m
    while True:
        if sub:
            a = inner(q, m, sub)
            if a is not None:
                p = outer(q, sub)
                if p != a:
                    return {"B": list(bits(sub)), "in_subset": a, "in_ambient": p}
        if sub == 0:
            return None
        sub = (sub - 1) & m


def ref_order_closed_checks(q, m):
    up_boc = up_oc = down_boc = down_oc = True
    sub = m
    while sub:
        s = sup(q, sub)
        if s is not None and not (m >> s) & 1:
            up_oc = False
            bounded_in_a = m
            for b in bits(sub):
                bounded_in_a &= q.up_masks[b]
            if bounded_in_a:
                up_boc = False
        t = inf(q, sub)
        if t is not None and not (m >> t) & 1:
            down_oc = False
            bounded_in_a = m
            for b in bits(sub):
                bounded_in_a &= q.down_masks[b]
            if bounded_in_a:
                down_boc = False
        sub = (sub - 1) & m
    return {"up_boc": up_boc, "down_boc": down_boc, "up_oc": up_oc, "down_oc": down_oc}


def ref_order_closure_up(q, m):
    if not m:
        return 0
    out = 0
    sub = m
    while True:
        s = sup(q, sub)
        if s is not None:
            out |= 1 << s
        if sub == 0:
            break
        sub = (sub - 1) & m
    return out


def ref_continuity_checks(sigma):
    dom, cod = sigma.dom, sigma.cod
    full = dom.full_mask
    sups = infs = scott = co_scott = True
    amask = full
    while amask:
        s = sup(dom, amask)
        if s is not None:
            target = sup(cod, sigma.image_mask(amask))
            if target != sigma.image[s]:
                sups = False
                if is_directed(dom, amask):
                    scott = False
        t = inf(dom, amask)
        if t is not None:
            target = inf(cod, sigma.image_mask(amask))
            if target != sigma.image[t]:
                infs = False
                if is_directed(dom.dual, amask):
                    co_scott = False
        amask = (amask - 1) & full
    return {
        "preserves_nonempty_sups": sups,
        "preserves_nonempty_infs": infs,
        "scott_continuous": scott,
        "co_continuous": co_scott,
    }


def ref_check_sigma_hypotheses(L, dmask, sigma, M):
    if set(sigma) != set(bits(dmask)):
        raise ValueError("sigma must be defined exactly on D")
    if not classify(M)["complete_semilattice"]:
        raise HypothesisFailed("M-complete-semilattice")
    if not is_join_dense(L, dmask):
        raise HypothesisFailed("D-join-dense")
    if not is_meet_closed(L, dmask):
        raise HypothesisFailed("D-meet-subsemilattice")
    for d in bits(dmask):
        for e in bits(dmask):
            if L.le(d, e) and not M.le(sigma[d], sigma[e]):
                raise HypothesisFailed("sigma-order-preserving", f"({d},{e})")
    sub = dmask
    while sub:
        s = sup(L, sub)
        if s is not None and (dmask >> s) & 1:
            img = 0
            for d in bits(sub):
                img |= 1 << sigma[d]
            if sup(M, img) != sigma[s]:
                raise HypothesisFailed("sigma-preserves-sups-in-L",
                                       f"B={list(bits(sub))}")
        sub = (sub - 1) & dmask
    sub = dmask
    while sub:
        if is_bounded_above(L, sub):
            img = 0
            for d in bits(sub):
                img |= 1 << sigma[d]
            if not is_bounded_above(M, img):
                raise HypothesisFailed("sigma-preserves-boundedness-in-L",
                                       f"A={list(bits(sub))}")
        sub = (sub - 1) & dmask


def ref_infinite_distributive(q, dual):
    lv = ref_lattice_view(q)
    op = lv.join if dual else lv.meet
    bound = inf if dual else sup
    n = q.size
    checked = 0
    for a in range(n):
        for bmask in range(1, 1 << n):
            checked += 1
            s = bound(q, bmask)
            if s is None:
                continue
            imgs = 0
            for b in bits(bmask):
                imgs |= 1 << op[a][b]
            if bound(q, imgs) != op[a][s]:
                return {"holds": False, "mode": "exhaustive", "checked": checked,
                        "witness": {"a": a, "B": list(bits(bmask))}}
    return {"holds": True, "mode": "exhaustive", "checked": checked, "witness": None}


def outcome(fn, *args):
    """``fn``'s result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (OrderError, HypothesisFailed, MonoidError) as exc:
        return type(exc), str(exc)


def monotone_maps(dom, cod):
    for img in itertools.product(range(cod.size), repeat=dom.size):
        if all(cod.le(img[a], img[b]) for a in range(dom.size)
               for b in bits(dom.up_masks[a])):
            yield MonotoneMap(dom, cod, img)


def labeled_quasi_orders(n):
    for flags in itertools.product((False, True), repeat=n * n - n):
        mat = np.eye(n, dtype=bool)
        mat[~np.eye(n, dtype=bool)] = flags
        if not (np.matmul(mat, mat) & ~mat).any():
            yield order_from_relation(mat)


# ---------------------------------------------------------------------------
# the engine itself


def test_intersection_closure_is_every_subfamily_intersection():
    rng = random.Random(7)
    for _ in range(300):
        masks = [rng.getrandbits(6) for _ in range(rng.randrange(6))]
        expected = set()
        for r in range(1, len(masks) + 1):
            for family in itertools.combinations(masks, r):
                acc = -1
                for f in family:
                    acc &= f
                expected.add(acc)
        assert intersection_closure(masks) == expected, masks


def test_intersection_closure_stops_past_its_cap():
    # the complements of the 18 bits meet in every proper subset of the
    # 18 bits, so with all of them the closure is the whole power set,
    # exactly MAX_CLOSURE_SIZE members; a new bit is one member more
    assert MAX_CLOSURE_SIZE == 1 << 18
    full = (1 << 18) - 1
    masks = [full] + [full & ~(1 << i) for i in range(18)]
    assert intersection_closure(masks) == set(range(1 << 18))
    with pytest.raises(OrderError, match="MAX_CLOSURE_SIZE"):
        intersection_closure(masks + [1 << 18])


# ---------------------------------------------------------------------------
# agreement with the references


def subset_scans(q, m):
    return (
        preregularity_witness(q, m, upwards=True),
        preregularity_witness(q, m, upwards=False),
        order_closed_checks(q, m),
        order_closure_up(q, m),
        order_closure_up(q.dual, m),
    )


def ref_subset_scans(q, m):
    return (
        ref_preregularity_witness(q, m, upwards=True),
        ref_preregularity_witness(q, m, upwards=False),
        ref_order_closed_checks(q, m),
        ref_order_closure_up(q, m),
        ref_order_closure_up(q.dual, m),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_subset_scans_match_reference_on_every_poset(n):
    witnesses = 0
    for q in enumerate_posets(n):
        for m in range(1 << n):
            got = subset_scans(q, m)
            assert got == ref_subset_scans(q, m), (q.up_masks, m)
            witnesses += got[0] is not None
    assert n < 4 or witnesses > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subset_scans_match_reference_on_quasi_orders(n):
    # off posets both raise OrderError, except on the empty subset
    for q in labeled_quasi_orders(n):
        for m in range(1 << n):
            assert outcome(subset_scans, q, m) == outcome(ref_subset_scans, q, m)


def test_map_scans_match_reference():
    doms = [q for n in (1, 2, 3, 4) for q in enumerate_posets(n)]
    cods = [q for n in (1, 2, 3) for q in enumerate_posets(n)]
    maps = failing = 0
    for dom in doms:
        for cod in cods:
            for mm in monotone_maps(dom, cod):
                maps += 1
                cont = continuity_checks(mm)
                assert cont == ref_continuity_checks(mm), mm
                assert (_preserves_sups(dom, cod, mm.image)
                        == cont["preserves_nonempty_sups"]), mm
                failing += not all(cont.values())
    assert maps == 2436 and failing == 329


def test_sup_scan_is_the_continuity_flag_on_convex_censuses():
    # the extensions read _preserves_sups where they read this flag
    maps = 0
    for n in range(5):
        for m in range(n, 5):
            for mm in census_maps(powerset_lattice(n), powerset_lattice(m),
                                  convex_range=True):
                maps += 1
                assert (_preserves_sups(mm.dom, mm.cod, mm.image)
                        == continuity_checks(mm)["preserves_nonempty_sups"]), mm
    assert maps == 220


def test_map_scans_match_reference_on_quasi_orders():
    for dom in labeled_quasi_orders(2):
        for cod in labeled_quasi_orders(2):
            for mm in monotone_maps(dom, cod):
                assert (outcome(continuity_checks, mm)
                        == outcome(ref_continuity_checks, mm))


def test_hypothesis_failures_match_reference():
    # the inputs of test_extension_uniqueness_sweep, plus targets that are
    # complete semilattices but not lattices, where boundedness can fail
    lats = [q for n in (2, 3, 4) for q in enumerate_lattices(n)]
    targets = [m for n in (2, 3, 4) for m in enumerate_posets(n)
               if classify(m)["complete_semilattice"]]
    seen = set()
    for L in lats:
        dense_sets = [d for d in range(1 << L.size)
                      if is_join_dense(L, d) and is_meet_closed(L, d)]
        for dmask in dense_sets:
            delems = list(bits(dmask))
            for M in targets:
                for values in itertools.product(range(M.size), repeat=len(delems)):
                    sig = dict(zip(delems, values))
                    if not all(M.le(sig[a], sig[b])
                               for a in delems for b in delems if L.le(a, b)):
                        continue
                    got = outcome(_check_sigma_hypotheses, L, dmask, sig, M)
                    assert got == outcome(ref_check_sigma_hypotheses, L, dmask, sig, M)
                    if got is not None:
                        seen.add(str(got[1]).split("'")[1])
    assert seen == {"sigma-preserves-sups-in-L", "sigma-preserves-boundedness-in-L"}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_infinite_distributivity_matches_reference_on_every_lattice(n):
    failing = 0
    for q in enumerate_lattices(n):
        for check, dual in ((check_jid, False), (check_mid, True)):
            rep = check(q)
            assert rep == ref_infinite_distributive(q, dual), (q.up_masks, dual)
            failing += not rep["holds"]
    # finite lattices satisfy either law iff they are distributive
    assert (failing > 0) == (n >= 5)


def test_infinite_distributivity_beyond_fourteen_elements():
    # M3 with the atom 0 below the top 4, then a chain 5 < ... < 16 above it:
    # 17 elements, and both laws first fail at a = 0, B = {2, 3}
    pairs = [(1, 0), (1, 2), (1, 3), (0, 4), (2, 4), (3, 4)]
    pairs += [(k, k + 1) for k in range(4, 16)]
    q = build_quasi_order(17, pairs)
    for check, dual in ((check_jid, False), (check_mid, True)):
        rep = check(q)
        assert rep == ref_infinite_distributive(q, dual)
        # a = 0 visits the nonempty masks 1..12
        assert rep["witness"] == {"a": 0, "B": [2, 3]} and rep["checked"] == 12
    rep = check_jid(powerset_lattice(4))
    assert rep == {"holds": True, "mode": "exhaustive",
                   "checked": 16 * ((1 << 16) - 1), "witness": None}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_set_distributivity_scan_matches_its_own_loop_on_every_lattice(n):
    # the shared sup-preservation scan against the loop it replaced:
    # checked count and first failing (a, B) both ways
    failing = 0
    for q in enumerate_lattices(n):
        for o in (q, q.dual):
            got = set_distributivity_failure(o, _join(o.dual))
            assert got == ref_set_distributivity_failure(o, _join(o.dual)), (
                q.up_masks, o is q)
            failing += got[1] is not None
    assert (failing > 0) == (n >= 5)


def test_set_distributivity_scan_matches_its_own_loop_on_monoid_tables():
    tables = 0
    failing = 0
    for n in range(1, 6):
        for mon in enumerate_commutative_monoids(n):
            q = associated_order(mon)
            if not q.is_poset:
                continue
            tables += 1
            for o in (q, q.dual):
                got = set_distributivity_failure(o, mon.op)
                assert got == ref_set_distributivity_failure(o, mon.op), (
                    mon.table, o is q)
                failing += got[1] is not None
    assert tables == 1 + 1 + 4 + 36 + 596 and failing > 0


def test_finite_monoid_set_laws_match_reference():
    monoids = [m for n in (1, 2, 3, 4) for m in enumerate_commutative_monoids(n)]
    monoids += [truncated_addition_monoid(n) for n in (1, 2, 3, 4, 5)]
    monoids += [cyclic_group(n) for n in (1, 2, 3, 4)]
    checks = dict.fromkeys(
        ("plus_join_inf", "plus_meet_inf", "plus_join", "plus_meet",
         "disjoint_sum"), 0)
    failing = dict(checks)
    for m in monoids:
        runs = {
            # each law against its definition, over every instance
            **{mode: (outcome(check_distributivity, m, mode),
                      outcome(ref_finite_monoid_set_law, m, mode))
               for mode in ("plus_join_inf", "plus_meet_inf")},
            **{mode: (outcome(check_distributivity, m, mode),
                      outcome(ref_finite_monoid_binary, m, mode))
               for mode in ("plus_join", "plus_meet")},
            "disjoint_sum": (outcome(check_disjoint_sum_laws, m),
                             outcome(ref_finite_disjoint_sum, m)),
        }
        for law, (got, want) in runs.items():
            assert got == want, (m.table, law)
            if isinstance(got, dict):
                checks[law] += 1
                failing[law] += not got["holds"]
                assert (got["witness"] or {}).get("B") != []
    # 48 of the monoids are poset monoids; both join laws hold on all
    assert checks == dict.fromkeys(checks, 48)
    assert failing == {"plus_join_inf": 0, "plus_meet_inf": 9, "plus_join": 0,
                       "plus_meet": 9, "disjoint_sum": 9}
