"""Monoid orders, group completion, and the distributive laws."""

import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from latkit.monoid import (
    DISTRIBUTIVITY_MODES,
    MAX_SAMPLED_SET_SIZE,
    SAMPLE_BOUND,
    FiniteMonoid,
    MonoidError,
    NotCancellativeError,
    VectorGroupCompletion,
    VectorMonoid,
    associated_order,
    _laws,
    _scalar_sets,
    _triples,
    check_disjoint_sum_laws,
    check_distributive_laws,
    check_distributivity,
    closed_under_subtraction,
    cyclic_group,
    enumerate_commutative_monoids,
    group_completion,
    monoid_class,
    monoid_from_json,
    truncated_addition_monoid,
    vector_group_completion,
)
from latkit.cli import EXIT_INTERNAL, main
from latkit.order import inf, is_partial_order, sup
from oracles import (
    monoid_to_json,
    ref_finite_disjoint_sum,
    ref_group_completion,
    ref_order_flags,
    ref_finite_monoid_binary,
    ref_finite_monoid_set_law,
    ref_sampled_disjoint_sum,
    ref_sampled_distributivity,
    sampled_instances,
    sampled_vector,
)


# the instances each law's report counts on N^I: the 9^3 triples of the
# scalar grid, or its 9 * 255 pairs (a, B) for the set laws
GRID_CHECKED = {"plus_join": 729, "plus_meet": 729,
                "plus_join_inf": 2295, "plus_meet_inf": 2295}


def max_monoid():
    return FiniteMonoid([[0, 1], [1, 1]], 0)


def test_table_validation():
    with pytest.raises(MonoidError):
        FiniteMonoid([[0, 1], [0, 1]], 0)      # identity law fails
    with pytest.raises(MonoidError):
        FiniteMonoid([[0, 1], [1, 0]], 1)      # wrong identity
    with pytest.raises(MonoidError):
        FiniteMonoid([[0, 1, 2], [1, 2, 0], [2, 1, 0]], 0)  # not associative


def test_associated_order_examples():
    q = associated_order(max_monoid())
    assert is_partial_order(q) and q.le(0, 1) and not q.le(1, 0)
    # groups reach everything from everything
    qz = associated_order(cyclic_group(2))
    assert qz.le(0, 1) and qz.le(1, 0) and not is_partial_order(qz)


def test_vector_monoid_is_the_product_order():
    v = VectorMonoid(2)
    assert v.leq((1, 0), (2, 3))
    assert not v.leq((1, 2), (2, 1))
    assert v.sup_of(((1, 2), (2, 1))) == (2, 2)
    assert v.inf_of(((1, 2), (2, 1))) == (1, 1)
    assert v.sub((2, 3), (1, 0)) == (1, 3)
    assert v.sub((1, 0), (2, 0)) is None


def test_monoid_class():
    mc = monoid_class(max_monoid())
    assert mc["poset_monoid"] and mc["semilattice_monoid"] and mc["lattice_monoid"]
    assert not mc["cancellative"]
    assert mc["invertibles"] == (0,)
    z = monoid_class(cyclic_group(2))
    assert not z["poset_monoid"] and z["invertibles"] == (0, 1)
    nat = monoid_class(VectorMonoid(1))
    assert nat["lattice_monoid"] and nat["cancellative"]


def test_monotonicity_of_addition():
    rng = random.Random(3)
    for mon in enumerate_commutative_monoids(3):
        q = associated_order(mon)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    if q.le(b, c):
                        assert q.le(mon.op(a, b), mon.op(a, c))
    v = VectorMonoid(3)
    for _ in range(200):
        a, b = sampled_vector(rng, 3), sampled_vector(rng, 3)
        c = v.add(b, sampled_vector(rng, 3))
        assert v.leq(v.add(a, b), v.add(a, c))


def test_poset_monoids_have_trivial_invertibles():
    for n in (2, 3):
        for mon in enumerate_commutative_monoids(n):
            mc = monoid_class(mon)
            if mc["poset_monoid"]:
                assert mc["invertibles"] == (mon.identity,)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cancellative_poset_monoids_are_trivial(n):
    for mon in enumerate_commutative_monoids(n):
        mc = monoid_class(mon)
        if mc["cancellative"] and mc["poset_monoid"]:
            assert mon.size == 1


def test_associated_order_is_always_a_quasi_order():
    # QuasiOrder construction re-validates reflexivity and transitivity
    for n in (2, 3):
        for mon in enumerate_commutative_monoids(n):
            associated_order(mon)
    rng = random.Random(0)
    seen = 0
    while seen < 50:
        table = [[rng.randrange(4) for _ in range(4)] for _ in range(4)]
        table[0] = list(range(4))
        for r in range(4):
            table[r][0] = r
        try:
            mon = FiniteMonoid(table, 0)
        except MonoidError:
            continue
        seen += 1
        associated_order(mon)


def test_group_completion_of_groups_is_identity():
    for g in [cyclic_group(2), cyclic_group(3), cyclic_group(4)]:
        assert group_completion(g) is g


def test_group_completion_rejects_noncancellative():
    with pytest.raises(NotCancellativeError):
        group_completion(max_monoid())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_group_completion_sweep(n):
    for mon in enumerate_commutative_monoids(n):
        if not mon.is_cancellative:
            with pytest.raises(NotCancellativeError):
                group_completion(mon)
            continue
        g = group_completion(mon)
        assert g is mon   # embedded by the identity
        assert g.is_commutative
        assert len(g.invertibles) == g.size          # every class invertible


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_group_completion_is_the_pair_class_search(n):
    # a finite cancellative monoid is a group, so the search finds the
    # monoid itself; every other table is refused by both
    for mon in enumerate_commutative_monoids(n):
        if not mon.is_cancellative:
            for completion in (group_completion, ref_group_completion):
                with pytest.raises(NotCancellativeError):
                    completion(mon)
            continue
        got, want = group_completion(mon), ref_group_completion(mon)
        assert got is want.source is mon
        assert (got.table, got.identity) == (want.group.table, want.group.identity)
        assert want.embedding == tuple(range(mon.size))


def two_joins_monoid():
    """``0, a, b, 2a = 2b, a + b`` and an absorbing sum for every longer
    one: ``a`` and ``b`` have the two minimal upper bounds ``2a`` and
    ``a + b``, where every poset monoid of at most 5 elements is a lattice."""
    length = (0, 1, 1, 2, 2, 3)

    def add(x, y):
        if 0 in (x, y):
            return x + y
        if length[x] + length[y] >= 3:
            return 5
        return 3 if x == y else 4
    return FiniteMonoid([[add(x, y) for y in range(6)] for x in range(6)], 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_monoid_class_flags_are_the_lattice_view_flags(n):
    tables = enumerate_commutative_monoids(n) if n <= 5 else [two_joins_monoid()]
    for mon in tables:
        got = monoid_class(mon)
        q = associated_order(mon)
        want = ref_order_flags(q) if q.is_poset else {
            "semilattice_monoid": False, "lattice_monoid": False}
        assert got["poset_monoid"] == q.is_poset
        assert {k: got[k] for k in ("semilattice_monoid", "lattice_monoid")} \
            == {k: want[k] for k in ("semilattice_monoid", "lattice_monoid")}
        # the join scan monoid_class ran before it read the lattice test
        up = q.up_masks
        joins = q.is_poset and all(a & b in q.up_index for a in up for b in up)
        assert got["semilattice_monoid"] == got["lattice_monoid"] == joins
    if n == 6:
        assert got["poset_monoid"] and not got["semilattice_monoid"]


def test_group_completion_embeds_the_order():
    # translate order on the image: [a] <= [b] iff some embedded m shifts one
    # onto the other; must agree with the monoid's associated order
    for mon in enumerate_commutative_monoids(3):
        if not mon.is_cancellative:
            continue
        g = group_completion(mon)
        q = associated_order(mon)
        for a in range(mon.size):
            for b in range(mon.size):
                shifted = any(g.op(a, m) == b for m in range(mon.size))
                assert shifted == q.le(a, b)


def test_vector_group_completion():
    v = VectorMonoid(2)
    z = vector_group_completion(v)
    rng = random.Random(5)
    for _ in range(300):
        a, b = sampled_vector(rng, 2), sampled_vector(rng, 2)
        c, d = sampled_vector(rng, 2), sampled_vector(rng, 2)
        same = z.class_of(a, b) == z.class_of(c, d)
        # pair equivalence: a + d == c + b coordinatewise
        assert same == (v.add(a, d) == v.add(c, b))
        pos, neg = z.canonical_pair(z.class_of(a, b))
        assert v.inf_of((pos, neg)) == v.zero()
        assert z.class_of(pos, neg) == z.class_of(a, b)
    # embedding a as the class [a, 0] is additive and injective on samples
    zero = v.zero()
    for _ in range(100):
        a, b = sampled_vector(rng, 2), sampled_vector(rng, 2)
        assert z.class_of(v.add(a, b), b) == z.class_of(a, zero)
        if a != b:
            assert z.class_of(a, zero) != z.class_of(b, zero)


def test_subtraction_monotonicity_on_vectors():
    v = VectorMonoid(3)
    rng = random.Random(9)
    for _ in range(500):
        a = v.add(sampled_vector(rng, 3), (1, 1, 1))
        c = tuple(rng.randint(0, x) for x in a)       # a - c exists
        b = tuple(rng.randint(0, x) for x in c)       # b <= c
        amb = v.sub(a, b)
        assert amb is not None
        assert v.leq(v.sub(a, c), amb)


def test_distributivity_modes_on_vectors():
    nat2 = VectorMonoid(2)
    for mode in DISTRIBUTIVITY_MODES:
        rep = check_distributivity(nat2, mode)
        assert rep == {"mode": mode, "holds": True, "witness": None,
                       "checked": GRID_CHECKED[mode]}


def test_distributivity_exhaustive_on_truncated_monoid():
    """The capped chain satisfies both binary laws, and both set laws over
    every nonempty subset: the set laws quantify over nonempty ``B`` on
    every carrier, as on ``N``, where ``1 + sup {} = 1`` would fail too."""
    t3 = truncated_addition_monoid(3)
    for mode in DISTRIBUTIVITY_MODES:
        rep = check_distributivity(t3, mode)
        assert rep["holds"] and rep["witness"] is None
    # 3 values of a, each with the 7 nonempty masks of B
    assert check_distributivity(t3, "plus_join_inf")["checked"] == 3 * 7


def test_distributivity_explicit_instances():
    # an explicit instance of N^2 is decided on the grid: each of its
    # coordinates is a grid instance, and both set laws hold on it
    nat2 = VectorMonoid(2)
    a, B = (1, 1), ((2, 0), (0, 2), (1, 1))
    keys = {(x, frozenset(S)) for x, S in _scalar_sets()}
    assert all(((a[i],), frozenset((b[i],) for b in B)) in keys for i in range(2))
    for bound in (nat2.sup_of, nat2.inf_of):
        assert nat2.add(a, bound(B)) == bound([nat2.add(a, b) for b in B])
    assert check_distributivity(nat2, "plus_join_inf")["holds"]
    assert check_distributivity(nat2, "plus_meet_inf")["holds"]


def test_disjoint_sum_laws():
    nat2 = VectorMonoid(2)
    assert nat2.sup_of(((1, 0), (0, 2))) == nat2.add((1, 0), (0, 2)) == (1, 2)
    assert check_disjoint_sum_laws(nat2)["holds"]
    nat3 = VectorMonoid(3)
    rep = check_disjoint_sum_laws(nat3)
    assert rep == {"holds": True, "witness": None, "checked": 729}
    # exhaustive over the truncated chain: both laws hold there
    assert check_disjoint_sum_laws(truncated_addition_monoid(3))["holds"]


def test_closed_under_subtraction():
    mon = cyclic_group(4)
    assert closed_under_subtraction(mon, [0, 2])
    assert not closed_under_subtraction(mon, [0, 2, 3])
    # on the capped chain min(a + b, 3), 3 - 3 has four solutions, so it
    # does not exist, while 1 - 1 = 0 does
    t4 = truncated_addition_monoid(4)
    assert closed_under_subtraction(t4, {0, 2})
    assert closed_under_subtraction(t4, (0, 3))
    assert not closed_under_subtraction(t4, frozenset({1, 2}))


def test_right_quotient_multiplicity():
    mon = max_monoid()
    sol, count = mon.right_quotient(1, 1)   # c with max(c,1)=1: both work
    assert sol is None and count == 2
    sol, count = mon.right_quotient(0, 1)
    assert sol is None and count == 0
    sol, count = mon.right_quotient(1, 0)
    assert sol == 1 and count == 1


def test_commutative_monoid_enumeration_sizes():
    # identity-normalized commutative tables that satisfy associativity
    assert len(enumerate_commutative_monoids(1)) == 1
    assert len(enumerate_commutative_monoids(2)) == 2
    assert all(m.is_commutative for m in enumerate_commutative_monoids(3))


def test_json_round_trip():
    mon = truncated_addition_monoid(3)
    again = monoid_from_json(monoid_to_json(mon))
    assert mon.table == again.table
    assert again.identity == mon.identity
    with pytest.raises(MonoidError):
        monoid_from_json({"size": 2})


def test_vector_order_agrees_with_divisibility():
    # x <= y in the induced order iff some nonnegative a has x + a = y
    v = VectorMonoid(3)
    rng = random.Random(17)
    for _ in range(300):
        x, y = sampled_vector(rng, 3), sampled_vector(rng, 3)
        assert v.leq(x, y) == (v.sub(y, x) is not None)


# ---------------------------------------------------------------------------
# the scalar grid and the shared pass against the seeded per-law loops


class FiveDropsVectorMonoid(VectorMonoid):
    """A wrong addition: a first coordinate of 5 in a sum becomes 0."""

    def add(self, x, y):
        s = super().add(x, y)
        return (0,) + s[1:] if s[0] == 5 else s


def capped_square(k: int) -> FiniteMonoid:
    """``{0..k-1}^2`` under addition capped at ``k - 1`` per coordinate,
    ``(i, j)`` numbered ``i * k + j``: a lattice monoid that is no chain."""
    def sum_of(a, b):
        return min(a // k + b // k, k - 1) * k + min(a % k + b % k, k - 1)
    return FiniteMonoid([[sum_of(a, b) for b in range(k * k)]
                         for a in range(k * k)], 0)


def wrong_sum(m: FiniteMonoid, to: int) -> FiniteMonoid:
    """``m`` with a wrong addition: a sum of two nonzero elements that the
    table gives as 4 is ``to``.  The order stays the table's."""
    class WrongSum(FiniteMonoid):
        def op(self, a, b):
            s = self.table[a][b]
            return to if a and b and s == 4 else s
    return WrongSum(m.table, m.identity)


def test_broken_addition_reports_match_the_per_mode_loops():
    """Both forms of each binary law share a pass; each report must still
    be the one its own loop gives, including the ``checked`` of a mode that
    fails before or after its partner.  The set laws and the disjointness
    laws are checked against their own loops on the same wrong sums."""
    reports = {}
    for to in (1, 5):
        m = wrong_sum(capped_square(3), to)
        laws = check_distributive_laws(m)
        for mode in ("plus_join", "plus_meet"):
            assert laws[mode] == ref_finite_monoid_binary(m, mode)
            assert check_distributivity(m, mode) == laws[mode]
        for mode in ("plus_join_inf", "plus_meet_inf"):
            assert laws[mode] == ref_finite_monoid_set_law(m, mode)
        rep = check_disjoint_sum_laws(m)
        assert rep == ref_finite_disjoint_sum(m)
        assert not rep["holds"] and not any(r["holds"] for r in laws.values())
        reports[to] = [*(r["checked"] for r in laws.values()), rep["checked"]]
    # (1, 1) + (1, 1) wrong: the join law fails first at to = 1, the meet
    # law at to = 5, and the other carries on in the same pass
    assert reports == {1: [94, 124, 521, 591, 109], 5: [115, 94, 583, 521, 109]}


def mode_subsets():
    return [modes for k in range(len(DISTRIBUTIVITY_MODES) + 1)
            for modes in itertools.combinations(DISTRIBUTIVITY_MODES, k)]


def cli_law_report(capsys, name: str, *argv) -> dict:
    """The ``report`` of ``verify name`` run in-process with ``--format json``."""
    code = main(["--format", "json", "verify", name, *argv])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return json.loads(out)["report"]


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_covered_laws_are_the_sampled_reports(dim, capsys):
    """On ``N^d`` the grid passes where the seeded per-law loops it replaced
    pass, and the CLI prints their reports: all modes at every seed, and
    each subset of modes, and the CLI, at one seed per dimension (the grid
    reads no seed)."""
    m = VectorMonoid(dim)
    for seed, samples in itertools.product(range(5), (1, 50, 3000)):
        want = {mode: ref_sampled_distributivity(m, mode, samples, seed)
                for mode in DISTRIBUTIVITY_MODES}
        want_sum = ref_sampled_disjoint_sum(m, samples, seed)
        assert all(r["holds"] and r["checked"] == samples
                   for r in (*want.values(), want_sum))
        for modes in mode_subsets() if seed == dim % 5 else [DISTRIBUTIVITY_MODES]:
            got = check_distributive_laws(m, modes)
            assert got == {mode: {"mode": mode, "holds": True, "witness": None,
                                  "checked": GRID_CHECKED[mode]}
                           for mode in modes}
        assert check_disjoint_sum_laws(m) == {"holds": True, "witness": None,
                                              "checked": 729}
        if seed != dim % 5:
            continue
        argv = ("--samples", str(samples), "--seed", str(seed))
        got = cli_law_report(capsys, "law-monoid-distributivity", *argv)
        assert got["modes"] == want
        got = cli_law_report(capsys, "law-disjoint-sum", *argv)
        assert got["report"] == want_sum


def five_drops_per_coordinate(self, x, y):
    """A wrong addition on every coordinate: a sum of 5 becomes 0."""
    return tuple(0 if a + b == 5 else a + b for a, b in zip(x, y))


def test_a_failing_grid_instance_is_an_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(VectorMonoid, "add", five_drops_per_coordinate)
    wrong = "the vector arithmetic is wrong"
    for dim in (1, 2, 3, 8):
        for modes in mode_subsets()[1:]:
            with pytest.raises(RuntimeError, match=wrong):
                check_distributive_laws(VectorMonoid(dim), modes)
        with pytest.raises(RuntimeError, match=wrong):
            check_disjoint_sum_laws(VectorMonoid(dim))
    for name in ("law-monoid-distributivity", "law-disjoint-sum"):
        code = main(["--format", "json", "verify", name])
        out, err = capsys.readouterr()
        assert code == EXIT_INTERNAL and out == ""
        assert err.startswith("internal error\n") and wrong in err


@pytest.mark.parametrize("m", [FiveDropsVectorMonoid(2), VectorGroupCompletion(2),
                               (0, 0), None])
def test_a_carrier_other_than_a_table_or_vector_monoid_is_refused(m):
    # a subclass may redefine the operations, which the grid does not decide
    name = type(m).__name__
    for law, what in ((check_distributive_laws, "distributivity"),
                      (check_disjoint_sum_laws, "disjoint-sum"),
                      (lambda m: check_distributivity(m, "plus_meet_inf"),
                       "distributivity")):
        with pytest.raises(MonoidError, match=(
                f"^{what} checks take a FiniteMonoid or exactly a VectorMonoid, "
                f"got {name}: the scalar grid decides only VectorMonoid$")):
            law(m)


# the laws take no count and no seed: the grid or the table fixes the
# instances, and only the CLI reads --samples and --seed, for the report
# format it pins

@pytest.mark.parametrize("samples", [-1, True, 1.0, "10", None])
def test_sample_counts_are_refused_before_any_law(samples):
    for m in (VectorMonoid(2), truncated_addition_monoid(3)):
        for law in (check_distributive_laws, check_disjoint_sum_laws,
                    lambda m, **kw: check_distributivity(m, "plus_join", **kw)):
            with pytest.raises(TypeError, match="keyword argument 'samples'"):
                law(m, samples=samples)


@pytest.mark.parametrize("seed", [False, 1.5, "1", None])
def test_seeds_are_refused_before_any_law(seed):
    for m in (VectorMonoid(2), truncated_addition_monoid(3)):
        for law in (check_distributive_laws, check_disjoint_sum_laws):
            with pytest.raises(TypeError, match="keyword argument 'seed'"):
                law(m, seed=seed)


def test_zero_samples_check_nothing_on_either_path(capsys):
    # the CLI refuses --samples 0 on the grid and any --samples next to a
    # table, before any law is checked
    table = ("--input", str(Path(__file__).resolve().parents[1] / "fixtures"
                            / "truncated_add_3.json"))
    for name in ("law-monoid-distributivity", "law-disjoint-sum"):
        for argv, message in (
                ((), "--samples must be positive"),
                (table, f"verify {name} does not read --samples next to --input")):
            code = main(["verify", name, *argv, "--samples", "0"])
            out, err = capsys.readouterr()
            assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_grid_reports_count_the_instances_they_visit(dim):
    m = VectorMonoid(dim)
    laws = check_distributive_laws(m)
    assert {mode: r["checked"] for mode, r in laws.items()} == GRID_CHECKED
    assert check_disjoint_sum_laws(m)["checked"] == 729


@pytest.mark.parametrize("dim", [-1, True, 2.0, "2", None])
def test_vector_monoid_refuses_a_bad_dimension(dim):
    with pytest.raises(MonoidError, match="dim must be an integer >= 0"):
        VectorMonoid(dim)


@pytest.mark.parametrize("dim", [-1, "x", True, 1.5])
def test_vector_group_completion_refuses_a_bad_dimension(dim):
    with pytest.raises(MonoidError, match="dim must be an integer >= 0"):
        VectorGroupCompletion(dim)


@pytest.mark.parametrize("n", [0, -1, True, 2.7, "3", None])
@pytest.mark.parametrize("build", [cyclic_group, truncated_addition_monoid])
def test_stock_monoids_refuse_a_bad_size(build, n):
    with pytest.raises(MonoidError, match="at least one element"):
        build(n)


def test_monoid_sizes_take_numpy_integers():
    for build in (cyclic_group, truncated_addition_monoid):
        assert build(np.int64(3)).table == build(3).table
    v = VectorMonoid(np.int64(3))
    assert v == VectorMonoid(3) and type(v.dim) is int


def test_scalar_cover_is_every_coordinate_instance():
    # the triples are every value triple; each set is a set of distinct
    # values, so a drawn tuple of 1..4 values has its set among them
    triples = list(_triples(VectorMonoid(1), None))
    assert len(triples) == len(set(triples)) == (SAMPLE_BOUND + 1) ** 3
    sets = _scalar_sets()
    assert len(sets) == len(set(sets)) == 9 * 255
    keys = {(a, frozenset(B)) for a, B in sets}
    assert len(keys) == len(sets)
    assert all(0 < len(B) <= MAX_SAMPLED_SET_SIZE for _, B in sets)


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_sampled_instances_are_the_randint_instances(dim):
    """The seeded instances are the randint draws the per-law loops took,
    and every coordinate of each is an instance of the scalar grid."""
    triples = set(_triples(VectorMonoid(1), None))
    keys = {(a, frozenset(B)) for a, B in _scalar_sets()}
    for seed in range(5):
        ref = random.Random(seed)
        for a, (b, c) in sampled_instances(dim, 200, seed):
            assert (a, b, c) == tuple(
                tuple(ref.randint(0, SAMPLE_BOUND) for _ in range(dim))
                for _ in range(3))
            assert {((x,), (y,), (z,)) for x, y, z in zip(a, b, c)} <= triples
        ref = random.Random(seed)
        for a, B in sampled_instances(dim, 200, seed, set_law=True):
            assert a == tuple(ref.randint(0, SAMPLE_BOUND) for _ in range(dim))
            k = ref.randint(1, MAX_SAMPLED_SET_SIZE)
            assert B == tuple(
                tuple(ref.randint(0, SAMPLE_BOUND) for _ in range(dim))
                for _ in range(k))
            for i in range(dim):
                assert ((a[i],), frozenset((b[i],) for b in B)) in keys


def test_distributive_laws_are_the_one_mode_reports():
    monoids = [truncated_addition_monoid(3), max_monoid(), cyclic_group(1),
               VectorMonoid(2)]
    for m in monoids:
        laws = check_distributive_laws(m)
        assert laws == {mode: check_distributivity(m, mode)
                        for mode in DISTRIBUTIVITY_MODES}
    laws = check_distributive_laws(VectorMonoid(2), ("plus_meet_inf", "plus_join"))
    assert list(laws) == ["plus_meet_inf", "plus_join"]
    assert [r["checked"] for r in laws.values() if r["holds"]] == [2295, 729]
    with pytest.raises(MonoidError, match="unknown mode"):
        check_distributive_laws(VectorMonoid(2), ("plus_join", "times_join"))


def test_vector_bounds_take_any_iterable():
    v = VectorMonoid(3)
    vectors = [(1, 5, 0), (4, 2, 2), (0, 7, 1), (3, 3, 3)]
    assert v.sup_of(()) == (0, 0, 0) and v.inf_of(()) is None
    assert v.sup_of([(1, 5, 0)]) == v.inf_of([(1, 5, 0)]) == (1, 5, 0)
    assert v.sup_of(iter(vectors)) == v.sup_of(vectors) == (4, 7, 3)
    assert v.inf_of(x for x in vectors) == v.inf_of(tuple(vectors)) == (0, 2, 0)
    assert v.sup_of(x for x in ()) == (0, 0, 0)
    assert v.inf_of(iter([])) is None
    assert v.add((1, 5, 0), (4, 2, 2)) == (5, 7, 2)


@pytest.mark.parametrize("m, S", [
    (VectorMonoid(2), lambda v: all(x % 2 == 0 for x in v)),
    (VectorMonoid(2), [(0, 0), (2, 0)]),
    (cyclic_group(4), lambda a: a % 2 == 0),
    (cyclic_group(4), range(2)),
    (cyclic_group(4), [0, 4]),
    (cyclic_group(4), {0, True}),
])
def test_closed_under_subtraction_refuses_anything_but_a_table_and_a_set(m, S):
    with pytest.raises(MonoidError):
        closed_under_subtraction(m, S)


def test_commutative_monoid_enumeration_is_the_constructor_filter():
    for n in range(1, 5):
        cells = [(a, b) for a in range(1, n) for b in range(a, n)]
        want = []
        for values in itertools.product(range(n), repeat=len(cells)):
            table = [list(range(n))] + [[a] + [0] * (n - 1) for a in range(1, n)]
            for (a, b), v in zip(cells, values):
                table[a][b] = table[b][a] = v
            try:
                want.append(FiniteMonoid(table, 0).table)
            except MonoidError:
                pass
        assert [m.table for m in enumerate_commutative_monoids(n)] == want
    assert [len(enumerate_commutative_monoids(n)) for n in range(1, 5)] == [
        1, 2, 9, 94]


def test_commutative_monoids_on_five_elements_are_closed_under_relabelling():
    # the constructor filter would try 5 ** 10 tables; the pruned search
    # must still list them in product order, and relabelling 1..4 of a
    # commutative monoid with identity 0 gives another one
    tables = [m.table for m in enumerate_commutative_monoids(5)]
    assert len(tables) == 1486
    cells = [(a, b) for a in range(1, 5) for b in range(a, 5)]
    keys = [tuple(t[a][b] for a, b in cells) for t in tables]
    assert keys == sorted(set(keys))
    listed = set(tables)
    for t in tables:
        for perm in itertools.permutations(range(1, 5)):
            p = (0, *perm)
            image = [[0] * 5 for _ in range(5)]
            for a in range(5):
                for b in range(5):
                    image[p[a]][p[b]] = p[t[a][b]]
            assert tuple(map(tuple, image)) in listed


@pytest.mark.parametrize("n", [0, -1, True, 2.0])
def test_commutative_monoid_enumeration_refuses_an_empty_carrier(n):
    with pytest.raises(MonoidError, match="at least one element"):
        enumerate_commutative_monoids(n)


def test_table_bounds_match_order_sup_and_inf():
    # the laws read each bound of a table off the AND of up-masks;
    # order.sup and order.inf are the oracle, on every sequence of up to
    # three elements of every poset monoid of up to 4 elements
    posets = 0
    for n in range(1, 5):
        for m in enumerate_commutative_monoids(n):
            q = associated_order(m)
            if not q.is_poset:
                continue
            posets += 1
            _, _, sup_of, inf_of = _laws(m, "bound")
            for r in range(4):
                for B in itertools.product(range(n), repeat=r):
                    bmask = sum(1 << b for b in set(B))
                    assert sup_of(B) == sup(q, bmask), (m, B)
                    assert inf_of(B) == inf(q, bmask), (m, B)
    assert posets == 42
