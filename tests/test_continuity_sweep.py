"""The per-range continuity sweep against the per-pair loop it replaces
(the same counts and no violations), the continuity check of every range
inclusion against preregularity, and the one-walk preregular listing
against the per-subset test."""

import random

import pytest

from latkit import embedding, lattice
from latkit.builders import (_relabeled_rows, antichain, chain, chain_product,
                             enumerate_lattices, enumerate_posets)
from latkit.cli import MAX_CONTINUITY_SIZE
from latkit.embedding import continuity_checks, preregular_continuity_sweep
from latkit.lattice import (
    MAX_PREREGULAR_WALK,
    convex_subsets,
    is_preregular,
    preregular_masks,
    preregularity_witness,
)
from latkit.order import MonotoneMap, OrderError, build_quasi_order, induced_suborder
from oracles import relabel, verify_preregular_continuity


def per_pair(max_size):
    """One census per pair of posets with ``|P| <= |Q| <= max_size``."""
    posets = [q for n in range(1, max_size + 1) for q in enumerate_posets(n)]
    pairs = [(p, q) for p in posets for q in posets if p.size <= q.size]
    reports = [verify_preregular_continuity(p, q) for p, q in pairs]
    violations = [v for r in reports for v in r["violations"]]
    return {
        "pairs": len(pairs),
        "embeddings": sum(r["embeddings"] for r in reports),
        "violations": violations,
        "holds": not violations,
    }


@pytest.mark.parametrize("max_size", range(6))
def test_sweep_matches_per_pair_loop(max_size):
    assert preregular_continuity_sweep(max_size) == per_pair(max_size)


def test_sweep_counts_at_size_6_are_pinned():
    assert preregular_continuity_sweep(6) == {
        "pairs": 134_702, "embeddings": 42_111, "violations": [], "holds": True}
    # a size that is no count is refused, not truncated or recursed on
    for size in (2.5, True, -1, "3"):
        with pytest.raises(OrderError, match="sweep's largest size"):
            preregular_continuity_sweep(size)


@pytest.mark.parametrize("n", range(1, MAX_CONTINUITY_SIZE + 1))
def test_inclusion_continuity_is_preregularity(n):
    """Every input the command accepts: the inclusion of each nonempty
    range into its codomain preserves nonempty sups (infs) iff the range is
    upwards (downwards) preregular, so the sweep needs no continuity check."""
    for q in enumerate_posets(n):
        for rmask in range(1, 1 << n):
            sub, elems = induced_suborder(q, rmask)
            cont = continuity_checks(MonotoneMap(sub, q, elems))
            assert cont["preserves_nonempty_sups"] == (
                preregularity_witness(q, rmask, upwards=True) is None)
            assert cont["preserves_nonempty_infs"] == (
                preregularity_witness(q, rmask, upwards=False) is None)


@pytest.mark.parametrize("n", range(MAX_CONTINUITY_SIZE + 1))
def test_preregular_masks_is_the_filter(n):
    for q in enumerate_posets(n):
        assert preregular_masks(q) == [m for m in range(1 << n) if is_preregular(q, m)]


def test_preregular_masks_refuses_orders_above_its_limit():
    assert len(preregular_masks(antichain(MAX_PREREGULAR_WALK))) == 1 << MAX_PREREGULAR_WALK
    with pytest.raises(OrderError, match="at most"):
        preregular_masks(antichain(MAX_PREREGULAR_WALK + 1))
    with pytest.raises(OrderError):
        preregular_masks(build_quasi_order(2, [(0, 1), (1, 0)]))


@pytest.mark.parametrize("n", range(7))
def test_convex_walk_is_the_filter_on_posets(n):
    for q in enumerate_posets(n):
        convex = convex_subsets(q)
        assert preregular_masks(q, convex) == [m for m in convex if is_preregular(q, m)]


@pytest.mark.parametrize("n", range(9))
def test_convex_walk_is_the_filter_on_lattices(n):
    for q in enumerate_lattices(n):
        convex = convex_subsets(q)
        assert preregular_masks(q, convex) == [m for m in convex if is_preregular(q, m)]


@pytest.mark.parametrize("n", range(6))
def test_walk_takes_labels_that_are_no_linear_extension(n):
    """The walk drops a minimal member, whatever the labels; the posets
    are enumerated with labels that are a linear extension, so reverse and
    shuffle them."""
    rng = random.Random(n)
    shuffled = 0
    for q in enumerate_posets(n):
        perms = [list(range(n - 1, -1, -1))]
        for _ in range(2):
            perms.append(rng.sample(range(n), n))
        for perm in perms:
            r = relabel(q, perm)
            shuffled += any(r.up_masks[p] & (1 << p) - 1 for p in range(n))
            assert preregular_masks(r) == [m for m in range(1 << n) if is_preregular(r, m)]
            convex = convex_subsets(r)
            assert preregular_masks(r, convex) == [m for m in convex if is_preregular(r, m)]
    assert shuffled or n < 2


def test_walk_reads_a_shuffled_poset_as_given(monkeypatch):
    """No relabeled copy: the walks run on the order and on its dual."""
    real = lattice._upwards_preregular_flags
    walked = []

    def recording(o, masks, last):
        walked.append(o)
        return real(o, masks, last)

    monkeypatch.setattr(lattice, "_upwards_preregular_flags", recording)
    q = relabel(chain_product([2, 3]), [4, 0, 5, 2, 1, 3])
    assert any(q.up_masks[p] & (1 << p) - 1 for p in range(q.size))
    for family in (None, convex_subsets(q)):
        walked.clear()
        preregular_masks(q, family)
        assert len(walked) == 2 and walked[0] is q and walked[1] is q.dual


def test_walk_refuses_a_family_that_lacks_a_member_it_reads():
    q = chain(3)
    # {0, 1} comes from {1} in the walk of sups and from {0} in that of infs
    for family in ([0b011], [0b001, 0b011], [0b010, 0b011]):
        with pytest.raises(OrderError, match="lacks"):
            preregular_masks(q, family)
    assert preregular_masks(q, [0b001, 0b010, 0b011]) == [0b001, 0b010, 0b011]
    with pytest.raises(OrderError, match="outside the carrier"):
        preregular_masks(q, [0b1000])


def test_sweep_runs_no_census(monkeypatch):
    # each range's |Aut| is a count of relabelings, not a self-census
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran a census")

    monkeypatch.setattr(embedding, "enumerate_embeddings", refuse)
    report = preregular_continuity_sweep(5)
    assert (report["pairs"], report["embeddings"]) == (5_912, 3_973)


def test_relabeling_count_is_the_self_census():
    """The least rows of ``_relabeled_rows`` occur ``|Aut|`` times, the
    number of embeddings of an order into itself, on every poset of 1-6
    elements and every lattice of 1-8."""
    orders = [*(q for n in range(1, 7) for q in enumerate_posets(n)),
              *(q for n in range(1, 9) for q in enumerate_lattices(n))]
    assert len(orders) == 705
    for q in orders:
        rows = list(_relabeled_rows(q))
        census = sum(1 for _ in embedding.enumerate_embeddings(q, q))
        assert rows.count(min(rows)) == census
