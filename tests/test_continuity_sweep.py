"""The per-range continuity sweep against the per-pair loop it replaces
(the same counts and no violations), the continuity check of every range
inclusion against preregularity, and the one-walk preregular listing
against the per-subset test."""

import pytest

from latkit import embedding
from latkit.builders import antichain, enumerate_posets
from latkit.cli import MAX_CONTINUITY_SIZE
from latkit.embedding import continuity_checks, preregular_continuity_sweep
from latkit.lattice import (
    MAX_PREREGULAR_WALK,
    is_downwards_preregular,
    is_preregular,
    is_upwards_preregular,
    preregular_masks,
)
from latkit.order import MonotoneMap, OrderError, build_quasi_order, induced_suborder
from oracles import verify_preregular_continuity


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


@pytest.mark.parametrize("n", range(1, MAX_CONTINUITY_SIZE + 1))
def test_inclusion_continuity_is_preregularity(n):
    """Every input the command accepts: the inclusion of each nonempty
    range into its codomain preserves nonempty sups (infs) iff the range is
    upwards (downwards) preregular, so the sweep needs no continuity check."""
    for q in enumerate_posets(n):
        for rmask in range(1, 1 << n):
            sub, elems = induced_suborder(q, rmask)
            cont = continuity_checks(MonotoneMap(sub, q, elems))
            assert cont["preserves_nonempty_sups"] == is_upwards_preregular(q, rmask)
            assert cont["preserves_nonempty_infs"] == is_downwards_preregular(q, rmask)


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


def test_every_self_census_gets_the_budget(monkeypatch):
    real = embedding.enumerate_embeddings
    calls = []

    def recording(dom, cod, **kwargs):
        calls.append((dom is cod, kwargs.get("budget_nodes")))
        return real(dom, cod, **kwargs)

    monkeypatch.setattr(embedding, "enumerate_embeddings", recording)
    assert preregular_continuity_sweep(4, budget_nodes=10 ** 6)["holds"]
    assert calls and set(calls) == {(True, 10 ** 6)}


def test_budget_caps_the_self_censuses():
    # a 2-element self-census visits 2 candidates for its first element
    with pytest.raises(embedding.BudgetExceededError):
        preregular_continuity_sweep(2, budget_nodes=1)
