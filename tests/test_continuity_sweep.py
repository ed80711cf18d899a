"""The per-range continuity sweep against the per-pair loop it replaces:
the same counts and the same witnesses, in the same order."""

import pytest

from latkit import embedding
from latkit.builders import enumerate_posets
from latkit.embedding import (
    preregular_continuity_sweep,
    verify_preregular_continuity,
)
from latkit.lattice import is_preregular


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


def flag_ranges(monkeypatch, flagged):
    """Make ``continuity_checks`` report a dropped supremum on exactly the
    maps whose ``(codomain, range)`` is in ``flagged``."""
    real = embedding.continuity_checks

    def patched(sigma):
        out = real(sigma)
        if (sigma.cod, sigma.range_mask) in flagged:
            out = {**out, "preserves_nonempty_sups": False}
        return out

    monkeypatch.setattr(embedding, "continuity_checks", patched)


def test_violating_ranges_rerun_their_pairs_in_pair_order(monkeypatch):
    # the 3-element codomain is swept first, but the pairs of its range's
    # class come after those of the 1- and 2-element ranges of the
    # 4-element codomain
    q3, q4 = enumerate_posets(3)[0], enumerate_posets(4)[-1]
    flagged = {(q3, q3.full_mask), (q4, 0b0001), (q4, 0b0011)}
    for cod, mask in flagged:
        assert is_preregular(cod, mask)
    flag_ranges(monkeypatch, flagged)
    got = preregular_continuity_sweep(4)
    assert got == per_pair(4)
    sizes = [len(v["image"]) for v in got["violations"]]
    assert sizes[:2] == [1, 2] and set(sizes[2:]) == {3}
    assert got["holds"] is False


def test_every_census_run_gets_the_budget(monkeypatch):
    q4 = enumerate_posets(4)[-1]
    flag_ranges(monkeypatch, {(q4, 0b0011)})
    real = embedding.enumerate_embeddings
    calls = []

    def recording(dom, cod, **kwargs):
        calls.append((dom is cod, kwargs.get("budget_nodes")))
        return real(dom, cod, **kwargs)

    monkeypatch.setattr(embedding, "enumerate_embeddings", recording)
    assert not preregular_continuity_sweep(4, budget_nodes=10 ** 6)["holds"]
    assert {self_census for self_census, _ in calls} == {True, False}
    assert {budget for _, budget in calls} == {10 ** 6}


def test_budget_caps_the_self_censuses():
    # a 2-element self-census visits 2 candidates for its first element
    with pytest.raises(embedding.BudgetExceededError):
        preregular_continuity_sweep(2, budget_nodes=1)
