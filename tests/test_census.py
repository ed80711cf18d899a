"""The mask-filtered census search against its oracles (images, range flags
and the definition-level embedding check), its node count, and the
byte-identity of every CLI report pinned by the benchmark."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit.builders import chain, enumerate_posets, powerset_lattice
from latkit.cli import main
from latkit.embedding import (
    BudgetExceededError,
    _range_flags,
    enumerate_embeddings,
    naive_embedding_census,
)
from latkit.order import build_quasi_order

FILTERS = ({}, {"convex_range": True}, {"preregular_range": True},
           {"downward_closed_range": True})

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "expected.json").read_text())

CENSUS_JOBS = {
    "enumerate-P3-P6-convex": ("enumerate", "--dom", '{"powerset":3}',
                               "--cod", '{"powerset":6}', "--convex-range"),
    "thm-powerset-form-3-5": ("verify", "thm-powerset-form", "--x", "3", "--y", "5"),
    "enumerate-C23-C333": ("enumerate", "--dom", '{"chains":[2,3]}',
                           "--cod", '{"chains":[3,3,3]}'),
    "cor-atom-image-3-4": ("verify", "cor-atom-image", "--x", "3", "--y", "4"),
    "thm-preregular-continuity-5": ("verify", "thm-preregular-continuity",
                                    "--max-size", "5"),
    "lem-convex-preregular-7": ("verify", "lem-convex-preregular", "--max-size", "7"),
    "sweep-cat-ro-iso-4": ("sweep", "cat-ro-iso", "--points", "4"),
    "sweep-baire-4": ("sweep", "baire", "--points", "4"),
    "list": ("--list",),
    "law-monoid-distributivity": ("verify", "law-monoid-distributivity",
                                  "--samples", "10000", "--seed", "0"),
    "law-disjoint-sum": ("verify", "law-disjoint-sum",
                         "--samples", "10000", "--seed", "0"),
    "lem-group-completion-4": ("verify", "lem-group-completion", "--max-size", "4"),
    "thm-extension-convexity-2": ("verify", "thm-extension-convexity", "--n", "2"),
}


def assert_census_matches_oracle(dom, cod, filters):
    """Images, flags and soundness of the census against the definitions."""
    census = enumerate_embeddings(dom, cod, **filters)
    assert census.images() == naive_embedding_census(dom, cod, **filters)
    assert census.flags == tuple(
        _range_flags(dom, cod, img) for img in census.images())
    assert all(m.is_embedding for m in census.maps)
    assert all(f[name] for f in census.flags for name in filters)


@pytest.mark.parametrize("filters", FILTERS, ids=lambda f: next(iter(f), "none"))
def test_census_matches_naive_on_every_small_poset_pair(filters):
    posets = [q for n in (1, 2, 3, 4) for q in enumerate_posets(n)]
    pairs = [(d, c) for d in posets for c in posets if d.size <= c.size]
    assert len(pairs) == 431
    for dom, cod in pairs:
        assert_census_matches_oracle(dom, cod, filters)


def _random_poset(size, edges):
    """Transitive closure of the edges ``i -> j`` with ``i < j`` selected by
    ``edges`` (one flag per such pair, row by row)."""
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    return build_quasi_order(size, [p for p, on in zip(pairs, edges) if on])


@st.composite
def posets(draw, max_size):
    size = draw(st.integers(1, max_size))
    edges = draw(st.lists(st.booleans(), min_size=size * (size - 1) // 2,
                          max_size=size * (size - 1) // 2))
    return _random_poset(size, edges)


@settings(max_examples=200, deadline=None)
@given(posets(4), posets(5), st.sampled_from(FILTERS))
def test_census_matches_naive_on_random_posets(dom, cod, filters):
    assert_census_matches_oracle(dom, cod, filters)


@pytest.mark.parametrize("dom,cod,filters", [
    (powerset_lattice(2), powerset_lattice(3), {"convex_range": True}),
    (chain(2), chain(3), {}),
], ids=["P2-P3-convex", "C2-C3"])
def test_budget_counts_filtered_candidates(dom, cod, filters):
    nodes = enumerate_embeddings(dom, cod, **filters).nodes
    assert nodes > 0
    enumerate_embeddings(dom, cod, budget_nodes=nodes, **filters)
    with pytest.raises(BudgetExceededError):
        enumerate_embeddings(dom, cod, budget_nodes=nodes - 1, **filters)


def test_chain_census_visits_only_surviving_candidates():
    # 0 -> {0, 1, 2}, then 1 -> every element strictly above the first image
    assert enumerate_embeddings(chain(2), chain(3)).nodes == 3 + 2 + 1


def test_powerset_census_node_count_is_pinned():
    census = enumerate_embeddings(powerset_lattice(4), powerset_lattice(5),
                                  convex_range=True)
    assert len(census) == 240
    assert census.nodes == 117_723


def test_every_pinned_benchmark_output_is_replayed():
    assert sorted(CENSUS_JOBS) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(CENSUS_JOBS))
def test_census_reports_match_benchmark_checksums(capsys, name):
    code = main([*CENSUS_JOBS[name], "--format", "json"])
    out = capsys.readouterr().out
    assert code == EXPECTED[name]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == EXPECTED[name]["sha256"]
