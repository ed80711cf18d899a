"""The mask-filtered census search against its oracles (images, range flags
and the definition-level embedding check), the interval search against the
full census, its node count, its retained memory per map, the chain-product
order and JSON lines it reads and writes, and the byte-identity of every CLI
report pinned by the benchmark."""

import gc
import hashlib
import importlib.util
import itertools
import json
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit.builders import (
    chain,
    chain_product,
    enumerate_lattices,
    enumerate_posets,
    powerset_lattice,
)
from latkit.cli import _census_lines, main
from latkit.embedding import (
    BudgetExceededError,
    enumerate_embeddings,
)
from latkit.lattice import is_lattice, is_preregular
from latkit.order import MonotoneMap, build_quasi_order
from oracles import naive_embedding_census, range_flags

FILTERS = ({}, {"convex_range": True}, {"preregular_range": True},
           {"downward_closed_range": True})

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = json.loads((ROOT / "bench" / "expected.json").read_text())


def _bench_jobs() -> dict:
    """Every job ``bench/run.py`` pins, name -> its argv at seed 0, read from
    its ``WORKLOADS`` and ``PROBE`` so that the two cannot drift apart."""
    path = ROOT / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    jobs = [*itertools.chain(*module.WORKLOADS.values()), module.PROBE]
    return {job.name: tuple(job.argv(0)) for job in jobs}


CENSUS_JOBS = _bench_jobs()


def assert_census_matches_oracle(dom, cod, filters):
    """Images, flags and soundness of the census against the definitions."""
    census = enumerate_embeddings(dom, cod, **filters)
    assert census.images == naive_embedding_census(dom, cod, **filters)
    assert census.flags == tuple(
        range_flags(dom, cod, img) for img in census.images)
    assert all(m.is_embedding for m in census.maps)
    assert all(f[name] for f in census.flags for name in filters)
    # one shared flags dict per distinct value
    assert len({id(f) for f in census.flags}) == len(
        {tuple(f.items()) for f in census.flags})
    # the derived maps carry each image and its checked convexity
    assert [m.image for m in census.maps] == list(census.images)
    assert [m.has_convex_range for m in census.maps] == [
        MonotoneMap(dom, cod, img).has_convex_range for img in census.images]


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
    # the interval search: 32 images of the bottom, 211 of the top above
    # them, and 3,040 inside the 10 intervals with 16 elements
    census = enumerate_embeddings(powerset_lattice(4), powerset_lattice(5),
                                  convex_range=True)
    assert len(census) == 240
    assert census.nodes == 3_283


def test_interval_census_equals_the_convex_maps_of_the_full_census():
    lattices = [q for n in range(1, 7) for q in enumerate_lattices(n)]
    pairs = [(d, c) for d in lattices for c in lattices if d.size <= c.size]
    assert len(pairs) == 441
    for dom, cod in pairs:
        full = enumerate_embeddings(dom, cod)
        convex = [(img, f) for img, f in zip(full.images, full.flags)
                  if f["convex_range"]]
        census = enumerate_embeddings(dom, cod, convex_range=True)
        assert list(zip(census.images, census.flags)) == convex


def test_interval_census_of_a_bounded_poset_that_is_not_a_lattice():
    # 0 < 1, 2 < 3, 4 < 5: the two middle pairs have no join or meet, so the
    # interval search runs with the per-range preregularity memo
    dom = build_quasi_order(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3),
                                (2, 4), (3, 5), (4, 5)])
    assert not is_lattice(dom)
    preregular = set()
    for cod in (*enumerate_posets(6), *enumerate_posets(7)):
        full = enumerate_embeddings(dom, cod)
        census = enumerate_embeddings(dom, cod, convex_range=True)
        assert list(zip(census.images, census.flags)) == [
            (img, f) for img, f in zip(full.images, full.flags)
            if f["convex_range"]]
        preregular |= {f["preregular_range"] for f in census.flags}
    assert preregular == {True, False}


def test_preregular_flag_is_the_definition_on_every_small_domain():
    # lattice domains decide it from joins and meets, the others per range
    domains = [q for n in (1, 2, 3, 4) for q in enumerate_posets(n)]
    codomains = [q for n in (1, 2, 3, 4, 5) for q in enumerate_posets(n)]
    assert {is_lattice(d) for d in domains} == {True, False}
    for dom in domains:
        for cod in codomains:
            if dom.size <= cod.size:
                census = enumerate_embeddings(dom, cod)
                assert [f["preregular_range"] for f in census.flags] == [
                    is_preregular(cod, m.range_mask) for m in census.maps]


def test_census_keeps_image_tuples_not_maps():
    dom, cod = powerset_lattice(2), powerset_lattice(5)
    enumerate_embeddings(dom, cod)  # warm the caches of both orders
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        census = enumerate_embeddings(dom, cod)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(census) == 2_550
    # an image tuple and two tuple slots per map, not a map and a dict
    assert retained / len(census) <= 250
    assert len(list(_census_lines(census))) == len(census.images)
    assert "maps" not in census.__dict__
    assert census.maps is census.maps


@pytest.mark.parametrize("dom,cod,filters", [
    (chain_product([2, 3]), chain_product([3, 3]), {}),
    (powerset_lattice(2), powerset_lattice(4), {"convex_range": True}),
    (build_quasi_order(3, [(0, 1), (0, 2)]), powerset_lattice(3), {}),
    (build_quasi_order(0, []), build_quasi_order(2, []), {}),
], ids=["C23-C33", "P2-P4-convex", "V-P3", "empty-domain"])
def test_json_lines_are_the_plain_encoding(dom, cod, filters):
    census = enumerate_embeddings(dom, cod, **filters)
    # each census but the one empty map mixes flags dicts, so the lines
    # share their text up to the image
    assert len({tuple(f.values()) for f in census.flags}) > 1 or census.images == ((),)
    assert list(_census_lines(census)) == [
        json.dumps({"image": list(m.image), "flags": f}, sort_keys=True)
        for m, f in zip(census.maps, census.flags)]


@pytest.mark.parametrize("dims", [(), (1,), (1, 1), (4,), (2, 3), (1, 3),
                                  (3, 1, 2), (2, 2, 2), (3, 3, 3)])
def test_chain_product_order_is_the_componentwise_order(dims):
    vectors = list(itertools.product(*(range(d) for d in reversed(dims))))
    vectors = [v[::-1] for v in vectors]  # the first coordinate varies fastest
    assert chain_product(dims).up_masks == tuple(
        sum(1 << b for b, w in enumerate(vectors)
            if all(x <= y for x, y in zip(v, w)))
        for v in vectors)


def test_every_pinned_benchmark_output_is_replayed():
    assert sorted(CENSUS_JOBS) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(CENSUS_JOBS))
def test_census_reports_match_benchmark_checksums(capsys, name):
    code = main(list(CENSUS_JOBS[name]))
    out = capsys.readouterr().out
    assert code == EXPECTED[name]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == EXPECTED[name]["sha256"]

