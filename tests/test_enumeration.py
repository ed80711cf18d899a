"""Poset and lattice enumeration against the definition-level reference.

``ref_canonical_key``, ``ref_enumerate_posets`` and ``ref_lower_sets`` are
the scalar implementations that the mask-based ones replaced; the fast
versions must return the same bytes and the same list, element by element.
Each class is represented by the poset its key decodes to, so every
representative is its own canonical form, whatever order generation takes.
"""

import hashlib
import itertools
import os
import pathlib
import random
import subprocess
import sys
from functools import cache

import numpy as np
import pytest

from latkit import builders
from latkit.builders import (
    MAX_ENUMERATION_SIZE,
    _bounded,
    _extensions,
    _level,
    canonical_key,
    chain,
    chain_product,
    enumerate_lattices,
    enumerate_posets,
    powerset_lattice,
)
from latkit.lattice import classify, is_lattice
from latkit.order import OrderError, QuasiOrder, bits, upper_sets
from latkit.topology import enumerate_topologies
from oracles import order_from_relation, random_lattice, relabel


def ref_canonical_key(q: QuasiOrder) -> bytes:
    n = q.size
    profile = [
        (q.down_masks[p].bit_count(), q.up_masks[p].bit_count()) for p in range(n)
    ]
    groups = {}
    for p in range(n):
        groups.setdefault(profile[p], []).append(p)
    keys = sorted(groups)
    best = None
    for parts in itertools.product(
        *(itertools.permutations(groups[k]) for k in keys)
    ):
        perm = [p for part in parts for p in part]
        enc = bytearray()
        for i in perm:
            row = 0
            for bit, j in enumerate(perm):
                if q.le(i, j):
                    row |= 1 << bit
            enc += row.to_bytes((n + 7) // 8, "little")
        enc = bytes(enc)
        if best is None or enc < best:
            best = enc
    return bytes([n]) + best


def matrix(q: QuasiOrder) -> np.ndarray:
    """The relation of ``q`` as a boolean matrix, read through ``le``."""
    return np.array([[q.le(i, j) for j in range(q.size)] for i in range(q.size)],
                    dtype=bool).reshape(q.size, q.size)


def ref_lower_sets(q: QuasiOrder):
    """Every lower set of ``q`` by a scan of all ``2**n`` masks."""
    return [mask for mask in range(1 << q.size)
            if all(q.down_masks[p] & ~mask == 0 for p in bits(mask))]


def _children(q: QuasiOrder):
    """``q`` with a new maximal element adjoined above each lower set, in
    ascending mask order."""
    k = q.size
    for low in ref_lower_sets(q):
        rel = np.zeros((k + 1, k + 1), dtype=bool)
        rel[:k, :k] = matrix(q)
        rel[k, k] = True
        for p in bits(low):
            rel[p, k] = True
        yield order_from_relation(rel)


def ref_decode(key: bytes) -> QuasiOrder:
    """The poset a key encodes: bit ``b`` of row ``r`` (little-endian rows
    of ``(n + 7) // 8`` bytes) says ``r <= b``."""
    n, width = key[0], (key[0] + 7) // 8
    rows = [int.from_bytes(key[1 + r * width:1 + (r + 1) * width], "little")
            for r in range(n)]
    return order_from_relation([[bool(row >> b & 1) for b in range(n)]
                                for row in rows])


def ref_enumerate_posets(n: int):
    if n < 1:
        return []
    current = [chain(1)]
    for _ in range(n - 1):
        keys = {ref_canonical_key(cand) for q in current for cand in _children(q)}
        current = [ref_decode(key) for key in sorted(keys)]
    return current


@cache
def ref_posets(n: int) -> tuple:
    return tuple(ref_enumerate_posets(n))


def mask_definition(q: QuasiOrder):
    n = q.size
    up = tuple(sum(1 << r for r in range(n) if q.le(p, r)) for p in range(n))
    down = tuple(sum(1 << r for r in range(n) if q.le(r, p)) for p in range(n))
    return up, down


# two quasi orders that are not antisymmetric: everything equivalent, and a
# two-element class below a third element
NON_POSETS = [
    order_from_relation(np.ones((3, 3), dtype=bool)),
    order_from_relation(np.array([[1, 1, 1], [1, 1, 1], [0, 0, 1]], dtype=bool)),
]


@pytest.mark.parametrize("n", range(7))
def test_canonical_key_matches_reference_under_relabeling(n):
    rng = random.Random(n)
    for q in ref_posets(n):
        assert canonical_key(q) == ref_canonical_key(q)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            r = relabel(q, perm)
            assert canonical_key(r) == ref_canonical_key(r) == ref_canonical_key(q)


def test_canonical_key_matches_reference_on_every_level_6_candidate():
    candidates = 0
    for q in ref_posets(5):
        for cand in _children(q):
            candidates += 1
            assert canonical_key(cand) == ref_canonical_key(cand)
    assert candidates > len(ref_posets(6))


def test_canonical_key_matches_reference_past_one_byte_rows():
    # nine or ten elements: each row of the encoding takes two bytes
    for q in (relabel(chain(10), [3, 9, 0, 7, 1, 8, 2, 6, 4, 5]),
              chain_product([3, 3]), chain_product([2, 5])):
        assert canonical_key(q) == ref_canonical_key(q)


@pytest.mark.parametrize("n", range(7))
def test_enumerate_posets_matches_reference(n):
    got, want = enumerate_posets(n), ref_posets(n)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.up_masks == w.up_masks


def test_upper_sets_match_scan():
    # every poset of at most 6 elements (so every parent of level 7) and
    # every labeled quasi order on at most 4 points, both directions
    orders = [q for n in range(7) for q in enumerate_posets(n)]
    orders += [q for n in range(5) for q in enumerate_topologies(n)]
    orders += NON_POSETS
    for q in orders:
        assert list(upper_sets(q.dual)) == ref_lower_sets(q)
        assert list(upper_sets(q)) == ref_lower_sets(q.dual)


def test_masks_match_definition():
    orders = [q for n in range(6) for q in enumerate_posets(n)]
    orders += [powerset_lattice(6), chain_product([3, 3, 3, 3]),
               order_from_relation(np.zeros((0, 0), dtype=bool)), *NON_POSETS]
    for q in orders:
        assert (q.up_masks, q.down_masks) == mask_definition(q)


def test_is_lattice_agrees_with_classify():
    for n in range(8):
        for q in enumerate_posets(n):
            assert is_lattice(q) == classify(q)["lattice"]
    for q in NON_POSETS:
        with pytest.raises(OrderError):
            is_lattice(q)
        with pytest.raises(OrderError):
            classify(q)


def test_counts_match_oeis():
    # OEIS A000112 (posets) and A006966 (lattices), n = 1..7
    assert [len(enumerate_posets(n)) for n in range(1, 8)] == [
        1, 2, 5, 16, 63, 318, 2045]
    assert [len(enumerate_lattices(n)) for n in range(1, 8)] == [
        1, 1, 1, 2, 5, 15, 53]


@pytest.mark.parametrize("n", range(8))
def test_enumerate_lattices_matches_poset_filter(n):
    # the lattices are built from level n - 2; the filter over level n is
    # the oracle, compared element by element
    got = enumerate_lattices(n)
    want = [q for q in enumerate_posets(n) if is_lattice(q)]
    assert [q.up_masks for q in got] == [q.up_masks for q in want]


@pytest.mark.parametrize("n", range(1, 8))
def test_every_poset_is_its_own_canonical_form(n):
    for q in enumerate_posets(n):
        assert canonical_key(q) == bytes([n]) + bytes(q.up_masks)


@pytest.mark.parametrize("n", range(3, 10))
def test_enumerate_lattices_come_in_canonical_key_order(n):
    # each lattice is its own canonical form (nine elements take two bytes
    # a row), so the keys ascend without a sort
    width = (n + 7) // 8
    lattices = enumerate_lattices(n)
    keys = [canonical_key(q) for q in lattices]
    assert keys == [bytes([n]) + b"".join(up.to_bytes(width, "little")
                                          for up in q.up_masks)
                    for q in lattices]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_generation_order_does_not_reach_the_output(monkeypatch):
    want = [[q.up_masks for q in enumerate_posets(n)] for n in range(7)]
    extensions = builders._extensions
    monkeypatch.setattr(builders, "_extensions",
                        lambda q: reversed(list(extensions(q))))
    _level.cache_clear()
    try:
        got = [[q.up_masks for q in enumerate_posets(n)] for n in range(7)]
    finally:
        monkeypatch.undo()
        _level.cache_clear()
    assert got == want


def test_enumerate_lattices_at_the_size_limit():
    # OEIS A006966: 222 lattices on 8 elements
    lattices = enumerate_lattices(MAX_ENUMERATION_SIZE)
    assert len(lattices) == 222
    assert all(is_lattice(q) for q in lattices)


def test_enumerate_lattices_does_not_build_its_own_level():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "from latkit import builders; builders.enumerate_lattices(8); "
         "print(builders._level.cache_info().currsize)"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "6\n"


def test_level_cache_is_not_shared_with_callers():
    first = enumerate_posets(5)
    second = enumerate_posets(5)
    assert first is not second and first == second
    first.clear()
    assert len(enumerate_posets(5)) == 63


def assert_checked_poset(cand: QuasiOrder):
    """The unchecked ``cand`` is the order the checked constructor builds
    from its up-masks, and a poset; its preset down-masks are the
    transposition the constructor computes."""
    checked = QuasiOrder(cand.up_masks)
    assert checked.is_poset and cand.is_poset
    assert cand.down_masks == checked.down_masks


@pytest.mark.parametrize("n", range(2, 7))
def test_every_level_candidate_passes_the_checks(n):
    candidates = 0
    for q in _level(n - 1):
        for cand in _extensions(q):
            assert_checked_poset(cand)
            candidates += 1
    assert candidates >= len(enumerate_posets(n))


@pytest.mark.parametrize("n", range(3, 9))
def test_every_lattice_candidate_passes_the_checks(n):
    for q in enumerate_posets(n - 2):
        assert_checked_poset(_bounded(q))


def test_enumeration_size_limit():
    # lattices of n elements are built from the posets of n - 2
    # _level reads each key back one byte a row, which needs at most 8
    assert MAX_ENUMERATION_SIZE == 8
    for n in (MAX_ENUMERATION_SIZE + 1, 50):
        with pytest.raises(ValueError):
            enumerate_posets(n)
    for n in (MAX_ENUMERATION_SIZE + 3, 50):
        with pytest.raises(ValueError, match="limited to 10 elements"):
            enumerate_lattices(n)
    # a size that is no count is refused, not truncated or recursed on
    for n in (2.5, True, -1, "3"):
        for enumerate_orders in (enumerate_posets, enumerate_lattices):
            with pytest.raises(OrderError, match="enumeration size"):
                enumerate_orders(n)


def test_random_lattice_output_is_pinned():
    # SHA-256 of the relation matrices (row-major 0/1 bytes) drawn with
    # classify(q)["lattice"] as the filter: is_lattice must accept and
    # reject the same draws
    h = hashlib.sha256()
    for seed in range(3):
        rng = random.Random(seed)
        for n in (2, 3, 5, 6, 7, 8):
            for p in (0.2, 0.4, 0.7):
                q = random_lattice(n, rng, p)
                assert classify(q)["lattice"]
                h.update(bytes(q.le(a, b) for a in range(n) for b in range(n)))
    assert h.hexdigest() == (
        "8df45850e6dbecae706e5c8a2baf3522b15d8da210248c15a22d18a72af29510")
