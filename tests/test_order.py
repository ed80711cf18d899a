"""Core order operations against definition-level brute-force oracles."""

import numpy as np
import pytest

from latkit.builders import (
    antichain,
    bowtie,
    chain,
    chain_product,
    diamond,
    enumerate_posets,
    m3,
    powerset_lattice,
)
from latkit.order import (
    MonotoneMap,
    OrderError,
    asym_quotient,
    atoms,
    bits,
    build_quasi_order,
    inf,
    is_partial_order,
    lower_closure,
    minimal_elements,
    positive_part,
    sup,
    upper_closure,
)
from latkit.cli import _order_to_json, _read_subset, parse_order_spec
from oracles import chain_vectors, is_bounded_above, is_directed


def brute_sup(q, members):
    """Independent oracle: scan all upper bounds, pick the unique least."""
    ubs = [u for u in range(q.size)
           if all(q.le(a, u) for a in members)]
    least = [u for u in ubs if all(q.le(u, v) for v in ubs)]
    assert len(least) <= 1
    return least[0] if least else None


def test_build_chain_and_antichain():
    c = build_quasi_order(3, [(0, 1), (1, 2)])
    assert c.le(0, 2) and not c.le(2, 0)
    a = build_quasi_order(2, [])
    assert a.le(0, 0) and not a.le(0, 1)
    d = build_quasi_order(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert d.le(0, 3) and not d.le(1, 2)


def test_build_rejects_bad_index():
    with pytest.raises(IndexError):
        build_quasi_order(2, [(0, 5)])


def test_is_partial_order():
    assert is_partial_order(chain(3))
    assert not is_partial_order(build_quasi_order(2, [(0, 1), (1, 0)]))
    assert is_partial_order(diamond())


def test_asym_quotient_identity_on_posets():
    d = diamond()
    p, cm = asym_quotient(d)
    assert p.size == 4 and cm == (0, 1, 2, 3)
    assert p.up_masks == d.up_masks


def test_asym_quotient_cycle_cases():
    q, cm = asym_quotient(build_quasi_order(2, [(0, 1), (1, 0)]))
    assert q.size == 1 and cm == (0, 0)
    # a 2-cycle in the middle of a chain collapses to a 3-chain
    q4 = build_quasi_order(4, [(0, 1), (1, 2), (2, 1), (2, 3)])
    p4, cm4 = asym_quotient(q4)
    assert p4.size == 3
    assert cm4 == (0, 1, 1, 2)
    assert is_partial_order(p4)


def test_quotient_map_preserves_and_reflects():
    # the collapse map is an order embedding into the quotient
    for pairs in [
        [(0, 1), (1, 0), (1, 2)],
        [(0, 1), (1, 2), (2, 0)],
        [(0, 1), (2, 3)],
    ]:
        q = build_quasi_order(4, pairs)
        p, cm = asym_quotient(q)
        for a in range(4):
            for b in range(4):
                assert q.le(a, b) == p.le(cm[a], cm[b])


def test_sup_examples():
    p2 = powerset_lattice(2)
    assert sup(p2, 0b110) == 3
    d5 = m3()
    assert sup(d5, 0b110) == 4
    assert sup(antichain(2), 0b11) is None


def test_empty_sup_is_minimum():
    assert sup(chain(3), 0) == 0
    assert inf(chain(3), 0) == 2
    assert sup(antichain(2), 0) is None
    assert sup(diamond(), 0) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_sup_inf_match_brute_oracle(n):
    for q in enumerate_posets(n):
        for mask in range(1 << n):
            members = list(bits(mask))
            assert sup(q, mask) == brute_sup(q, members)
            dual_members = members
            ubs = [u for u in range(n) if all(q.le(u, a) for a in dual_members)]
            least = [u for u in ubs if all(q.le(v, u) for v in ubs)]
            assert inf(q, mask) == (least[0] if least else None)


def test_minimal_and_positive():
    assert tuple(bits(minimal_elements(chain(3)))) == (0,)
    assert tuple(bits(positive_part(chain(3)))) == (1, 2)
    assert tuple(bits(minimal_elements(antichain(3)))) == (0, 1, 2)
    assert positive_part(antichain(3)) == 0
    assert tuple(bits(minimal_elements(diamond()))) == (0,)


def test_atoms_powerset_singletons():
    for n in range(1, 5):
        p = powerset_lattice(n)
        assert tuple(bits(atoms(p))) == tuple(1 << i for i in range(n))


def test_atoms_chain_product():
    vectors = chain_vectors([2, 2])
    got = {vectors[i] for i in bits(atoms(chain_product([2, 2])))}
    assert got == {(1, 0), (0, 1)}


def test_atoms_of_chain_are_all_positives():
    # chains have no incompatibility, so nothing splits
    assert tuple(bits(atoms(chain(3)))) == (1, 2)
    assert tuple(bits(atoms(chain(5)))) == (1, 2, 3, 4)


def test_atomicity():
    assert tuple(bits(atoms(powerset_lattice(3)))) == (1, 2, 4)
    assert atoms(antichain(3)) == 0
    assert atoms(powerset_lattice(2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_nonempty_positive_part_has_atoms(n):
    # minimal elements of the positive part never split
    for q in enumerate_posets(n):
        if positive_part(q):
            assert atoms(q)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_atoms_sit_inside_positive_part(n):
    for q in enumerate_posets(n):
        pos = positive_part(q)
        at = atoms(q)
        assert at & ~pos == 0
        # every element minimal within the positive part is an atom
        for p in bits(pos):
            if not any(q.lt(r, p) for r in bits(q.down_masks[p] & pos)):
                assert (at >> p) & 1


def test_down_set_and_closures():
    c = chain(3)
    assert tuple(bits(lower_closure(c, 0b10))) == (0, 1)
    d = diamond()
    assert tuple(bits(upper_closure(d, 0b10))) == (1, 3)
    assert upper_closure(d, 0) == 0
    assert tuple(bits(lower_closure(d, 0b1000))) == (0, 1, 2, 3)


def test_upper_closure_idempotent_extensive():
    for q in enumerate_posets(4):
        for mask in range(1 << 4):
            up = upper_closure(q, mask)
            assert up & mask == mask or mask & ~up == 0
            assert mask & ~up == 0  # extensive
            assert upper_closure(q, up) == up  # idempotent


def test_is_directed():
    c = chain(4)
    assert is_directed(c, 0b1101)
    d = diamond()
    assert not is_directed(d, 0b110)
    assert is_directed(d, 0b1110)
    assert not is_directed(d, 0)


def test_bounded():
    d = diamond()
    assert is_bounded_above(d, 0b110)
    b = bowtie()
    assert not is_bounded_above(b, 0b1100)
    assert is_bounded_above(b.dual, 0b1100)
    assert not is_bounded_above(b.dual, 0b11)
    assert is_bounded_above(b, 0)  # empty set is vacuously bounded


def test_bowtie_bounds_by_scan():
    b = bowtie()
    for mask in range(1 << 4):
        members = list(bits(mask))
        expect = any(
            all(b.le(a, u) for a in members) for u in range(4)
        )
        assert is_bounded_above(b, mask) == expect


def test_upper_bounds_on_posets_and_quasi_orders():
    quasi = build_quasi_order(3, [(0, 1), (1, 0), (1, 2)])
    orders = [q for n in (1, 2, 3, 4) for q in enumerate_posets(n)] + [quasi]
    for q in orders:
        for mask in range(1 << q.size):
            members = list(bits(mask))
            above = any(all(q.le(a, u) for a in members) for u in range(q.size))
            below = any(all(q.le(u, a) for a in members) for u in range(q.size))
            assert is_bounded_above(q, mask) == above
            assert is_bounded_above(q.dual, mask) == below
    with pytest.raises(OrderError):
        sup(quasi, 0b100)
    with pytest.raises(OrderError):
        inf(quasi, 0b100)


def test_monotone_map_validation():
    c2, c3 = chain(2), chain(3)
    mm = MonotoneMap(c2, c3, (0, 2))
    assert mm.is_embedding
    with pytest.raises(OrderError):
        MonotoneMap(c2, c3, (2, 0))
    collapse = MonotoneMap(diamond(), chain(2), (0, 0, 0, 1))
    assert not collapse.is_embedding


def test_immutability():
    q = chain(3)
    with pytest.raises(AttributeError):
        q.up_masks = (1, 2, 4)
    with pytest.raises(TypeError):
        q.up_masks[0] = 1
    assert q.up_masks == (7, 6, 4)


def test_json_round_trip():
    for q in [chain(3), diamond(), bowtie(), build_quasi_order(3, [(0, 1), (1, 0)])]:
        again = parse_order_spec(_order_to_json(q))
        assert q.up_masks == again.up_masks
    p = powerset_lattice(2)
    assert _read_subset(p, [0, 3]) == 0b1001


@pytest.mark.parametrize("build", [
    lambda: chain(-1),
    lambda: chain(2.5),
    lambda: antichain(-2),
    lambda: antichain(True),
    lambda: powerset_lattice(True),
    lambda: chain_product([2.7]),
    lambda: chain_product([True, 3]),
    lambda: chain_product(["3"]),
    lambda: chain_product([0]),
], ids=["chain-negative", "chain-float", "antichain-negative", "antichain-bool",
        "powerset-bool", "chains-float", "chains-bool", "chains-str",
        "chains-zero"])
def test_stock_builders_refuse_bad_input(build):
    # refused, not truncated, read as a count or failing on a shift
    with pytest.raises(OrderError, match="must be"):
        build()


def test_stock_builders_take_index_integers():
    n = np.int64(3)
    assert chain(n).up_masks == chain(3).up_masks
    assert antichain(n).up_masks == antichain(3).up_masks
    assert powerset_lattice(np.uint8(2)) is powerset_lattice(2)
    assert chain_product([n, np.int8(2)]).up_masks == chain_product([3, 2]).up_masks
