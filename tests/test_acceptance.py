"""Acceptance suite: one test per criterion, each printing a verdict line.

Every expected value here is exact (set equality, zero violations); the
runtime caps stated alongside the structural criteria are asserted too.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time

import pytest

from latkit.builders import (
    chain_product,
    enumerate_lattices,
    enumerate_posets,
    powerset_lattice,
)
from latkit.embedding import (
    atom_image_check,
    birkhoff_decompose,
    birkhoff_formula_census,
    verify_convexity_transfer,
)
from latkit.lattice import is_convex, is_preregular
from latkit.monoid import (
    DISTRIBUTIVITY_MODES,
    NotCancellativeError,
    FiniteMonoid,
    VectorMonoid,
    check_disjoint_sum_laws,
    check_distributivity,
    enumerate_commutative_monoids,
    group_completion,
    vector_group_completion,
)
from latkit.order import atoms, bits
from latkit.topology import category_algebra, enumerate_topologies, largest_open_meager
from oracles import (
    census_maps,
    chain_vectors,
    chainprod_reading,
    naive_embedding_census,
    projection_image,
    random_lattice,
    ref_chainprod_formula_census,
    sampled_vector,
    verify_preregular_continuity,
)

SEED = 20260808

CHAINPROD_SHAPES = ((2, 2, 1, 2), (2, 3, 1, 1), (3, 5, 1, 1),
                    (2, 2, 2, 2), (2, 2, 2, 3))


def verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok


def test_criterion_1_powerset_characterization():
    """Convex-range power-set embeddings are exactly the maps a -> h[a] | b."""
    start = time.monotonic()
    total = 0
    for x in (1, 2, 3):
        for y in range(x, 5):
            dom, cod = powerset_lattice(x), powerset_lattice(y)
            census = census_maps(dom, cod, convex_range=True)
            images = tuple(mm.image for mm in census)
            assert images == birkhoff_formula_census(dom, cod), (x, y)
            assert images == ref_chainprod_formula_census((2,) * x, (2,) * y)
            for mm in census:
                h, b = birkhoff_decompose(mm)
                assert mm.image == tuple(b | sum(1 << h[i] for i in bits(a))
                                         for a in range(1 << x))
            total += len(census)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    verdict(1, True, f"{total} maps over 9 size pairs, {elapsed:.2f}s")


def test_criterion_2_chainprod_characterization():
    """Convex-range chain-product embeddings are shifted partial projections,
    cross-checked against naive full enumeration."""
    start = time.monotonic()
    total = 0
    for k, m, i, j in CHAINPROD_SHAPES:
        dom_dims, cod_dims = [k] * i, [m] * j
        dom, cod = chain_product(dom_dims), chain_product(cod_dims)
        census = census_maps(dom, cod, convex_range=True)
        images = tuple(mm.image for mm in census)
        naive = naive_embedding_census(dom, cod, convex_range=True)
        assert images == naive, (k, m, i, j)
        assert images == birkhoff_formula_census(dom, cod)
        assert images == ref_chainprod_formula_census(dom_dims, cod_dims)
        for mm in census:
            g, y = chainprod_reading(*birkhoff_decompose(mm), dom_dims, cod_dims)
            assert projection_image(g, y, dom_dims, cod_dims) == mm.image
        total += len(census)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    verdict(2, True, f"{total} maps over {len(CHAINPROD_SHAPES)} shapes, "
                     f"{elapsed:.2f}s")


def test_criterion_3_preregular_implies_continuity():
    """No embedding with preregular range drops a nonempty sup or inf:
    exhaustive to size 5, plus 200 seeded random 6-element lattice pairs."""
    posets = [q for n in range(1, 6) for q in enumerate_posets(n)]
    embeddings = 0
    violations = []
    for p in posets:
        for q in posets:
            if p.size > q.size:  # embeddings are injective; nothing to check
                continue
            rep = verify_preregular_continuity(p, q)
            embeddings += rep["embeddings"]
            violations.extend(rep["violations"])
    rng = random.Random(SEED)
    pool = [random_lattice(6, rng) for _ in range(40)]
    for _ in range(200):
        p = pool[rng.randrange(len(pool))]
        q = pool[rng.randrange(len(pool))]
        rep = verify_preregular_continuity(p, q)
        embeddings += rep["embeddings"]
        violations.extend(rep["violations"])
    verdict(3, not violations,
            f"{embeddings} preregular-range embeddings, "
            f"{len(violations)} violations")


def test_criterion_4_convex_implies_preregular():
    """Exhaustive over all lattices with at most 7 elements and all subsets,
    plus a recorded non-lattice witness showing the hypothesis matters."""
    checked = 0
    for n in range(1, 8):
        for q in enumerate_lattices(n):
            for amask in range(1 << n):
                if is_convex(q, amask):
                    checked += 1
                    assert is_preregular(q, amask)
    # witness: the bowtie, two minimals below two maximals; both minimals
    # plus one maximal form a convex subset whose inner join of the minimal
    # pair has no ambient counterpart
    from latkit.builders import bowtie

    b = bowtie()
    witness = 0b0111
    assert is_convex(b, witness) and not is_preregular(b, witness)
    verdict(4, True, f"{checked} convex subsets preregular; "
                     "bowtie witness confirms the lattice hypothesis")


def test_criterion_5_extension_suite():
    """Extensions from bases containing the bottom reproduce the original
    embedding, are unique among continuous semilattice extensions, and keep
    a convex range."""
    cases = 0
    # power-set instances
    for x, y in ((2, 2), (2, 3), (3, 3)):
        dom, cod = powerset_lattice(x), powerset_lattice(y)
        basis = [0] + [1 << i for i in range(x)]
        for mm in census_maps(dom, cod, convex_range=True):
            sig = {b: mm.image[b] for b in basis}
            rep = verify_convexity_transfer(dom, sum(1 << b for b in basis),
                                            cod.full_mask, cod, sig)
            assert rep["holds"], (x, y, mm.image, rep)
            assert tuple(rep["extension"]) == mm.image
            assert rep["unique"] and rep["convex_range"] and rep["embedding"]
            cases += 1
    # chain-product instances
    for dom_dims, cod_dims in (([3], [5]), ([2, 2], [2, 2]), ([2, 2], [2, 2, 2])):
        dom, cod = chain_product(dom_dims), chain_product(cod_dims)
        # the vectors with at most one nonzero coordinate
        basis = [b for b, v in enumerate(chain_vectors(dom_dims))
                 if sum(map(bool, v)) <= 1]
        for mm in census_maps(dom, cod, convex_range=True):
            sig = {b: mm.image[b] for b in basis}
            rep = verify_convexity_transfer(dom, sum(1 << b for b in basis),
                                            cod.full_mask, cod, sig)
            assert rep["holds"], (dom_dims, cod_dims, mm.image, rep)
            assert tuple(rep["extension"]) == mm.image
            cases += 1
    verdict(5, True, f"{cases} basis extensions reproduced, unique, convex")


def test_criterion_6_monoid_laws():
    """The distributive and disjointness laws hold on integer-vector
    monoids, decided on the scalar grid (the reports count the grid
    instances they visit); a four-element table whose nonzero sums all
    saturate produces a recorded violation at a nonempty set, showing the
    checker discriminates."""
    instances = 0
    for dim in (1, 2, 3, 4):
        mon = VectorMonoid(dim)
        for mode in DISTRIBUTIVITY_MODES:
            rep = check_distributivity(mon, mode)
            assert rep["holds"], rep
            instances += rep["checked"]
        rep = check_disjoint_sum_laws(mon)
        assert rep["holds"], rep
        instances += rep["checked"]
    assert instances >= 10_000
    # discrimination: x + y = 3 for nonzero x, y orders {0, 1, 2, 3} as the
    # square 0 < 1, 2 < 3, where 1 + inf {1, 2} = 1 but inf {1 + 1, 1 + 2} = 3
    square = FiniteMonoid([[0, 1, 2, 3], [1, 3, 3, 3], [2, 3, 3, 3],
                           [3, 3, 3, 3]], 0)
    rep = check_distributivity(square, "plus_meet_inf")
    assert not rep["holds"]
    assert rep["witness"] == {"a": 1, "B": [1, 2], "lhs": 1, "rhs": 3}
    verdict(6, True, f"{instances} instances clean; saturating square "
                     f"violation recorded at {rep['witness']}")


def test_criterion_7_group_completion():
    """Pair-class completion: the plane of nonnegative integer vectors
    completes to the integer plane; every cancellative commutative monoid of
    size at most 4 completes to a group with an injective embedding; the
    two-element max monoid is rejected."""
    nat2 = VectorMonoid(2)
    z2 = vector_group_completion(nat2)
    rng = random.Random(SEED)
    zero = nat2.zero()
    for _ in range(500):
        a, b = sampled_vector(rng, 2), sampled_vector(rng, 2)
        c, d = sampled_vector(rng, 2), sampled_vector(rng, 2)
        assert (z2.class_of(a, b) == z2.class_of(c, d)) == (
            nat2.add(a, d) == nat2.add(c, b))
        # a enters as [a, 0]: additive, with [b, a] the inverse of [a, b]
        assert z2.class_of(nat2.add(a, b), b) == z2.class_of(a, zero)
        assert z2.class_of(nat2.add(a, b), nat2.add(b, a)) == z2.class_of(zero, zero)
        if a != b:
            assert z2.class_of(a, zero) != z2.class_of(b, zero)
    completed = rejected = 0
    for n in (1, 2, 3, 4):
        for mon in enumerate_commutative_monoids(n):
            if not mon.is_cancellative:
                rejected += 1
                continue
            g = group_completion(mon)  # embedded by the identity
            assert g is mon and len(g.invertibles) == g.size
            completed += 1
    with pytest.raises(NotCancellativeError):
        group_completion(FiniteMonoid([[0, 1], [1, 1]], 0))
    verdict(7, True, f"integer-plane checks clean; {completed} cancellative "
                     f"monoids completed, {rejected} noncancellative skipped, "
                     "max monoid rejected")


def test_criterion_8_category_algebra():
    """For every topology on at most 4 points the category algebra is a
    Boolean algebra isomorphic to the regular open algebra, with the
    isomorphism exhibited; the space is its own residual, since its largest
    open meager set is empty."""
    start = time.monotonic()
    count = 0
    for n in (0, 1, 2, 3, 4):
        for t in enumerate_topologies(n):
            cat = category_algebra(t)  # raises if Booleanness or the iso fail
            assert len(cat.ro_iso) == cat.size
            assert largest_open_meager(t) == 0
            count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    verdict(8, True, f"{count} topologies, isomorphism exhibited, "
                     f"{elapsed:.2f}s")


def test_criterion_9_atom_laws():
    """Atoms of the subset lattices are the singletons, and every census
    embedding maps atoms onto the relative atoms of its range."""
    for n in range(1, 5):
        assert tuple(bits(atoms(powerset_lattice(n)))) == \
            tuple(1 << i for i in range(n))
    checked = 0
    for x in (1, 2, 3):
        for y in range(x, 5):
            dom, cod = powerset_lattice(x), powerset_lattice(y)
            for mm in census_maps(dom, cod, convex_range=True):
                assert atom_image_check(mm)
                checked += 1
    for k, m, i, j in CHAINPROD_SHAPES:
        dom, cod = chain_product([k] * i), chain_product([m] * j)
        for mm in census_maps(dom, cod, convex_range=True):
            assert atom_image_check(mm)
            checked += 1
    verdict(9, True, f"singleton atoms confirmed; {checked} census maps "
                     "respect the atom image law")
