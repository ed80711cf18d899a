"""Censuses, decompositions, continuity, and the extension machinery."""

import itertools
import math
import random

import pytest

from latkit.builders import (
    antichain,
    bowtie,
    chain,
    chain_product,
    diamond,
    enumerate_lattices,
    enumerate_posets,
    m3,
    n5,
    powerset_lattice,
)
from latkit.embedding import (
    BudgetExceededError,
    HypothesisFailed,
    NotConvexRangeError,
    NotEmbeddingError,
    PreconditionFailedError,
    atom_image_check,
    birkhoff_decompose,
    birkhoff_formula_census,
    _check_sigma_hypotheses,
    check_transfer_setting,
    continuity_checks,
    enumerate_embeddings,
    enumerate_monotone_maps,
    extend_from_join_dense,
    verify_convexity_transfer,
    verify_transfer_map,
)
from latkit.cli import _census_lines
from latkit.lattice import (
    check_jid,
    classify,
    is_basis,
    is_convex,
    is_distributive,
    is_join_dense,
    is_preregular,
)
from latkit.order import (
    MonotoneMap,
    OrderError,
    QuasiOrder,
    atoms,
    bits,
    build_quasi_order,
    induced_suborder,
    linear_extension,
    minimal_elements,
    positive_part,
    sup,
)
from oracles import (
    census_images,
    census_maps,
    chain_vectors,
    chainprod_reading,
    is_bounded_above,
    is_order_reflecting,
    naive_embedding_census,
    projection_image,
    random_lattice,
    range_property_checks,
    ref_chainprod_formula_census,
    ref_lattice_view,
    verify_preregular_continuity,
)


def test_census_chain_into_chain():
    assert census_images(chain(2), chain(3)) == ((0, 1), (0, 2), (1, 2))


def test_census_powerset_automorphisms():
    p3 = powerset_lattice(3)
    auto = census_maps(p3, p3, convex_range=True)
    assert len(auto) == 6
    # each is the mask action of a ground permutation
    perms = set()
    for mm in auto:
        h, b = birkhoff_decompose(mm)
        assert b == 0
        perms.add(h)
    assert perms == set(itertools.permutations(range(3)))


def test_counterexample_map_flags():
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    mm = MonotoneMap(p2, p3, (0, 1, 2, 7))
    assert mm.is_embedding
    assert not is_convex(p3, mm.range_mask)
    with pytest.raises(NotConvexRangeError):
        birkhoff_decompose(mm)
    census = dict(enumerate_embeddings(p2, p3))
    assert mm.image in census
    flag = census[mm.image]
    assert flag["embedding"] and not flag["convex_range"]


@pytest.mark.parametrize("x,y", [(1, 1), (1, 2), (2, 2), (2, 3), (2, 4)])
def test_census_against_naive_enumeration(x, y):
    dom, cod = powerset_lattice(x), powerset_lattice(y)
    for filters in ({}, {"convex_range": True}, {"preregular_range": True},
                    {"downward_closed_range": True}):
        fast = census_images(dom, cod, **filters)
        slow = naive_embedding_census(dom, cod, **filters)
        assert fast == slow


def test_census_soundness_recheck():
    dom, cod = powerset_lattice(2), powerset_lattice(3)
    for image, flags in enumerate_embeddings(dom, cod, convex_range=True):
        mm = MonotoneMap(dom, cod, image)
        assert mm.is_embedding
        assert is_convex(cod, mm.range_mask) == flags["convex_range"] is True
        assert is_preregular(cod, mm.range_mask) == flags["preregular_range"]


def test_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_embeddings(powerset_lattice(2), powerset_lattice(3),
                                  budget_nodes=5))


def test_census_json_lines():
    lines = list(_census_lines(enumerate_embeddings(chain(2), chain(3))))
    assert len(lines) == 3
    assert lines[0].startswith('{"flags"')


def test_continuity_of_isomorphisms():
    p2 = powerset_lattice(2)
    for mm in census_maps(p2, p2, convex_range=True):
        assert all(continuity_checks(mm).values())


def test_continuity_collapse_witness():
    col = MonotoneMap(diamond(), chain(2), (0, 0, 0, 1))
    rep = continuity_checks(col)
    assert not rep["preserves_nonempty_sups"]
    assert rep["scott_continuous"]  # finite directed sets contain their sup


def test_scott_continuity_always_holds_on_finite_posets():
    for q in enumerate_posets(4):
        for r in enumerate_posets(3):
            for img in itertools.product(range(r.size), repeat=q.size):
                ok = all(
                    r.le(img[a], img[b])
                    for a in range(q.size) for b in range(q.size)
                    if q.le(a, b)
                )
                if not ok:
                    continue
                mm = MonotoneMap(q, r, img)
                rep = continuity_checks(mm)
                assert rep["scott_continuous"] and rep["co_continuous"]


def test_preregular_range_implies_sup_preservation_small():
    for n in (2, 3, 4):
        for p in enumerate_posets(n):
            for q in enumerate_posets(n):
                rep = verify_preregular_continuity(p, q)
                assert rep["holds"], rep


def test_range_properties_interval():
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    for mm in census_maps(p2, p3, convex_range=True):
        rp = range_property_checks(mm)
        assert rp["interval_range"] is True
        assert rp["up_boc_range"] and rp["down_oc_range"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order_reflection_matches_the_pairwise_definition(n):
    """Every monotone map between posets of at most ``n`` elements, the
    non-injective ones too, and a fresh map per census image."""
    posets = [q for k in range(1, n + 1) for q in enumerate_posets(k)]
    for p in enumerate_posets(n):
        for q in posets:
            census = set(census_images(p, q))
            for img in enumerate_monotone_maps(p, q):
                mm = MonotoneMap(p, q, img)
                assert mm.is_embedding == is_order_reflecting(mm) == (img in census)


def test_up_boc_range_for_lattice_homomorphisms():
    # continuous lattice homomorphism that is not an embedding: first
    # projection of a square onto its chain
    proj = MonotoneMap(chain_product([2, 2]), chain(2),
                       tuple(v[0] for v in chain_vectors([2, 2])))
    assert not proj.is_embedding
    rep = range_property_checks(proj)
    assert rep["up_boc_range"]


def test_preregular_range_from_complete_semilattice_is_boundedly_closed():
    # an embedding off a complete semilattice with preregular range has a
    # boundedly order closed range on both sides
    from latkit.lattice import order_closed_checks

    for n in (2, 3, 4):
        for p in enumerate_posets(n):
            if not classify(p)["complete_semilattice"]:
                continue
            for q in enumerate_posets(n):
                for mm in census_maps(p, q, preregular_range=True):
                    oc = order_closed_checks(mm.cod, mm.range_mask)
                    assert oc["up_boc"] and oc["down_boc"]


def test_unboundedness_preserving_embedding_has_order_closed_range():
    for n in (2, 3, 4):
        for p in enumerate_posets(n):
            if not classify(p)["complete_semilattice"]:
                continue
            for q in enumerate_posets(n):
                for mm in census_maps(p, q, preregular_range=True):
                    # no subset unbounded in p has a bounded image in q
                    if all(is_bounded_above(p, a)
                           or not is_bounded_above(q, mm.image_mask(a))
                           for a in range(1 << n)):
                        rp = range_property_checks(mm)
                        assert rp["order_closed_range"]


def test_atom_image_law():
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    ident = MonotoneMap(p3, p3, tuple(range(8)))
    assert atom_image_check(ident)
    for mm in census_maps(p2, p3):
        assert atom_image_check(mm)


def test_atom_image_requires_embedding():
    col = MonotoneMap(diamond(), chain(2), (0, 0, 0, 1))
    with pytest.raises(PreconditionFailedError):
        atom_image_check(col)


def test_monotone_map_can_break_atom_law():
    # merely monotone: add the coordinates of the square, into a chain
    square = chain_product([2, 2])
    add = MonotoneMap(square, chain(3), tuple(map(sum, chain_vectors([2, 2]))))
    assert not add.is_embedding
    img_atoms = add.image_mask(atoms(square))
    assert img_atoms != atoms(chain(3), add.range_mask)


def test_minimal_and_positive_images():
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    for mm in census_maps(p2, p3):
        rng = mm.range_mask
        sub_min = 0
        for p in bits(rng):
            if not any(mm.cod.lt(r, p) for r in bits(mm.cod.down_masks[p] & rng)):
                sub_min |= 1 << p
        assert mm.image_mask(minimal_elements(p2)) == sub_min
        assert mm.image_mask(positive_part(p2)) == rng & ~sub_min


def test_embedding_iff_strictly_order_preserving_lattice_hom():
    lattices = [q for n in (1, 2, 3, 4, 5) for q in enumerate_lattices(n)]
    for dom in lattices:
        lv_dom = ref_lattice_view(dom)
        for cod in lattices:
            lv_cod = ref_lattice_view(cod)
            for img in itertools.product(range(cod.size), repeat=dom.size):
                hom = all(
                    img[lv_dom.join[a][b]] == lv_cod.join[img[a]][img[b]]
                    and img[lv_dom.meet[a][b]] == lv_cod.meet[img[a]][img[b]]
                    for a in range(dom.size) for b in range(dom.size)
                )
                if not hom:
                    continue
                mm = MonotoneMap(dom, cod, img)
                strict = all(
                    mm.cod.lt(img[a], img[b])
                    for a in range(dom.size) for b in range(dom.size)
                    if dom.lt(a, b)
                )
                assert mm.is_embedding == strict


# ---------------------------------------------------------------------------
# decompositions: the Birkhoff form and its power-set and chain-product
# readings


def powerset_image(h, b, x):
    """The image tuple of ``a -> h[a] | b`` on ``P(x)``."""
    return tuple(b | sum(1 << h[i] for i in bits(a)) for a in range(1 << x))


def test_powerset_decompose_identity():
    p2 = powerset_lattice(2)
    ident = MonotoneMap(p2, p2, tuple(range(4)))
    assert birkhoff_decompose(ident) == ((0, 1), 0)


def test_powerset_census_formula_counts():
    # injections times free baseline subsets
    expected = {(1, 1): 1, (1, 2): 4, (1, 3): 12, (2, 2): 2, (2, 3): 12}
    for (x, y), count in expected.items():
        census = birkhoff_formula_census(powerset_lattice(x), powerset_lattice(y))
        assert len(census) == count


def test_powerset_round_trip():
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    for mm in census_maps(p2, p3, convex_range=True):
        h, b = birkhoff_decompose(mm)
        assert b & mm.cod.full_mask == b
        assert powerset_image(h, b, 2) == mm.image


def test_powerset_embedding_validation():
    # each decomposition is an injection h and a baseline b off its image
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    for mm in census_maps(p2, p3, convex_range=True):
        h, b = birkhoff_decompose(mm)
        assert len(set(h)) == 2 and not b & sum(1 << j for j in h)
    with pytest.raises(NotEmbeddingError):
        birkhoff_decompose(MonotoneMap(p2, p2, (0, 3, 3, 3)))


def test_powerset_lattice_is_the_two_chain_cube():
    # both readings of the Birkhoff form label P(n) as the cube C_2^n
    for n in range(7):
        assert powerset_lattice(n).up_masks == chain_product([2] * n).up_masks


def test_powerset_lattice_is_one_order_per_size():
    assert powerset_lattice(3) is powerset_lattice(3)
    assert powerset_lattice(3) is not powerset_lattice(2)
    with pytest.raises(OrderError):
        powerset_lattice(-1)


def test_an_order_keeps_only_what_its_relation_determines():
    # census memos and lattice tables live with the computation, not the order
    dom, cod = chain(3), QuasiOrder(powerset_lattice(3).up_masks)
    assert census_images(dom, cod, preregular_range=True)
    assert classify(cod)["boolean"]
    assert check_jid(cod)["holds"]
    assert len(birkhoff_formula_census(cod, cod)) == 6
    assert set(vars(cod)) <= {"up_masks", "down_masks", "dual", "is_poset",
                              "full_mask", "up_index"}


@pytest.mark.parametrize("call, error", [
    (lambda: chain_product([2, 0]), OrderError),
    (lambda: enumerate_posets(9), OrderError),
    (lambda: random_lattice(1, random.Random(0)), OrderError),
    (lambda: extend_from_join_dense(chain(2), 0b11, {0: 0, 1: 1, 2: 1},
                                    chain(2)), PreconditionFailedError),
], ids=["chain-height", "enumeration-size", "random-lattice-size",
        "sigma-domain"])
def test_input_errors_raise_their_module_class(call, error):
    # both classes are ValueErrors, so the command line still exits 2
    with pytest.raises(error) as info:
        call()
    assert info.type is error and issubclass(error, ValueError)


def test_powerset_census_matches_formula_from_the_empty_ground_set():
    for x in range(5):
        for y in range(x, 5):
            dom, cod = powerset_lattice(x), powerset_lattice(y)
            maps = census_maps(dom, cod, convex_range=True)
            assert tuple(mm.image for mm in maps) == birkhoff_formula_census(
                dom, cod), (x, y)
            for mm in maps:
                h, b = birkhoff_decompose(mm)
                assert powerset_image(h, b, x) == mm.image, (x, y, mm.image)


@pytest.mark.parametrize("h, b", [
    ((0, 3), 0),      # h value outside the 3-point ground set
    ((0, -1), 0),
    ((0, 1), 0b1000),  # b bit outside the ground set
    ((0, 1), -1),
])
def test_powerset_embedding_refuses_points_outside_the_codomain(h, b):
    # no decomposition of a P(2) -> P(3) census map reaches outside P(3)
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    found = {birkhoff_decompose(mm)
             for mm in census_maps(p2, p3, convex_range=True)}
    assert len(found) == 12 and (h, b) not in found
    assert all(0 <= j < 3 for h2, _ in found for j in h2)
    assert all(0 <= b2 < 8 for _, b2 in found)


def test_chainprod_preconditions_are_precondition_errors():
    c2, c3 = chain_product([2]), chain_product([3])
    with pytest.raises(NotEmbeddingError):
        birkhoff_decompose(MonotoneMap(c3, c2, (0, 1, 1)))
    with pytest.raises(NotConvexRangeError):
        birkhoff_decompose(MonotoneMap(c2, c3, (0, 2)))
    with pytest.raises(PreconditionFailedError):
        birkhoff_decompose(MonotoneMap(c2, n5(), (0, 4)))
    # a chain of height 1 is the one-element lattice, which the form covers
    c1 = chain_product([1])
    assert birkhoff_decompose(MonotoneMap(c1, c3, (2,))) == ((), 0b11)


def test_chainprod_decompose_compares_orders_not_objects():
    # labels are per order object, so a map between copies decomposes too
    mm = MonotoneMap(chain_product([2, 2]), powerset_lattice(2), (0, 1, 2, 3))
    assert birkhoff_decompose(mm) == ((0, 1), 0)
    assert chain_product([2, 2]) is not chain_product([2, 2])


def test_chainprod_decompose_identity():
    cp = chain_product([2, 2])
    ident = MonotoneMap(cp, cp, tuple(range(4)))
    phi, b = birkhoff_decompose(ident)
    assert chainprod_reading(phi, b, (2, 2), (2, 2)) == (((0, 0), (1, 1)), (0, 0))


def test_chainprod_shifts_on_chains():
    c3, c5 = chain_product([3]), chain_product([5])
    census = census_maps(c3, c5, convex_range=True)
    assert len(census) == 3
    shifts = set()
    for mm in census:
        g, y = chainprod_reading(*birkhoff_decompose(mm), (3,), (5,))
        assert g == ((0, 0),)
        shifts.add(y[0])
    assert shifts == {0, 1, 2}


def test_chainprod_census_matches_formula():
    shapes = [([2], [2, 2]), ([2, 2], [2, 2]), ([2, 2], [2, 2, 2]),
              ([3, 2], [2, 4, 3])]
    for dom_dims, cod_dims in shapes:
        dom, cod = chain_product(dom_dims), chain_product(cod_dims)
        maps = census_maps(dom, cod, convex_range=True)
        images = tuple(mm.image for mm in maps)
        assert images == birkhoff_formula_census(dom, cod)
        assert images == ref_chainprod_formula_census(dom_dims, cod_dims)
        for mm in maps:
            g, y = chainprod_reading(*birkhoff_decompose(mm), dom_dims, cod_dims)
            assert projection_image(g, y, dom_dims, cod_dims) == mm.image


def test_chainprod_embedding_feasibility():
    c3, c2 = chain_product([3]), chain_product([2])
    assert birkhoff_formula_census(c3, c2) == ()  # 3-chain cannot fit
    assert census_images(c3, c2, convex_range=True) == ()


def sorted_shapes(limit):
    """Every nondecreasing tuple of chain heights of at least 2 whose
    product is at most ``limit``, the empty tuple included."""
    shapes = [()]
    for shape in shapes:
        low, size = (shape[-1] if shape else 2), math.prod(shape)
        shapes += [shape + (d,) for d in range(low, limit // size + 1)]
    return shapes


def test_birkhoff_census_matches_the_chain_product_oracle():
    # every pair of mixed shapes of at most 32 elements, the uniform shapes
    # [k] * i the command line takes among them
    shapes = sorted_shapes(32)
    pairs = [(a, b) for a in shapes for b in shapes
             if math.prod(a) <= math.prod(b)]
    uniform = [(a, b) for a, b in pairs if len(set(a)) <= 1 >= len(set(b))]
    assert (len(shapes), len(pairs), len(uniform)) == (78, 3183, 829)
    maps = 0
    for a, b in pairs:
        census = birkhoff_formula_census(chain_product(a), chain_product(b))
        assert census == ref_chainprod_formula_census(a, b), (a, b)
        maps += len(census)
    assert maps == 16_667


def test_birkhoff_census_matches_the_powerset_oracle():
    for x in range(5):
        for y in range(7):
            assert birkhoff_formula_census(
                powerset_lattice(x), powerset_lattice(y)
            ) == ref_chainprod_formula_census((2,) * x, (2,) * y), (x, y)


def test_birkhoff_census_is_the_convex_census_on_small_distributive_lattices():
    lattices = [q for n in range(1, 8) for q in enumerate_lattices(n)
                if is_distributive(q)]
    pairs = maps = 0
    for L in lattices:
        for M in lattices:
            if L.size > M.size:
                continue
            census = census_maps(L, M, convex_range=True)
            assert birkhoff_formula_census(L, M) == tuple(mm.image for mm in census)
            for mm in census:
                birkhoff_decompose(mm)  # checks its own reconstruction
            pairs += 1
            maps += len(census)
    assert (len(lattices), pairs, maps) == (21, 273, 435)


@pytest.mark.parametrize("q", [m3(), n5(), bowtie()], ids=["m3", "n5", "bowtie"])
def test_birkhoff_form_refuses_non_distributive_orders(q):
    with pytest.raises(PreconditionFailedError):
        birkhoff_formula_census(q, powerset_lattice(2))
    with pytest.raises(PreconditionFailedError):
        birkhoff_formula_census(chain(1), q)
    ident = MonotoneMap(q, q, tuple(range(q.size)))
    with pytest.raises(PreconditionFailedError):
        birkhoff_decompose(ident)


def test_birkhoff_census_takes_the_node_budget():
    # the convex census of J(C8 x C8), two 7-element chains, into itself
    # visits 508 nodes
    c8 = chain_product([8, 8])
    with pytest.raises(BudgetExceededError):
        birkhoff_formula_census(c8, c8, budget_nodes=500)
    assert len(birkhoff_formula_census(c8, c8, budget_nodes=508)) == 2


# ---------------------------------------------------------------------------
# extension


def powerset_basis(n):
    """The bottom and the singletons of ``P(n)``, as a mask."""
    return sum(1 << b for b in [0] + [1 << i for i in range(n)])


def enumerate_continuous_extensions(L, dmask, sigma, M):
    """All maps ``L -> M`` agreeing with ``sigma`` on ``D`` that preserve
    nonempty suprema, by constrained backtracking over monotone maps: the
    oracle for the one candidate that ``verify_convexity_transfer`` decides."""
    sigma = {int(k): int(v) for k, v in sigma.items()}
    order = linear_extension(L)
    image = [-1] * L.size
    out = []
    # per depth: the earlier elements below and above this depth's element
    lower = [[q for q in order[:d] if (L.down_masks[p] >> q) & 1]
             for d, p in enumerate(order)]
    upper = [[q for q in order[:d] if (L.up_masks[p] >> q) & 1]
             for d, p in enumerate(order)]

    def rec(depth):
        if depth == L.size:
            mm = MonotoneMap(L, M, tuple(image))
            if continuity_checks(mm)["preserves_nonempty_sups"]:
                out.append(mm)
            return
        p = order[depth]
        cands = 1 << sigma[p] if (dmask >> p) & 1 else M.full_mask
        for q in lower[depth]:
            cands &= M.up_masks[image[q]]
        for q in upper[depth]:
            cands &= M.down_masks[image[q]]
        for cand in bits(cands):
            image[p] = cand
            rec(depth + 1)

    rec(0)
    return tuple(out)


def ref_continuous_extensions(L, dmask, sigma, M):
    """Every monotone map agreeing with ``sigma`` on ``dmask`` that preserves
    nonempty suprema, in the depth-first order of the backtracker."""
    order = linear_extension(L)
    out = [img for img in enumerate_monotone_maps(L, M)
           if all(img[d] == sigma[d] for d in bits(dmask))
           and continuity_checks(MonotoneMap(L, M, img))["preserves_nonempty_sups"]]
    return sorted(out, key=lambda img: tuple(img[p] for p in order))


def outcome(f, *args):
    try:
        return f(*args)
    except OrderError as exc:
        return type(exc)


def test_continuous_extensions_match_reference():
    # off posets both raise OrderError once some monotone map agrees on D
    quasi = [build_quasi_order(2, [(0, 1), (1, 0)]),
             build_quasi_order(3, [(0, 1), (1, 0), (1, 2)]),
             build_quasi_order(3, [(2, 0), (0, 1), (1, 0)])]
    orders = [q for n in (1, 2, 3) for q in enumerate_posets(n)] + quasi
    checked = 0
    for L in orders:
        for M in orders:
            maps = list(itertools.product(range(M.size), repeat=L.size))
            for dmask in range(1 << L.size):
                for img in maps[::3]:
                    sigma = {d: img[d] for d in bits(dmask)}
                    got = outcome(enumerate_continuous_extensions, L, dmask, sigma, M)
                    if isinstance(got, tuple):
                        got = [m.image for m in got]
                    assert got == outcome(ref_continuous_extensions, L, dmask, sigma, M)
                    checked += 1
    assert checked > 1000


def extension_census_maps():
    """``(L, B, M, census map)`` for every census map of
    ``verify thm-extension-convexity`` with ``--n`` <= 3 and ``--m`` <= 4,
    then for the 2x2 chain product into the 2x2x2 one."""
    for n in range(4):
        for m in range(5):
            L, M = powerset_lattice(n), powerset_lattice(m)
            for mm in census_maps(L, M, convex_range=True):
                yield L, powerset_basis(n), M, mm
    square, cod = chain_product([2, 2]), chain_product([2, 2, 2])
    B = 0b0111  # (0, 0), (1, 0) and (0, 1)
    for mm in census_maps(square, cod, convex_range=True):
        yield square, B, cod, mm


def test_convexity_transfer_matches_the_extension_oracle():
    cases = 0
    for L, B, M, mm in extension_census_maps():
        sig = {b: mm.image[b] for b in bits(B)}
        rep = verify_convexity_transfer(L, B, M.full_mask, M, sig)
        exts = enumerate_continuous_extensions(L, B, sig, M)
        assert rep["extensions_found"] == len(exts) == 1
        assert [e.image for e in exts] == [tuple(rep["extension"])] == [mm.image]
        cases += 1
    assert cases == 208
    # {0} | {1} = {0, 1} in P(2) goes to {0, 1, 2}, not to {0} | {1}; convex
    # ranges inside a sublattice E keep such suprema, so only an E outside
    # the setting (here the range itself) reaches the clause
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    sig = {0: 0, 1: 1, 2: 2, 3: 7}
    with pytest.raises(HypothesisFailed) as err:
        verify_transfer_map(p2, p2.full_mask, 0b10000111, p3, sig)
    assert err.value.hypothesis == "sigma-preserves-sups-in-L"
    assert enumerate_continuous_extensions(p2, p2.full_mask, sig, p3) == ()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_setting_implies_the_clauses_the_map_check_skips(n):
    # verify_transfer_map skips four clauses of _check_sigma_hypotheses:
    # D-join-dense follows from B-basis, M-complete-semilattice and
    # D-meet-subsemilattice repeat setting clauses, and sigma-order-preserving
    # follows from sigma-embedding
    p3 = powerset_lattice(3)
    sigmas = 0
    for L in enumerate_lattices(n):
        bottom = sup(L, 0)
        for bmask in range(1 << n):
            if not bmask >> bottom & 1:
                continue
            if is_basis(L, bmask):
                assert is_join_dense(L, bmask)
            sub, elems = induced_suborder(L, bmask)
            for M in (L, p3):
                try:
                    check_transfer_setting(L, bmask, M.full_mask, M)
                except HypothesisFailed:
                    continue
                for mm in census_maps(sub, M):
                    sigmas += 1
                    try:
                        _check_sigma_hypotheses(L, bmask, dict(zip(elems, mm.image)), M)
                    except HypothesisFailed as exc:
                        assert exc.hypothesis.startswith("sigma-preserves-")
    assert sigmas > 0


def test_extension_identity_when_dense_set_is_everything():
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    mm = census_maps(p2, p3, convex_range=True)[0]
    sig = {d: mm.image[d] for d in range(4)}
    ext = extend_from_join_dense(p2, p2.full_mask, sig, p3)
    assert ext.image == mm.image


def test_extension_recovers_map_from_basis():
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    B = powerset_basis(2)
    for mm in census_maps(p2, p3, convex_range=True):
        sig = {b: mm.image[b] for b in bits(B)}
        ext = extend_from_join_dense(p2, B, sig, p3)
        assert ext.image == mm.image
        exts = enumerate_continuous_extensions(p2, B, sig, p3)
        assert {e.image for e in exts} == {mm.image}


def test_extension_is_embedding_from_strongly_predense_basis():
    # meet-embedding off a strongly interval predense basis extends to an
    # embedding of the whole lattice
    vectors = chain_vectors([2, 2])
    p3 = powerset_lattice(3)
    sig = {vectors.index((0, 0)): 0, vectors.index((1, 0)): 1,
           vectors.index((0, 1)): 2}
    B = sum(1 << b for b in sig)
    ext = extend_from_join_dense(chain_product([2, 2]), B, sig, p3)
    assert ext.is_embedding
    assert ext.image[vectors.index((1, 1))] == 3


def test_extension_lattice_hom_when_meet_preserving_and_jid():
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    B = powerset_basis(2)
    mm = census_maps(p2, p3, convex_range=True)[0]
    sig = {b: mm.image[b] for b in bits(B)}
    ext = extend_from_join_dense(p2, B, sig, p3)
    lv2, lv3 = ref_lattice_view(p2), ref_lattice_view(p3)
    for a in range(4):
        for b in range(4):
            assert ext.image[lv2.meet[a][b]] == lv3.meet[ext.image[a]][ext.image[b]]
            assert ext.image[lv2.join[a][b]] == lv3.join[ext.image[a]][ext.image[b]]


def test_extension_hypothesis_failures_are_named():
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    with pytest.raises(HypothesisFailed) as err:
        extend_from_join_dense(p2, 0b110, {1: 1, 2: 2}, p3)  # no meet closure
    assert err.value.hypothesis == "D-meet-subsemilattice"
    with pytest.raises(HypothesisFailed) as err:
        extend_from_join_dense(p2, 0b11, {0: 0, 1: 1}, p3)  # not join dense
    assert err.value.hypothesis == "D-join-dense"
    with pytest.raises(HypothesisFailed) as err:
        # order reversal on the basis
        extend_from_join_dense(p2, 0b11, {0: 1, 1: 0}, p3)
    assert err.value.hypothesis in ("D-join-dense", "sigma-order-preserving")
    with pytest.raises(HypothesisFailed) as err:
        extend_from_join_dense(p2, powerset_basis(2),
                               {0: 0, 1: 1, 2: 2}, antichain(2))
    assert err.value.hypothesis == "M-complete-semilattice"


def test_extension_uniqueness_needs_bottom():
    # off the positive part alone the bottom image can float
    c2 = chain(2)
    c3 = chain(3)
    sig = {1: 2}
    exts = enumerate_continuous_extensions(c2, 0b10, sig, c3)
    images = {e.image for e in exts}
    assert len(images) > 1                      # 0 may go to 0, 1, or 2
    assert len({img[1] for img in images}) == 1  # but the positive part is pinned


def test_convexity_transfer_powerset():
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    B = powerset_basis(2)
    for mm in census_maps(p2, p3, convex_range=True)[:6]:
        sig = {b: mm.image[b] for b in bits(B)}
        rep = verify_convexity_transfer(p2, B, p3.full_mask, p3, sig)
        assert rep["holds"] and rep["unique"] and rep["convex_range"]
        assert tuple(rep["extension"]) == mm.image


def test_convexity_transfer_chain_product():
    square, cod = chain_product([2, 2]), chain_product([2, 2, 2])
    vectors = chain_vectors([2, 2])
    B = sum(1 << vectors.index(v) for v in ((0, 0), (1, 0), (0, 1)))
    for mm in census_maps(square, cod, convex_range=True)[:4]:
        sig = {b: mm.image[b] for b in bits(B)}
        rep = verify_convexity_transfer(square, B, cod.full_mask, cod, sig)
        assert rep["holds"]
        assert tuple(rep["extension"]) == mm.image


def test_convexity_transfer_rejects_bad_hypotheses():
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    B = powerset_basis(2)
    # E not preregular: bottom, singletons, top of P(3)
    with pytest.raises(HypothesisFailed) as err:
        verify_convexity_transfer(p2, B, 0b10010111, p3,
                                  {0: 0, 1: 1, 2: 2})
    assert err.value.hypothesis == "E-preregular"
    with pytest.raises(HypothesisFailed) as err:
        verify_convexity_transfer(p2, 0b110, p3.full_mask, p3, {1: 1, 2: 2})
    assert err.value.hypothesis == "B-contains-0"


@pytest.mark.parametrize("call", [
    lambda p2, p3, m: extend_from_join_dense(p2, m, {}, p3),
    lambda p2, p3, m: check_transfer_setting(p2, m, p3.full_mask, p3),
    lambda p2, p3, m: check_transfer_setting(p2, p2.full_mask, m << 4, p3),
    lambda p2, p3, m: verify_transfer_map(p2, m, p3.full_mask, p3, {}),
    lambda p2, p3, m: verify_transfer_map(p2, p2.full_mask, m << 4, p3, {}),
    lambda p2, p3, m: verify_convexity_transfer(p2, m, p3.full_mask, p3, {}),
])
def test_transfer_functions_check_their_masks_against_the_carrier(call):
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    with pytest.raises(OrderError, match="mask has bits outside the carrier"):
        call(p2, p3, 0b10001)


@pytest.mark.parametrize("side", ["L", "M"])
def test_transfer_setting_names_a_poset_that_is_not_a_lattice(side):
    # V = {0 < 1, 0 < 2} is a complete semilattice, but 1 and 2 have no join
    vee = build_quasi_order(3, [(0, 1), (0, 2)])
    p1 = powerset_lattice(1)
    L, M = (vee, p1) if side == "L" else (p1, vee)
    with pytest.raises(HypothesisFailed) as err:
        check_transfer_setting(L, L.full_mask, M.full_mask, M)
    assert err.value.hypothesis == f"{side}-lattice"


def test_convexity_transfer_rejects_e_outside_sublattices():
    # bottom and singletons of P(3): join-dense and preregular (no two
    # singletons have an upper bound inside E), but {0} | {1} is missing
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    with pytest.raises(HypothesisFailed) as err:
        verify_convexity_transfer(p2, powerset_basis(2), 0b10111, p3,
                                  {0: 0, 1: 1, 2: 2})
    assert err.value.hypothesis == "E-sublattice"


def test_convexity_transfer_rejects_range_not_convex_in_e():
    # 0 -> {}, {0} -> {0}, {1} -> {1, 2}: an embedding of the basis whose
    # range misses {1} and {2} inside the interval [{}, {1, 2}]
    p2, p3 = powerset_lattice(2), powerset_lattice(3)
    with pytest.raises(HypothesisFailed) as err:
        verify_convexity_transfer(p2, powerset_basis(2), p3.full_mask, p3,
                                  {0: 0, 1: 1, 2: 6})
    assert err.value.hypothesis == "sigma-convex-in-E"


def test_extension_uniqueness_sweep():
    # every valid partial map off a join-dense meet-closed subset of a small
    # lattice has all its continuous extensions agree off the minimals
    import itertools

    from latkit.lattice import is_join_dense, is_meet_closed
    from latkit.order import positive_part

    lats = [q for n in (2, 3, 4) for q in enumerate_lattices(n)]
    targets = [m for m in lats if classify(m)["complete_semilattice"]]
    cases = 0
    for L in lats:
        dense_sets = [d for d in range(1 << L.size)
                      if is_join_dense(L, d) and is_meet_closed(L, d)]
        pos = positive_part(L)
        for dmask in dense_sets:
            delems = list(bits(dmask))
            for M in targets:
                for values in itertools.product(range(M.size),
                                                repeat=len(delems)):
                    sig = dict(zip(delems, values))
                    if not all(M.le(sig[a], sig[b])
                               for a in delems for b in delems
                               if L.le(a, b)):
                        continue
                    try:
                        ext = extend_from_join_dense(L, dmask, sig, M)
                    except HypothesisFailed:
                        continue
                    cases += 1
                    exts = enumerate_continuous_extensions(L, dmask, sig, M)
                    images = {e.image for e in exts}
                    assert ext.image in images
                    assert len({tuple(img[p] for p in bits(pos))
                                for img in images}) == 1
    assert cases == 397
