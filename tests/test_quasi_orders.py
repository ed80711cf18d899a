"""Properties stated at quasi-order generality: quotients, atoms, and the
transitivity of preregularity; and the mask representation of orders and
the tuple tables of monoids against the numpy code they replaced.

The ``ref_*`` functions are that numpy code: a relation as a boolean
matrix, closed by matrix products, with the axioms checked on the matrix.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latkit.builders import enumerate_posets
from latkit.embedding import atom_image_check, enumerate_monotone_maps
from latkit.lattice import is_preregular, sup_in_subset
from latkit.monoid import FiniteMonoid, MonoidError, associated_order
from latkit.order import (
    MonotoneMap,
    OrderError,
    asym_quotient,
    atoms,
    bits,
    build_quasi_order,
    induced_suborder,
    sup,
)
from latkit.topology import enumerate_topologies
from oracles import is_order_reflecting, order_from_relation, ref_relative_atoms


def all_quasi_orders(n):
    """Every reflexive-transitive relation on ``range(n)``, labeled."""
    out = []
    for flags in itertools.product((False, True), repeat=n * n - n):
        mat = np.eye(n, dtype=bool)
        it = iter(flags)
        for i in range(n):
            for j in range(n):
                if i != j:
                    mat[i, j] = next(it)
        if (np.matmul(mat, mat) & ~mat).any():
            continue
        out.append(mat)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quasi_order_count_matches_alexandrov_topologies(n):
    # labeled preorders correspond to labeled topologies on the same points
    assert len(all_quasi_orders(n)) == len(enumerate_topologies(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quotient_map_is_an_embedding(n):
    for mat in all_quasi_orders(n):
        q = order_from_relation(mat)
        poset, classes = asym_quotient(q)
        mm = MonotoneMap(q, poset, classes)
        assert mm.is_embedding


@pytest.mark.parametrize("n", [1, 2, 3])
def test_order_reflection_matches_the_pairwise_definition(n):
    """Every monotone map from an ``n``-point quasi order into one of at
    most three points; a map that merges equivalent points can reflect."""
    doms = [order_from_relation(mat) for mat in all_quasi_orders(n)]
    cods = [order_from_relation(mat) for k in (1, 2, 3) for mat in all_quasi_orders(k)]
    merged = 0
    for p in doms:
        for q in cods:
            for img in enumerate_monotone_maps(p, q):
                mm = MonotoneMap(p, q, img)
                assert mm.is_embedding == is_order_reflecting(mm)
                merged += mm.is_embedding and len(set(img)) < n
    assert merged > 0 or n == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quotient_atoms_are_classes_of_atoms(n):
    for mat in all_quasi_orders(n):
        q = order_from_relation(mat)
        poset, classes = asym_quotient(q)
        quotient_atoms = atoms(poset)
        class_images = 0
        for a in bits(atoms(q)):
            class_images |= 1 << classes[a]
        assert class_images == quotient_atoms
        # and the quotient map respects the relative-atom law
        mm = MonotoneMap(q, poset, classes)
        assert atom_image_check(mm)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_preregularity_is_transitive(n):
    # A preregular in P and B preregular inside (A, <=) make B preregular in P
    for q in enumerate_posets(n):
        for amask in range(1 << n):
            if not is_preregular(q, amask):
                continue
            sub, elems = induced_suborder(q, amask)
            back = {i: e for i, e in enumerate(elems)}
            for bsub in range(1 << sub.size):
                if not is_preregular(sub, bsub):
                    continue
                bmask = 0
                for i in bits(bsub):
                    bmask |= 1 << back[i]
                assert is_preregular(q, bmask), (n, amask, bmask)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_inner_sup_agrees_when_ambient_sup_lands_inside(n):
    for q in enumerate_posets(n):
        for amask in range(1 << n):
            bmask = amask
            while bmask:
                s = sup(q, bmask)
                if s is not None and (amask >> s) & 1:
                    assert sup_in_subset(q, amask, bmask) == s
                bmask = (bmask - 1) & amask


def test_relative_atoms_of_full_carrier():
    for q in enumerate_posets(4):
        assert atoms(q, q.full_mask) == atoms(q)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_atoms_of_a_subset_are_those_of_its_induced_suborder(n):
    # every subset of every poset of n elements, and of every labeled quasi
    # order on n <= 4 points
    orders = enumerate_posets(n)
    if n <= 4:
        orders += [order_from_relation(mat) for mat in all_quasi_orders(n)]
    for q in orders:
        for amask in range(1 << n):
            assert atoms(q, amask) == ref_relative_atoms(q, amask), \
                (q.up_masks, amask)


# ---------------------------------------------------------------------------
# the numpy representation, as the reference


def ref_check(mat):
    """The axioms as the old ``QuasiOrder`` checked them on ``leq``."""
    n = mat.shape[0]
    if not mat[np.diag_indices(n)].all():
        raise OrderError("relation is not reflexive")
    if (np.matmul(mat, mat) & ~mat).any():
        raise OrderError("relation is not transitive")
    return mat


def ref_order_from_relation(rel):
    mat = np.array(rel, dtype=bool)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise OrderError(f"relation must be square, got shape {mat.shape}")
    return ref_check(mat.copy())


def ref_build_quasi_order(size, pairs):
    rel = np.eye(size, dtype=bool)
    for a, b in pairs:
        if not (0 <= a < size and 0 <= b < size):
            raise OrderError(f"pair {(a, b)!r} is not two integers in range({size})")
        rel[a, b] = True
    while True:
        closed = rel | np.matmul(rel, rel)
        if np.array_equal(closed, rel):
            break
        rel = closed
    return ref_check(rel)


def ref_row_masks(mat):
    """Row ``p`` of a boolean matrix as the int with bit ``q`` = ``mat[p, q]``."""
    return tuple(int.from_bytes(row.tobytes(), "little")
                 for row in np.packbits(mat, axis=1, bitorder="little"))


def ref_is_poset(mat):
    return int((mat & mat.T).sum()) == mat.shape[0]


def ref_monoid(table, identity):
    """The old ``FiniteMonoid`` checks; returns the table as an array."""
    t = np.array(table, dtype=int)
    n = t.shape[0]
    if t.ndim != 2 or t.shape != (n, n) or n == 0:
        raise MonoidError(f"table must be square and nonempty, got {t.shape}")
    if (t < 0).any() or (t >= n).any():
        raise MonoidError("table entries out of range")
    if not (np.array_equal(t[identity], np.arange(n))
            and np.array_equal(t[:, identity], np.arange(n))):
        raise MonoidError("identity law fails")
    if not np.array_equal(t[t, :], t[:, t]):
        raise MonoidError("operation is not associative")
    return t


def ref_monoid_facts(t, identity):
    n = t.shape[0]
    rel = np.zeros((n, n), dtype=bool)
    for x in range(n):
        rel[x, t[x]] = True
    return {
        "commutative": bool(np.array_equal(t, t.T)),
        "cancellative": all(len(set(t[a])) == n and len(set(t[:, a])) == n
                            for a in range(n)),
        "invertibles": tuple(a for a in range(n) if any(
            t[a, b] == identity and t[b, a] == identity for b in range(n))),
        "order": ref_row_masks(ref_check(rel)),
    }


def monoid_facts(m):
    return {"commutative": m.is_commutative, "cancellative": m.is_cancellative,
            "invertibles": m.invertibles,
            "order": associated_order(m).up_masks}


def outcome(fn, *args):
    """``fn(*args)``, or the class and message of the error it raised."""
    try:
        return fn(*args)
    except (OrderError, MonoidError, IndexError) as exc:
        return type(exc), str(exc)


def order_facts(q):
    """Everything derived from the stored masks, in matrix-free form."""
    n = q.size
    return (q.up_masks, q.down_masks, q.dual.up_masks, q.is_poset,
            tuple(q.le(a, b) for a in range(n) for b in range(n)),
            tuple(q.lt(a, b) for a in range(n) for b in range(n)))


def ref_order_facts(mat):
    strict = mat & ~mat.T
    return (ref_row_masks(mat), ref_row_masks(mat.T), ref_row_masks(mat.T),
            ref_is_poset(mat), tuple(bool(v) for v in mat.flat),
            tuple(bool(v) for v in strict.flat))


def check_against_reference(mat):
    n = mat.shape[0]
    want = outcome(lambda: ref_order_facts(ref_order_from_relation(mat)))
    # an array and nested lists are read alike
    for rel in (mat, mat.tolist()):
        assert outcome(lambda: order_facts(order_from_relation(rel))) == want, \
            mat.tolist()
    # the closure of the same pairs is a quasi order on both sides
    pairs = [(a, b) for a in range(n) for b in range(n) if mat[a, b]]
    assert order_facts(build_quasi_order(n, pairs)) == \
        ref_order_facts(ref_build_quasi_order(n, pairs))


def bool_matrices(n):
    for flags in itertools.product((False, True), repeat=n * n):
        yield np.array(flags, dtype=bool).reshape(n, n)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_masks_match_numpy_reference_on_every_small_matrix(n):
    for mat in bool_matrices(n):
        check_against_reference(mat)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n)
    .map(lambda flags: np.array(flags, dtype=bool).reshape(n, n))))
def test_masks_match_numpy_reference_on_drawn_matrices(mat):
    check_against_reference(mat)
    # a drawn matrix is rarely reflexive and transitive: its closure is
    closure = ref_build_quasi_order(mat.shape[0], zip(*np.nonzero(mat)))
    check_against_reference(closure)
    if mat.shape[0]:
        broken = closure.copy()
        broken[0, 0] = False
        check_against_reference(broken)


def test_relation_shape_errors_match_reference():
    for rel in ([True, False], [[True, False]], np.ones((2, 2, 2), dtype=bool)):
        with pytest.raises(OrderError):
            order_from_relation(rel)
        with pytest.raises(OrderError):
            ref_order_from_relation(rel)
    with pytest.raises(OrderError):  # numpy refuses ragged rows with ValueError
        order_from_relation([[True], [True, True]])


def test_build_index_errors_match_reference():
    for size, pairs in ((2, [(0, 5)]), (3, [(0, 1), (-1, 2)]), (0, [(0, 0)])):
        assert outcome(build_quasi_order, size, pairs) == \
            outcome(ref_build_quasi_order, size, pairs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monoid_verdicts_match_numpy_reference(n):
    accepted = 0
    for values in itertools.product(range(n), repeat=n * n):
        table = [list(values[r * n:(r + 1) * n]) for r in range(n)]
        for e in range(n):
            got = outcome(lambda: monoid_facts(FiniteMonoid(table, e)))
            want = outcome(lambda: ref_monoid_facts(ref_monoid(table, e), e))
            assert got == want, (table, e)
            accepted += isinstance(want, dict)
    assert accepted > 0


def ref_canonical_key(mat):
    """The canonical key computed on the relation matrix."""
    n = mat.shape[0]
    rel = mat.tolist()
    profile = [(sum(rel[r][p] for r in range(n)), sum(rel[p])) for p in range(n)]
    groups = {}
    for p in range(n):
        groups.setdefault(profile[p], []).append(p)
    best = None
    for parts in itertools.product(
            *(itertools.permutations(groups[k]) for k in sorted(groups))):
        perm = [p for part in parts for p in part]
        enc = b"".join(
            sum(1 << bit for bit, j in enumerate(perm) if rel[i][j])
            .to_bytes((n + 7) // 8, "little") for i in perm)
        if best is None or enc < best:
            best = enc
    return bytes([n]) + best


def ref_lower_sets(mat):
    n = mat.shape[0]
    downs = ref_row_masks(mat.T)
    return [m for m in range(1 << n) if all(downs[p] & ~m == 0 for p in bits(m))]


def ref_decode(key):
    """The relation matrix a key encodes: bit ``b`` of row ``r`` says
    ``r <= b``, rows little-endian in ``(n + 7) // 8`` bytes."""
    n = key[0]
    rows = np.frombuffer(key[1:], dtype=np.uint8).reshape(n, (n + 7) // 8)
    return np.unpackbits(rows, axis=1, bitorder="little")[:, :n].astype(bool)


def ref_enumerate_posets(n):
    """The level-by-level generation on matrices, each class the matrix its
    key decodes to."""
    level = [np.ones((1, 1), dtype=bool)]
    for k in range(1, n):
        keys = set()
        for q in level:
            for low in ref_lower_sets(q):
                rel = np.zeros((k + 1, k + 1), dtype=bool)
                rel[:k, :k] = q
                rel[k, k] = True
                for p in bits(low):
                    rel[p, k] = True
                keys.add(ref_canonical_key(ref_check(rel)))
        level = [ref_decode(key) for key in sorted(keys)]
    return level


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerate_posets_matches_numpy_reference(n):
    got = enumerate_posets(n)
    want = ref_enumerate_posets(n)
    assert len(got) == len(want)
    for q, mat in zip(got, want):
        assert q.up_masks == ref_row_masks(mat)
