"""Commutative monoids and their associated orders.

Two carriers: :class:`FiniteMonoid` (an explicit Cayley table) and
:class:`VectorMonoid` (nonnegative integer vectors under coordinatewise
addition, the stand-in for infinite pointed monoids at desk scale).  The
associated quasi order is ``x <= y`` iff ``x + a = y`` for some ``a``.

Each law sees a carrier only through its addition, suprema and infima,
and starts with one carrier check that fixes where the instances come
from: every triple (or subset) of a table, or for ``N^I``, with any index
set ``I``, every instance of the scalar grid ``0..SAMPLE_BOUND`` on ``N``,
which decides the law exactly.  Any other carrier is refused.  Laws that
quantify over the same instances share one pass over them: the join and
meet forms of a distributive law read one stream per arity.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from typing import Optional

from .order import QuasiOrder, _Frozen, _Value, _count, _is_index, bits
from .lattice import is_lattice, set_distributivity_failure

__all__ = [
    "MonoidError",
    "NotCancellativeError",
    "FiniteMonoid",
    "VectorMonoid",
    "VectorGroupCompletion",
    "associated_order",
    "monoid_class",
    "group_completion",
    "vector_group_completion",
    "check_distributivity",
    "check_distributive_laws",
    "check_disjoint_sum_laws",
    "closed_under_subtraction",
    "truncated_addition_monoid",
    "cyclic_group",
    "enumerate_commutative_monoids",
]

DISTRIBUTIVITY_MODES = ("plus_join", "plus_meet", "plus_join_inf", "plus_meet_inf")
# the scalar grid on N that decides the laws on N^I for every index set I:
# values 0..SAMPLE_BOUND, and sets B of 1..MAX_SAMPLED_SET_SIZE of them for
# the set laws
SAMPLE_BOUND = 8
MAX_SAMPLED_SET_SIZE = 4


class MonoidError(ValueError):
    """A table or argument violates a monoid-theoretic contract."""


class NotCancellativeError(MonoidError):
    """Raised when a construction requires cancellativity and it fails."""


def _is_associative(t: tuple) -> bool:
    """Whether the square tuple of rows ``t`` is associative: row ``a.b``
    equals ``a.`` applied to row ``b``, for all ``a, b``."""
    return all(t[ta[b]] == tuple(map(ta.__getitem__, t[b]))
               for ta in t for b in range(len(t)))


class FiniteMonoid(_Frozen):
    """A monoid on ``range(size)`` given by its Cayley table: ``table[a][b]``
    is ``a + b``, stored as a tuple of rows."""

    def __init__(self, table, identity: int):
        if not (isinstance(table, (list, tuple)) and table and all(
                isinstance(row, (list, tuple)) and len(row) == len(table)
                for row in table)):
            raise MonoidError("table must be a nonempty square list of rows")
        n = len(table)
        if not all(_is_index(v, n) for row in table for v in row):
            raise MonoidError(f"table entries must be integers in range({n})")
        if not _is_index(identity, n):
            raise MonoidError(f"identity must be an integer in range({n}), "
                              f"got {identity!r}")
        t = tuple(map(tuple, table))
        elements = tuple(range(n))
        if t[identity] != elements or tuple(row[identity] for row in t) != elements:
            raise MonoidError("identity law fails")
        if not _is_associative(t):
            raise MonoidError("operation is not associative")
        fields = self.__dict__
        fields["table"] = t
        fields["identity"] = identity

    @property
    def size(self) -> int:
        return len(self.table)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def is_commutative(self) -> bool:
        return tuple(zip(*self.table)) == self.table

    @cached_property
    def is_cancellative(self) -> bool:
        n = self.size
        return all(len(set(row)) == n for row in self.table) and all(
            len(set(col)) == n for col in zip(*self.table))

    @cached_property
    def invertibles(self) -> tuple:
        e, t = self.identity, self.table
        return tuple(
            a for a in range(self.size)
            if any(t[a][b] == e and t[b][a] == e for b in range(self.size))
        )

    def right_quotient(self, a: int, b: int):
        """The ``c`` with ``c + b = a``: ``(solution, multiplicity)`` where the
        solution is ``None`` unless exactly one exists."""
        sols = [c for c in range(self.size) if self.table[c][b] == a]
        return (sols[0] if len(sols) == 1 else None), len(sols)

    def __repr__(self):
        return f"FiniteMonoid(size={self.size})"


def associated_order(m: FiniteMonoid) -> QuasiOrder:
    """``x <= y`` iff ``x + a = y`` for some ``a``; always a quasi order."""
    up = []
    for row in m.table:
        mask = 0
        for y in row:
            mask |= 1 << y
        up.append(mask)
    return QuasiOrder(tuple(up))


def monoid_class(m) -> dict:
    """Order-theoretic classification of a monoid.

    Vector monoids are classified intensionally: the associated order is
    the coordinatewise product order, with max/min as join/meet, addition
    is cancellative, and only the zero vector is invertible.
    """
    if isinstance(m, VectorMonoid):
        return {
            "poset_monoid": True,
            "semilattice_monoid": True,
            "lattice_monoid": True,
            "cancellative": True,
            "invertibles": (m.zero(),),
        }
    q = associated_order(m)
    # the identity is the least element, and a finite join-semilattice with
    # a least element is a lattice: the meet of a and b is the join of their
    # lower bounds, a nonempty set; so both flags are the lattice test
    lattice = q.is_poset and is_lattice(q)
    return {
        "poset_monoid": q.is_poset,
        "semilattice_monoid": lattice,
        "lattice_monoid": lattice,
        "cancellative": m.is_cancellative,
        "invertibles": m.invertibles,
    }


# ---------------------------------------------------------------------------
# group completion


def group_completion(m: FiniteMonoid) -> FiniteMonoid:
    """Embed a cancellative commutative monoid into an abelian group.

    A finite cancellative monoid is a group: each translation
    ``x -> a + x`` is injective on a finite set, hence onto, so some ``x``
    has ``a + x = e``.  So ``m`` is returned as its own completion, embedded
    by the identity (the class of ``(a, e)`` is ``a``); a table that is
    cancellative but not a group raises :class:`RuntimeError`.
    """
    if not m.is_commutative:
        raise MonoidError("group completion requires commutativity")
    if not m.is_cancellative:
        raise NotCancellativeError("monoid is not cancellative")
    if len(m.invertibles) != m.size:
        raise RuntimeError("a finite cancellative monoid failed to be a group")
    return m


# ---------------------------------------------------------------------------
# vector monoids (N^I, intensionally)

_plus = operator.add


class VectorMonoid(_Value):
    """Nonnegative integer vectors of a fixed length under addition.

    The associated order is the coordinatewise product order; joins and
    meets are coordinatewise max and min, so all finite suprema and infima
    exist (a complete semilattice in every bounded region).
    """

    def __init__(self, dim: int):
        self.__dict__["dim"] = _count(dim, "dim", error=MonoidError)

    def _key(self) -> tuple:
        return (self.dim,)

    def zero(self) -> tuple:
        return (0,) * self.dim

    def add(self, x, y) -> tuple:
        return tuple(map(_plus, x, y))

    def sub(self, x, y) -> Optional[tuple]:
        out = tuple(a - b for a, b in zip(x, y))
        return out if all(v >= 0 for v in out) else None

    def leq(self, x, y) -> bool:
        return all(a <= b for a, b in zip(x, y))

    def sup_of(self, vectors) -> tuple:
        if not isinstance(vectors, (list, tuple)):
            vectors = tuple(vectors)
        return tuple(map(max, zip(*vectors))) if vectors else self.zero()

    def inf_of(self, vectors) -> Optional[tuple]:
        if not isinstance(vectors, (list, tuple)):
            vectors = tuple(vectors)
        if not vectors:
            return None  # no maximum element
        return tuple(map(min, zip(*vectors)))


class VectorGroupCompletion(_Value):
    """Integer-vector group receiving ``VectorMonoid`` by inclusion.

    A pair class ``[a, b]`` is the difference vector ``a - b``; the
    canonical pair representative splits it into positive and negative
    parts, which have disjoint supports.
    """

    def __init__(self, dim: int):
        self.__dict__["dim"] = _count(dim, "dim", error=MonoidError)

    def _key(self) -> tuple:
        return (self.dim,)

    def class_of(self, a, b) -> tuple:
        return tuple(x - y for x, y in zip(a, b))

    def canonical_pair(self, z) -> tuple:
        pos = tuple(max(v, 0) for v in z)
        neg = tuple(max(-v, 0) for v in z)
        return pos, neg


def vector_group_completion(m: VectorMonoid) -> VectorGroupCompletion:
    return VectorGroupCompletion(m.dim)


# ---------------------------------------------------------------------------
# distributive laws


def _least_upper_bound(q: QuasiOrder):
    """The supremum in the poset ``q`` of a sequence of elements, or
    ``None``: the AND of their up-masks is the up-set of their upper
    bounds, so the bound is one ``up_index`` lookup."""
    up, full, least = q.up_masks, q.full_mask, q.up_index

    def bound(elements):
        ub = full
        for a in elements:
            ub &= up[a]
        return least.get(ub)
    return bound


def _laws(m, what: str):
    """The one carrier check of every law, and the carrier's arithmetic:
    ``(q, add, sup_of, inf_of)``, where the bounds take a sequence of
    elements and give ``None`` where the bound does not exist.

    - A :class:`FiniteMonoid` is checked on its own table: ``q`` is its
      associated order, which must be a poset, and each bound is one
      lookup in ``q``.
    - Exactly :class:`VectorMonoid` gives ``q = None`` and the operations
      of ``VectorMonoid(1)``: the scalar grid on ``N`` decides the laws on
      ``N^I`` for every index set ``I`` (see :func:`check_distributive_laws`).
    - Any other carrier is refused with :class:`MonoidError`: a subclass
      may redefine the operations, and the grid decides only these."""
    if isinstance(m, FiniteMonoid):
        q = associated_order(m)
        if not q.is_poset:
            raise MonoidError(f"{what} checks need a poset monoid")
        return q, m.op, _least_upper_bound(q), _least_upper_bound(q.dual)
    if type(m) is not VectorMonoid:
        raise MonoidError(f"{what} checks take a FiniteMonoid or exactly a "
                          f"VectorMonoid, got {type(m).__name__}: the scalar "
                          "grid decides only VectorMonoid")
    scalar = VectorMonoid(1)
    return None, scalar.add, scalar.sup_of, scalar.inf_of


def _plain(x):
    """A carrier element as JSON: a vector as a list, an index as is."""
    return list(x) if isinstance(x, tuple) else x


def _on_grid(reports) -> None:
    """Refuse a failing instance of the grid ``reports`` of a run on
    ``N^I``: every law holds on ``N``, so the vector arithmetic is wrong."""
    for report in reports:
        if not report["holds"]:
            law = report.get("mode") or report["witness"]["law"]
            raise RuntimeError(f"{law} fails on N at {report['witness']}, "
                               "though it holds there: the vector "
                               "arithmetic is wrong")


def _scalar_range() -> list:
    """The grid values ``0..SAMPLE_BOUND``, as vectors of ``N^1``."""
    return [(v,) for v in range(SAMPLE_BOUND + 1)]


def _scalar_sets() -> list:
    """Every pair ``(a, B)`` of a :func:`_scalar_range` value and a set of
    1..MAX_SAMPLED_SET_SIZE distinct ones: 9 * 255 = 2,295 of them."""
    values = _scalar_range()
    return [(a, B) for a in values for k in range(1, MAX_SAMPLED_SET_SIZE + 1)
            for B in itertools.combinations(values, k)]


def _triples(m, q) -> itertools.product:
    """Every triple of the table ``m``, or with ``q = None`` of the scalar
    grid: 729 of them."""
    return itertools.product(_scalar_range() if q is None else range(m.size),
                             repeat=3)


def check_distributive_laws(m, modes=DISTRIBUTIVITY_MODES) -> dict:
    """Verify distributive laws of addition over join or meet:
    ``{mode: report}`` in the order of ``modes``.

    ``plus_join``/``plus_meet`` are the binary laws (over triples);
    ``plus_join_inf``/``plus_meet_inf`` quantify over finite sets ``B``,
    asserting ``a + vB = v(a + B)`` for every nonempty ``B`` whose bound
    exists.  On a finite monoid the instances are every triple for the
    binary laws, and for the set laws every nonempty subset, decided by
    :func:`~latkit.lattice.set_distributivity_failure`, which also fixes
    ``checked`` and the witness.

    On ``N^I`` (exactly :class:`VectorMonoid`) the scalar grid decides
    every mode for every index set ``I``, finite or not: the same pass
    runs on ``N`` over every triple of the grid for the binary laws and
    every pair of :func:`_scalar_sets` for the set laws.  That is exact:

    - ``+``, ``v``, ``^`` and ``= 0`` act per coordinate, so a law fails on
      an instance of ``N^I`` iff it fails on one of its coordinates, an
      instance of ``N``; padded with zeros, a failing instance of ``N``
      fails on ``N^I``.
    - On ``N``, ``a + .`` is monotone, so it commutes with max and min and
      every law holds; which ``b`` each bound picks, and whether ``a`` is
      zero, depend only on how ``a`` and the ``b`` compare, and every such
      case occurs on ``{0..|B|+1}``, inside ``{0..SAMPLE_BOUND}`` since
      ``|B| <= MAX_SAMPLED_SET_SIZE``.  A bound of a tuple depends only on
      the set of its values, so sets of distinct values stand for tuples.

    So a failing grid instance means the vector arithmetic is wrong, and
    raises :class:`RuntimeError`.  ``checked`` counts the instances the
    pass visited: 729 triples, or 2,295 set pairs, on ``N^I``.

    The join and meet forms of a law read the same instances, so they share
    one pass per stream and ``a + B`` is computed once per instance.  A mode
    stops at its first witness, which fixes its ``checked``, while the
    other carries on; the pass ends when every mode has failed or the
    instances run out.
    """
    q, add, sup_of, inf_of = _laws(m, "distributivity")
    for mode in modes:
        if mode not in DISTRIBUTIVITY_MODES:
            raise MonoidError(f"unknown mode {mode!r}")
    reports = {mode: {"mode": mode, "holds": True, "witness": None,
                      "checked": 0} for mode in modes}

    def failure(bound_of, a, B, sums) -> Optional[dict]:
        bound = bound_of(B)
        if bound is None:
            return None
        lhs = add(a, bound)
        rhs = bound_of(sums)
        if rhs == lhs:
            return None
        return {"a": _plain(a), "B": [_plain(b) for b in B],
                "lhs": _plain(lhs), "rhs": _plain(rhs)}

    def bound_for(mode):
        return inf_of if mode.startswith("plus_meet") else sup_of

    def run(stream, group):
        live = [(reports[mode], bound_for(mode)) for mode in group]
        for a, B in stream:
            sums = [add(a, b) for b in B]
            failed = False
            for report, bound in live:
                report["checked"] += 1
                witness = failure(bound, a, B, sums)
                if witness is not None:
                    report["holds"] = False
                    report["witness"] = witness
                    failed = True
            if failed:
                live = [entry for entry in live if entry[0]["holds"]]
                if not live:
                    break

    binary = [mode for mode in reports if not mode.endswith("_inf")]
    sets = [mode for mode in reports if mode.endswith("_inf")]
    if binary:
        run(((a, (b, c)) for a, b, c in _triples(m, q)), binary)
    if q is None:
        if sets:
            run(_scalar_sets(), sets)
        _on_grid(reports.values())
        return reports
    for mode in sets:
        report = reports[mode]
        report["checked"], hit = set_distributivity_failure(
            q.dual if mode.startswith("plus_meet") else q, m.op)
        if hit is not None:
            a, B = hit[0], tuple(bits(hit[1]))
            report["holds"] = False
            report["witness"] = failure(
                bound_for(mode), a, B, [add(a, b) for b in B])
    return reports


def check_distributivity(m, mode: str) -> dict:
    """The report of one mode of :func:`check_distributive_laws`."""
    return check_distributive_laws(m, (mode,))[mode]


def check_disjoint_sum_laws(m) -> dict:
    """Verify the two disjointness laws on triples ``(a, b, c)``:
    ``a ^ b = 0`` forces ``a v b = a + b``, and ``a ^ c = b ^ c = 0`` forces
    ``(a + b) ^ c = 0``, over every triple of a finite monoid.

    On ``N^I`` (exactly :class:`VectorMonoid`) the 729 triples of the
    scalar grid on ``N`` decide both laws, as in
    :func:`check_distributive_laws`: ``+``, ``v``, ``^`` and ``= 0`` act
    per coordinate, so each law's hypothesis holds on a vector triple iff
    it holds on every coordinate, and its conclusion fails iff it fails on
    some coordinate, which is then a failing triple of ``N``.  On ``N``,
    ``a ^ b = 0`` means ``a`` or ``b`` is 0, so both laws hold and every
    case occurs on ``{0..2}``.  A failing grid triple raises
    :class:`RuntimeError`."""
    q, add, sup_of, inf_of = _laws(m, "disjoint-sum")
    # 0 is the identity, which lies below every element of the associated
    # order (0 + y = y), so it is the supremum of the empty set
    zero = sup_of(())
    report = {"holds": True, "witness": None, "checked": 0}
    for a, b, c in _triples(m, q):
        report["checked"] += 1
        if inf_of((a, b)) == zero and sup_of((a, b)) != add(a, b):
            witness = {"law": "sum_is_join", "a": _plain(a), "b": _plain(b)}
        elif (inf_of((a, c)) == zero and inf_of((b, c)) == zero
                and inf_of((add(a, b), c)) != zero):
            witness = {"law": "sum_stays_disjoint",
                       "a": _plain(a), "b": _plain(b), "c": _plain(c)}
        else:
            continue
        report["holds"] = False
        report["witness"] = witness
        break
    if q is None:
        _on_grid([report])
    return report


def closed_under_subtraction(m: FiniteMonoid, S) -> bool:
    """Whenever ``a, b`` lie in ``S`` and ``a - b`` exists (exactly one
    ``c`` has ``c + b = a``), it lies in ``S``.  ``m`` is a table and ``S``
    a set, list or tuple of its elements, else :class:`MonoidError`; the
    scan is exact."""
    if not isinstance(m, FiniteMonoid):
        raise MonoidError("closed_under_subtraction takes a FiniteMonoid, "
                          f"got {type(m).__name__}")
    if not (isinstance(S, (set, frozenset, list, tuple))
            and all(_is_index(x, m.size) for x in S)):
        raise MonoidError(f"S must be a set of elements in range({m.size})")
    members = set(S)
    for a in members:
        for b in members:
            c, _ = m.right_quotient(a, b)
            if c is not None and c not in members:
                return False
    return True


# ---------------------------------------------------------------------------
# stock examples and sweeps


def _size(n) -> int:
    """``n`` as the size of a monoid's carrier, or :class:`MonoidError`."""
    return _count(n, "a monoid has at least one element, so n", 1, MonoidError)


def truncated_addition_monoid(n: int) -> FiniteMonoid:
    """``{0..n-1}`` with ``a + b`` capped at ``n - 1``."""
    n = _size(n)
    table = [[min(a + b, n - 1) for b in range(n)] for a in range(n)]
    return FiniteMonoid(table, 0)


def cyclic_group(n: int) -> FiniteMonoid:
    n = _size(n)
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteMonoid(table, 0)


def enumerate_commutative_monoids(n: int):
    """All commutative monoid tables on ``range(n)`` with identity 0, in the
    order of ``itertools.product`` over the cells ``a <= b`` of rows 1..n-1.

    Each candidate is commutative with identity 0 by construction, so only
    associativity can fail, and only on triples of nonzero elements.  The
    cells are assigned in that order, each value in ascending order, and a
    prefix is dropped as soon as a triple whose four cells ``xy``, ``yz``,
    ``(xy)z`` and ``x(yz)`` are all set fails: every completion of it would
    fail there too.  So the leaves are the associative candidates in the
    order the product gives them.  The constructor re-validates each."""
    n = _size(n)
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    table = [list(range(n))] + [[a] + [None] * (n - 1) for a in range(1, n)]
    triples = list(itertools.product(range(1, n), repeat=3))
    out = []

    def consistent() -> bool:
        for x, y, z in triples:
            xy, yz = table[x][y], table[y][z]
            if xy is None or yz is None:
                continue
            left, right = table[xy][z], table[x][yz]
            if left is not None and right is not None and left != right:
                return False
        return True

    def fill(k: int) -> None:
        if k == len(cells):
            out.append(FiniteMonoid(table, 0))
            return
        a, b = cells[k]
        for v in range(n):
            table[a][b] = table[b][a] = v
            if consistent():
                fill(k + 1)
        table[a][b] = table[b][a] = None

    fill(0)
    return out
