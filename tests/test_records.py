"""The record classes: construction by position and by keyword, the
constructor checks, immutability, equality, and fields preset by
``_unchecked``."""

import pytest

from latkit.builders import chain, chain_product
from latkit.cli import RunConfig, Verifier
from latkit.monoid import (
    FiniteMonoid,
    MonoidError,
    VectorGroupCompletion,
    VectorMonoid,
)
from latkit.order import MonotoneMap, OrderError, QuasiOrder, _unchecked
from latkit.topology import CategoryAlgebra, ROAlgebra

C2, C3 = chain(2), chain(3)

# each record class with the fields of one instance, in signature order;
# the classes whose value compares and hashes by its fields come first
VALUES = {
    VectorMonoid: {"dim": 2},
    VectorGroupCompletion: {"dim": 2},
    Verifier: {"slug": "s", "description": "d", "run": len, "reads": ("x",)},
}
IDENTITIES = {
    QuasiOrder: {"up_masks": (7, 6, 4)},
    MonotoneMap: {"dom": C2, "cod": C3, "image": (0, 2)},
    FiniteMonoid: {"table": ((0, 1), (1, 0)), "identity": 0},
    ROAlgebra: {"members": (0, 2, 3), "order": C3},
    CategoryAlgebra: {"order": C2, "reps": (0, 3), "classes": {}, "ro_iso": {}},
}
FROZEN = {**VALUES, **IDENTITIES}
RECORDS = {**FROZEN, RunConfig: {"command": "check", "name": "x", "inputs": (),
                                 "output_format": "json", "options": {"seed": 1}}}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_construction_equality_and_immutability(cls):
    fields = RECORDS[cls]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for obj in (by_position, by_keyword):
        assert {name: getattr(obj, name) for name in fields} == fields
    if cls in VALUES:
        assert by_position == by_keyword
        assert hash(by_position) == hash(by_keyword)
        assert by_position != type("Sub", (cls,), {})(**fields)
    else:
        assert by_position == by_position and by_position != by_keyword
    if cls not in FROZEN:
        return
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
        assert getattr(by_position, name) == value
    with pytest.raises(AttributeError):
        by_position.extra = 1


@pytest.mark.parametrize("build, error", [
    (lambda: QuasiOrder((0b011, 0b110, 0b100)), OrderError),  # not transitive
    (lambda: QuasiOrder((0b10, 0b10)), OrderError),  # not reflexive
    (lambda: MonotoneMap(C2, C3, (2, 0)), OrderError),  # not monotone
    (lambda: MonotoneMap(C2, C3, (0,)), OrderError),  # wrong length
    (lambda: QuasiOrder((0b01, 0b110)), OrderError),  # a bit outside the carrier
    (lambda: chain_product((2, 0)), OrderError),  # a chain of height 0
    (lambda: FiniteMonoid(((0, 1),), 0), MonoidError),  # not square
    (lambda: FiniteMonoid(((0, 1), (1, 2)), 0), MonoidError),  # an entry out of range
    # not associative: (1 + 1) + 2 = 2 but 1 + (1 + 2) = 1
    (lambda: FiniteMonoid(((0, 1, 2), (1, 0, 0), (2, 0, 0)), 0), MonoidError),
    (lambda: FiniteMonoid(((0, 1), (1, 0)), 2), MonoidError),  # identity out of range
    (lambda: VectorMonoid(-1), MonoidError),
    (lambda: VectorMonoid(True), MonoidError),
])
def test_constructor_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


def test_unchecked_presets_a_cached_property():
    q = QuasiOrder((7, 6, 4))
    d = _unchecked(QuasiOrder, up_masks=q.down_masks, dual=q)
    assert d.dual is q and d.up_masks == (1, 3, 7)
    assert q.dual.dual is q
    mm = _unchecked(MonotoneMap, dom=C2, cod=C3, image=(0, 2), is_embedding=True)
    assert mm.is_embedding and mm.range_mask == 0b101
