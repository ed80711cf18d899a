"""Monoids and the order they induce: x <= y iff x + a = y for some a.

Covers classification, the pair-class group completion, and the
distributive laws: they hold on a capped chain and fail on a saturating
square.
"""

from latkit.monoid import (
    DISTRIBUTIVITY_MODES,
    FiniteMonoid,
    VectorMonoid,
    associated_order,
    check_disjoint_sum_laws,
    check_distributivity,
    closed_under_subtraction,
    cyclic_group,
    group_completion,
    monoid_class,
    truncated_addition_monoid,
    vector_group_completion,
)
from latkit.order import is_partial_order

print("== associated orders ==")
max2 = FiniteMonoid([[0, 1], [1, 1]], 0)
print("({0,1}, max):", monoid_class(max2))
print("Z2 (a group reaches everything):",
      "poset?", is_partial_order(associated_order(cyclic_group(2))))

nat2 = VectorMonoid(2)
print("vector monoid N^2:", monoid_class(nat2))
print("(1,0) <= (2,3):", nat2.leq((1, 0), (2, 3)),
      "  (1,2) <= (2,1):", nat2.leq((1, 2), (2, 1)))

print("\n== group completion ==")
print("a group completes to itself:", group_completion(cyclic_group(3)).size, "classes")
z2 = vector_group_completion(nat2)
print("N^2 completes to Z^2: class of ((1,0),(0,2)) =", z2.class_of((1, 0), (0, 2)))
print("canonical disjoint pair:", z2.canonical_pair((-1, 2)))
try:
    group_completion(max2)
except Exception as exc:
    print("max monoid rejected:", exc)

print("\n== distributive laws on N^2 (decided on the scalar grid 0..8 of N) ==")
for mode in DISTRIBUTIVITY_MODES:
    print(f"  {mode:14s} holds={check_distributivity(nat2, mode)['holds']}")
print("disjoint-sum laws:", check_disjoint_sum_laws(nat2)["holds"])

print("\n== the capped chain min(a+b, 2) ==")
t3 = truncated_addition_monoid(3)
for mode in DISTRIBUTIVITY_MODES:
    rep = check_distributivity(t3, mode)
    tail = f" witness={rep['witness']}" if not rep["holds"] else ""
    print(f"  {mode:14s} holds={rep['holds']}{tail}")
print("(every law survives the cap; the set laws range over nonempty B,",
      "as on N, where 1 + sup({}) = 1 but sup(1 + {}) = 0)")

print("\n== the saturating square: x + y = 3 for nonzero x, y ==")
square = FiniteMonoid([[0, 1, 2, 3], [1, 3, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3]], 0)
for mode in DISTRIBUTIVITY_MODES:
    rep = check_distributivity(square, mode)
    tail = f" witness={rep['witness']}" if not rep["holds"] else ""
    print(f"  {mode:14s} holds={rep['holds']}{tail}")
print("(the order is the square 0 < 1, 2 < 3: 1 + inf{1, 2} = 1,",
      "but inf{1 + 1, 1 + 2} = 3)")

print("\n== closed under subtraction, on the capped chain min(a+b, 3) ==")
t4 = truncated_addition_monoid(4)
print("{0, 2}:", closed_under_subtraction(t4, {0, 2}),
      "  {1, 2}:", closed_under_subtraction(t4, {1, 2}), "(1 - 1 = 0 escapes)")
