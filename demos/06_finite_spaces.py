"""Finite topologies: regular opens, smallness, and the category algebra.

The sweep at the end settles a small structural question by exhaustion:
no finite space has a nonempty open meager set, so every finite space is
a Baire space and its category algebra is its regular open algebra.
"""

from latkit.lattice import classify
from latkit.order import upper_sets
from latkit.topology import (
    category_algebra,
    clopen_basis_check,
    closure_of,
    enumerate_topologies,
    interior,
    is_baire,
    largest_open_meager,
    meager_ideal,
    regular_opens,
    ro_algebra,
    topology,
)

print("== the two-point space with one open point ==")
sp = topology(2, [0b10])
print("opens:", sorted(f"{o:02b}" for o in upper_sets(sp)))
print("closure of the open point:", f"{closure_of(sp, 0b10):02b}",
      "-> not regular open:", f"{interior(sp, closure_of(sp, 0b10)):02b}")
print("regular opens:", [f"{g:02b}" for g in regular_opens(sp)])
print("meager sets:", [f"{s:02b}" for s in meager_ideal(sp)])
print("Baire:", is_baire(sp))

print("\n== regular open algebras are complete Boolean algebras ==")
alg = ro_algebra(topology(3, [0b001, 0b010, 0b100]))
print("discrete 3-point space:", len(alg.members), "regular opens,",
      classify(alg.order))

print("\n== category algebra = Baire-property sets / meager ==")
cat = category_algebra(sp)
print("classes:", cat.size, " class reps:", [f"{r:02b}" for r in cat.reps])
print("isomorphism with the regular open algebra (the space is its own residual):",
      { f"{g:02b}": c for g, c in cat.ro_iso.items() })

print("\n== clopen classes form a basis in zero-dimensional spaces ==")
blobs = topology(4, [0b0011, 0b1100])
print("two clopen blobs:", clopen_basis_check(blobs))

print("\n== the exhaustive sweep ==")
for n in (1, 2, 3, 4):
    tops = enumerate_topologies(n)
    if any(largest_open_meager(t) != 0 for t in tops):
        raise SystemExit(f"points={n}: found a nonempty open meager set")
    for t in tops:
        category_algebra(t)  # raises unless its trace map is an isomorphism
    print(f"points={n}: {len(tops):3d} topologies, all Baire, "
          "largest open meager set always empty")
print("so at finite scale the category algebra is just the regular open",
      "algebra; the isomorphism is checked explicitly for every space above.")
