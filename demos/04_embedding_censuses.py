"""Censuses of order embeddings and their structure laws.

Every convex-range embedding between products of chains is a shifted
partial projection.  A subset lattice is the product of 2-element chains,
so there the same form reads as a ground map plus a constant baseline.
Both are read off one Birkhoff decomposition ``(phi, b)`` on the
join-irreducibles: ``phi`` is the ground map, or the coordinate pairing,
and ``b`` the baseline, or the shift.  The censuses here are enumerated
by backtracking search and compared against the closed families, member
by member.
"""

from latkit.builders import chain_product, powerset_lattice
from latkit.embedding import (
    atom_image_check,
    birkhoff_decompose,
    birkhoff_formula_census,
    continuity_checks,
    enumerate_embeddings,
)
from latkit.lattice import is_convex
from latkit.order import MonotoneMap



def convex_census(dom, cod):
    """The convex-range census as maps.  The search yields ``(image,
    flags)`` pairs in ascending image order; this demo reads each census
    several times, so it keeps them."""
    return [MonotoneMap(dom, cod, image)
            for image, _ in enumerate_embeddings(dom, cod, convex_range=True)]


p2, p3 = powerset_lattice(2), powerset_lattice(3)

print("== the subset-lattice census P(2) -> P(3) ==")
census = convex_census(p2, p3)
images = tuple(mm.image for mm in census)
formula = birkhoff_formula_census(p2, p3)
print(f"search found {len(census)} convex-range embeddings;",
      f"formula family has {len(formula)}; equal: {images == formula}")
for mm in census[:4]:
    h, b = birkhoff_decompose(mm)
    print(f"  image {mm.image}  =  ground map {h} with baseline {b:03b}")

print("\n== the map that fits no ground function ==")
cex = MonotoneMap(p2, p3, (0, 1, 2, 7))
print("order embedding:", cex.is_embedding)
print("convex range:", is_convex(p3, cex.range_mask),
      " (the two-point set {0,1} is missing between {0} and the top)")

print("\n== chain products ==")
dom, cod = chain_product([2, 2]), chain_product([2, 2, 2])
cen = convex_census(dom, cod)
print(f"C2^2 -> C2^3 has {len(cen)} convex-range embeddings;",
      f"the same images as P(2) -> P(3): {tuple(mm.image for mm in cen) == images}")
for mm in cen[:4]:
    phi, b = birkhoff_decompose(mm)
    g = dict(sorted((j, i) for i, j in enumerate(phi)))
    print(f"  coordinates {g} shifted by {tuple(b >> j & 1 for j in range(3))}")

print("\n== continuity comes for free with a preregular range ==")
for mm in census[:3]:
    print(f"  {mm.image} ->", continuity_checks(mm))

print("\n== atoms map onto relative atoms of the range ==")
print("all census maps respect the atom law:",
      all(atom_image_check(mm) for mm in census))
