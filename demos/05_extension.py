"""Extending an embedding from a dense basis to the whole lattice.

A map defined only on the bottom and the singletons of a subset lattice
pins down its unique continuous extension; when the partial map is an
embedding with convex range inside a well-behaved target, the extension
is again an embedding with convex range.
"""

import itertools

from latkit.builders import chain, powerset_lattice
from latkit.embedding import (
    HypothesisFailed,
    continuity_checks,
    enumerate_embeddings,
    enumerate_monotone_maps,
    extend_from_join_dense,
    verify_convexity_transfer,
)
from latkit.order import MonotoneMap, bits

p2, p3 = powerset_lattice(2), powerset_lattice(3)
basis = 0b111  # elements 0b00, 0b01, 0b10: bottom plus singletons of P(2)

print("== reconstruction from the basis ==")
# the eighth map of the convex-range census, which yields (image, flags)
# pairs in ascending image order
image, _ = next(itertools.islice(
    enumerate_embeddings(p2, p3, convex_range=True), 7, None))
mm = MonotoneMap(p2, p3, image)
partial = {b: mm.image[b] for b in bits(basis)}
print("full map:      ", mm.image)
print("basis fragment:", partial)
ext = extend_from_join_dense(p2, basis, partial, p3)
print("extension:     ", ext.image, " equal:", ext.image == mm.image)

report = verify_convexity_transfer(p2, basis, p3.full_mask, p3, partial)

print("\n== uniqueness, from the one candidate ==")
print("  every x is the join of the basis elements below it, so a join-preserving",
      "extension must send x to the join of their images")
for key in ("extensions_found", "unique"):
    print(f"  {key}: {report[key]}")

print("\n== the packaged theorem check ==")
for key in ("holds", "convex_range", "embedding"):
    print(f"  {key}: {report[key]}")

print("\n== hypothesis violations are named ==")
thin_target = 0b10010111  # bottom, singletons, top: not preregular
try:
    verify_convexity_transfer(p2, basis, thin_target, p3, {0: 0, 1: 1, 2: 2})
except HypothesisFailed as exc:
    print("  rejected:", exc)

print("\n== without the bottom the extension can float ==")
c2, c3 = chain(2), chain(3)
images = [img for img in enumerate_monotone_maps(c2, c3)
          if img[1] == 2
          and continuity_checks(MonotoneMap(c2, c3, img))["preserves_nonempty_sups"]]
print(f"  the top of a 2-chain sent to 2 in a 3-chain extends {len(images)}",
      f"ways: {images}")
print("  (all agree off the bottom; adding the bottom to the dense set",
      "restores uniqueness)")
