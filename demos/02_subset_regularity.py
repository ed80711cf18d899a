"""Subsets of posets: convexity, preregularity, order closures, density.

The bowtie example shows why the lattice hypothesis matters: a convex
subset of a non-lattice can compute a supremum internally that the ambient
order does not recognise.
"""

from latkit.builders import bowtie, chain, powerset_lattice
from latkit.lattice import (
    density_checks,
    is_convex,
    is_preregular,
    order_closure_up,
    preregularity_witness,
    subset_report,
)
from latkit.order import bits

p3 = powerset_lattice(3)

print("== convex implies preregular in lattices ==")
interval = 0b10101010  # elements 1, 3, 5, 7: [{0}, {0,1,2}]
print("interval convex:", is_convex(p3, interval),
      " preregular:", is_preregular(p3, interval))

print("\n== the bowtie witness ==")
b = bowtie()
subset = 0b111  # both minimals plus one maximal
print("convex in the bowtie:", is_convex(b, subset))
print("preregular:", is_preregular(b, subset))
print("witness:", preregularity_witness(b, subset, upwards=True))
print("(the inner join of the minimals is 2, but the ambient order has two",
      "incomparable upper bounds, so no supremum at all)")

print("\n== order closure ==")
closure = order_closure_up(p3, 0b110)
print("closing the singletons {0},{1} upward adds their join and the",
      "empty join:", tuple(bits(closure)))

print("\n== density flags for the singletons of P(3) ==")
for dset, label in [(0b10110, "singletons"), (0b10111, "with bottom")]:
    print(f"{label:12s}", density_checks(p3, dset))

print("\n== successor chain ==")
print("successors {1,2,3} in C4:", density_checks(chain(4), 0b1110))

print("\n== full verdict report (JSON-ready) ==")
report = subset_report(p3, 0b10000111)
for key, value in report.items():
    print(f"  {key}: {value}")
