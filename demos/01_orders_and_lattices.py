"""Tour of the core order machinery: construction, classification, atoms.

Run with ``python demos/01_orders_and_lattices.py``.
"""

from latkit.builders import bowtie, chain, diamond, m3, n5, powerset_lattice
from latkit.lattice import check_jid, check_mid, classify, is_distributive
from latkit.order import asym_quotient, atoms, bits, build_quasi_order, inf, sup

print("== building orders from generator pairs ==")
c3 = build_quasi_order(3, [(0, 1), (1, 2)])
print("chain 0<1<2:    0<=2?", c3.le(0, 2), "  2<=0?", c3.le(2, 0))

cycle = build_quasi_order(4, [(0, 1), (1, 2), (2, 1), (2, 3)])
poset, classes = asym_quotient(cycle)
print("a 2-cycle inside a chain collapses:", cycle.size, "->", poset.size,
      "elements, class map", classes)

print("\n== suprema and infima ==")
d = diamond()
print("diamond: join of the two middles =", sup(d, 0b110),
      " meet =", inf(d, 0b110))
print("empty supremum = the bottom:", sup(d, 0))

print("\n== classification ==")
for name, q in [("P(3)", powerset_lattice(3)), ("chain C4", chain(4)),
                ("bowtie", bowtie())]:
    print(f"{name:9s}", classify(q))

print("\n== distributivity ==")
for name, q in [("P(3)", powerset_lattice(3)), ("M3", m3()), ("N5", n5())]:
    print(f"{name:5s} distributive: {is_distributive(q)}   "
          f"JID: {check_jid(q)['holds']}   MID: {check_mid(q)['holds']}")
bad = check_jid(m3())
print("JID witness on M3:", bad["witness"])

print("\n== atoms (the forcing notion: nothing incompatible below) ==")
print("P(3) atoms are the singleton masks:", tuple(bits(atoms(powerset_lattice(3)))))
print("on a chain nothing splits, so every nonzero element is an atom:",
      tuple(bits(atoms(chain(4)))))
