"""latkit: exhaustive verification of finite order-theoretic structure.

Finite quasi orders, lattices, monoid-associated orders, order-embedding
censuses, and finite topological spaces, with brute-force oracles for the
structural laws connecting them.
"""

__version__ = "0.1.0"
