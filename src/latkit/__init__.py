"""latkit: exhaustive verification of finite order-theoretic structure.

Finite quasi orders, lattices, monoid-associated orders, order-embedding
censuses, and finite topological spaces, with brute-force oracles for the
structural laws connecting them.
"""

from .order import (  # noqa: F401
    MonotoneMap,
    OrderError,
    QuasiOrder,
    asym_quotient,
    atoms,
    build_quasi_order,
    inf,
    is_partial_order,
    sup,
)
from .builders import (  # noqa: F401
    antichain,
    bowtie,
    chain,
    chain_product,
    diamond,
    m3,
    n5,
    powerset_lattice,
)
from .lattice import classify, density_checks, is_convex, is_preregular  # noqa: F401
from .monoid import (  # noqa: F401
    FiniteMonoid,
    NotCancellativeError,
    VectorMonoid,
    associated_order,
    group_completion,
)

__version__ = "0.1.0"
