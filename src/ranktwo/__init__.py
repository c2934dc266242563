"""Rank-two semistandard posets, their ideal lattices, Weyl characters,
rank generating functions, and tableau bijections, all in exact arithmetic.
"""

from types import ModuleType as _ModuleType

from .algebras import ALPHA, BETA, Algebra, Color
from .build import (SemistandardPoset, fundamental_poset, semistandard_poset,
                    semistandard_poset_oracle)
from .grid import (Decomposition, GridPoset, decompose, has_max_property,
                   total_order, triangle_dual, validate_grid)
from .lattice import (IdealLattice, check_structure, join_irreducible_poset,
                      order_ideals, weight_via_decomposition)
from .poset import (EdgeColoredPoset, PosetError, RankFunction,
                    VertexColoredPoset, find_rank_function, product)
from .weyl import (LaurentPoly2, QPoly, alternating_sum,
                   character_from_lattice, rgf_from_lattice, rgf_product,
                   simple_reflection, verify_weyl_character)

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
