"""Rank-two semistandard posets, their ideal lattices, Weyl characters,
rank generating functions, and tableau bijections, all in exact arithmetic.
"""

from .algebras import ALPHA, BETA, Algebra, Color
from .build import (SemistandardPoset, fundamental_poset, semistandard_poset,
                    semistandard_poset_oracle)
from .grid import (Decomposition, GridPoset, decompose, has_max_property,
                   total_order, triangle_dual, validate_grid)
from .lattice import (IdealLattice, check_structure, infer_structure_matrix,
                      join_irreducible_poset, order_ideals,
                      weight_via_decomposition)
from .poset import (EdgeColoredPoset, PosetError, RankFunction,
                    VertexColoredPoset, diamond_coloring_check, disjoint_sum,
                    find_rank_function, product, are_edge_color_isomorphic,
                    are_vertex_color_isomorphic)
from .weyl import (LaurentPoly2, QPoly, alternating_sum,
                   character_from_lattice, natural_rank, rgf_from_lattice,
                   rgf_product, simple_reflection, verify_weyl_character,
                   weyl_group)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
