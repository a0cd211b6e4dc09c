"""Exact computation of (equivariant) Leibniz cohomology and its cup product."""

from .linalg import QQ, GF, Matrix
from .leibniz import (LeibnizAlgebra, AlgebraMorphism, DifferentialLieAlgebra,
                      check_leibniz_identity, check_morphism,
                      derived_bracket_algebra, free_leibniz_truncated)
from .groups import (FiniteGroup, GroupAction, OrbitCategory, FixedSubalgebra,
                     validate_action, enumerate_subgroups, orbit_category,
                     fixed_subalgebra, restriction_map)
from .complexes import (TensorSpace, CoefficientAlgebra, CohomologyResult,
                        boundary_matrix, coboundary_matrix, homology,
                        cohomology)
from .equivariant import (CoefficientSystem, EquivariantCochain,
                          EquivariantSetup, constant_coefficients,
                          coset_function_coefficients,
                          check_coefficient_system)
from .shuffles import (shuffles, shuffle_sum, tilde, rho_sum, tau_sum,
                       PermutationSum, check_rho_identity, cup,
                       zinbiel_check_on_cohomology)
from .catalog import catalog, CatalogEntry

__version__ = "0.1.0"
