"""Exact symbolic engine for the three-parameter deformed enveloping algebra
of the centrally extended phase-space translation Lie algebra, its Hopf
structure, the dual star product and the induced Lie bialgebra."""

from .series import (SeriesScalar, TruncationMismatchError,
                     NonInvertibleSeriesError, parse_rational, format_rational)
from .multiindex import (mi_norm, mi_factorial, mi_binom, submultiindices,
                         multiindices, multiindices_graded)
from .algebra import (GENERATOR_NAMES, AlgebraElement, DeformParams,
                      InvalidParamsError, ParamsMismatchError,
                      classical_limit, commutator, from_z_basis,
                      make_exp_rho, make_generator, make_lambda, make_rho,
                      normal_order_mul, phi_automorphism, to_z_basis)
from .hopf import (TensorElement, antipode, apply_coproduct_leg,
                   apply_counit_leg, coproduct, counit,
                   heisenberg_limit_report, mu_antipode_leg, tensor_commutator,
                   tensor_mul, tensor_of, verify_hopf_axioms)
from .dual import (DualElement, NonLinearBracketError, chi, classical_product,
                   delta_on_zbasis, dual_structure_constants, pairing,
                   poisson_bracket_dir, star_closed, star_commutator,
                   star_oracle, star_oracle_element, star_oracle_grid)
from .bialgebra import (GroupElement, LieData, NonPrimitiveResidueError,
                        WedgeElement, ad_wedge, bialgebra_axiom_check,
                        coboundary_from_r, cocommutator_dir, cocommutator_map,
                        combine_cocommutators, dual_bracket_from_delta,
                        dual_lie_data_from_delta, group_compose,
                        group_identity, group_inverse, nc_lie_data)
from .render import (dual_to_json, dual_to_text, element_to_json,
                     element_to_text)
from .report import Check, VerificationReport
from .parser import ExpressionError, evaluate, parse_expression
from .suites import verify_all, verify_bialgebra_suite, verify_star_suite

__version__ = "0.1.0"
