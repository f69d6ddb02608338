"""Toolkit for fuel-indexed inductive types: bounded term algebras, finite
machines, measurings between their algebras, and the transport of all of
these along signature morphisms, with exhaustive desk-scale checkers."""

from .kernel import (BOOL_OR, BOTTOM, NAT_PLUS, STAR, TRIV, TRUTH_AND,
                     TRUTH_OR, FunctorSig, Monoid, MonoidHom, NatTransform,
                     Node, Report, collapse_hom,
                     const_sig, finite_monoid, functor_map, fvalues, hom,
                     hom_check, identity_hom, identity_nat, is_bottom,
                     monoid_check, nat_apply, nat_check_lax, nat_transform,
                     node, shape_sig, unit_hom, unit_value, zip_values)
from .carriers import (Algebra, Coalgebra, coalgebra, coalgebras_identical,
                       counter_coalgebra, finite_algebra, fold,
                       initial_term_algebra, is_coalgebra_morphism,
                       nat_counter, perfect_shape, render_term, render_value,
                       shape_coalgebra, table_algebra, tensor_coalgebra,
                       term_algebra_bounded, term_as_coalgebra, term_depth,
                       term_unfold_coalgebra, terms_up_to, truncate_term,
                       unit_coalgebra)
from .transport import (AdjointUnsupportedError, ExpandedAlgebra,
                        PushoutAlgebra, SubCoalgebra, expand_algebra,
                        pullback_algebra, pushforward_coalgebra,
                        pushout_algebra, pushout_transpose,
                        pushout_untranspose, restrict_coalgebra,
                        restriction_inclusion, restriction_untranspose)
from .measuring import (Measuring, canonical_const_measuring, canonical_term_measuring,
                        check_law, compose, embed_measuring, from_morphism,
                        pull_measuring, push_measuring, table_measuring,
                        to_morphism)
from .oracle import (DEFAULT_BUDGET, SolveResult,
                     check_adjunction, decide_c_initial,
                     check_preserves_c_initial,
                     check_respects_composition, coalgebra_morphisms,
                     raw_lawful_tables, solve_measurings)

__version__ = "0.1.0"
