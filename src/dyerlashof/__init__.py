"""Exact arithmetic for Dyer-Lashof operations at odd and even primes.

Straightening of non-admissible operation strings is computed two
independent ways: the classical Adem-relation rewriting engine and the
invariant-theoretic route through the Dickson algebra inside the Borel
ring F_p[h_1..h_n].  The two must agree everywhere; the test suite and
the `dyerlashof verify` command enforce that.
"""

from .arith import (
    Context,
    DomainError,
    InvariantError,
    binom_mod_p,
    multinom_mod_p,
    padic_digits,
)
from .correspondence import (
    DualExpansion,
    adem_via_invariants,
    admissible_basis,
    dickson_of_dual,
    dual_of_dickson,
    kronecker_pair,
    power_dual_check,
    solve_degree_diophantine,
)
from .invariants import (
    BPoly,
    YPoly,
    check_invariance,
    chi_max,
    chi_min,
    coeff_by_multinomial,
    coeff_in_expansion,
    dickson_to_borel,
    dickson_to_borel_recursive,
    enumerate_A,
    expand_dickson_monomial,
    identity_checks,
    matrix_to_monomial,
    psi_inverse,
    psi_T,
    realize_in_y,
)
from .opalgebra import (
    OpPoly,
    TensorPoly,
    adem_straighten_classical,
    concat_product,
    coproduct,
    iterated_coproduct,
    pair_rewrite,
    quotient_excess,
)
from .sequences import (
    OpSeq,
    UpperSeq,
    compare,
    degree_lower,
    degree_upper,
    direct_sum,
    excess_lower,
    excess_upper,
    family,
    lower_to_upper,
    upper_to_lower,
)

__version__ = "0.1.0"
