"""Complete permutation monomials over finite field towers.

The package constructs, classifies, and verifies complete permutation
monomials b^(-1) x^d with d = (q^n - 1)/(q - 1) + 1 over GF(q^n), through
their correspondence with good permutation polynomials of degree n+1 over
GF(q).  A permutation test over GF(q) decides each verdict; a brute force
over the tower cross-checks it where the tower is small enough.
"""

from .gf import (
    DEFAULT_BRUTE_BOUND,
    FieldError,
    FieldTooLarge,
    Fq,
    FqElem,
    Tower,
    elem,
    frobenius,
    legendre,
    mk_field,
    mk_tower,
    norm_map,
    ord_mod,
    primitive_element,
    root_of_unity,
    solve_quadratic,
    sqrt_in,
    trace_map,
)
from .poly import (
    Factorization,
    Poly,
    char_poly_of,
    dickson_poly,
    factorize,
    gcd,
    is_irreducible,
    linearized_associate,
    pow_mod,
    roots_in,
    squarefree_part,
)
from .cpp_core import (
    CppWitness,
    GoodnessReport,
    cpp_exponent,
    cpp_normalize,
    goodness,
    is_cpp_monomial,
    is_cpp_poly,
    is_permutation,
    scalar_class_count,
    v_poly,
    witness_from_json,
    witnesses_from_good,
)
from .families import (
    classify_deg8,
    classify_deg9,
    construct_a1,
    construct_a2,
    construct_b,
    construct_c,
    construct_lin_d,
    dickson_split_data,
    enumerate_family,
    family_params,
    FamilyItem,
    FamilyParams,
    FamilySkip,
    predicted_roots,
)

__version__ = "0.1.0"
