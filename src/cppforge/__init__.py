"""Complete permutation monomials over finite field towers.

The package constructs, classifies, and verifies complete permutation
monomials b^(-1) x^d with d = (q^n - 1)/(q - 1) + 1 over GF(q^n), through
their correspondence with good permutation polynomials of degree n+1 over
GF(q).  A permutation test over GF(q) decides each verdict; a brute force
over the tower cross-checks it where the tower is small enough.

The namespace is lazy (PEP 562): `import cppforge` loads no submodule, and
each public name below imports its submodule on first access, then stays
bound here.  `import cppforge.gf` loads `gf` alone; field and tower
arithmetic add `poly`, which `mk_field` imports for its moduli, and never
`cpp_core`, `families`, `cli` or numpy.  `from cppforge import *` loads
every layer.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "gf": (
        "DEFAULT_BRUTE_BOUND", "FieldError", "FieldTooLarge", "Fq", "FqElem",
        "Tower", "elem", "frobenius", "legendre", "mk_field", "mk_tower",
        "norm_map", "ord_mod", "primitive_element", "root_of_unity",
        "solve_quadratic", "sqrt_in", "trace_map",
    ),
    "poly": (
        "Factorization", "Poly", "char_poly_of", "dickson_poly", "factorize",
        "gcd", "is_irreducible", "linearized_associate", "pow_mod", "roots_in",
        "squarefree_part",
    ),
    "cpp_core": (
        "CppWitness", "GoodnessReport", "cpp_exponent", "cpp_normalize",
        "goodness", "is_cpp_monomial", "is_cpp_poly", "is_permutation",
        "scalar_class_count", "v_poly", "witness_from_json",
        "witnesses_from_good",
    ),
    "families": (
        "classify_deg8", "classify_deg9", "construct_a1", "construct_a2",
        "construct_b", "construct_c", "construct_lin_d", "dickson_split_data",
        "enumerate_family", "family_params", "FamilyItem", "FamilyParams",
        "FamilySkip", "predicted_roots",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    try:
        mod = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
