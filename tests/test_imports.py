"""The lazy package namespace: each layer loads on first use.

Every check that reads sys.modules runs in a fresh interpreter, since the
test session has long since imported every layer.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cppforge

PUBLIC_BY_MODULE = {
    "gf": [
        "DEFAULT_BRUTE_BOUND", "FieldError", "FieldTooLarge", "Fq", "FqElem",
        "Tower", "elem", "frobenius", "legendre", "mk_field", "mk_tower",
        "norm_map", "ord_mod", "primitive_element", "root_of_unity",
        "solve_quadratic", "sqrt_in", "trace_map",
    ],
    "poly": [
        "Factorization", "Poly", "char_poly_of", "dickson_poly", "factorize",
        "gcd", "is_irreducible", "linearized_associate", "pow_mod", "roots_in",
        "squarefree_part",
    ],
    "cpp_core": [
        "CppWitness", "GoodnessReport", "cpp_exponent", "cpp_normalize",
        "goodness", "is_cpp_monomial", "is_cpp_poly", "is_permutation",
        "scalar_class_count", "v_poly", "witness_from_json",
        "witnesses_from_good",
    ],
    "families": [
        "classify_deg8", "classify_deg9", "construct_a1", "construct_a2",
        "construct_b", "construct_c", "construct_lin_d", "dickson_split_data",
        "enumerate_family", "family_params", "FamilyItem", "FamilyParams",
        "FamilySkip", "predicted_roots",
    ],
}
PUBLIC = [name for names in PUBLIC_BY_MODULE.values() for name in names]


def _loaded_after(code: str) -> list:
    """The modules in sys.modules after a fresh interpreter runs code."""
    src = str(Path(cppforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=path))
    return json.loads(out.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule():
    loaded = _loaded_after("import cppforge")
    assert [m for m in loaded if m.startswith("cppforge.")] == []


def test_field_arithmetic_loads_only_its_layers():
    loaded = _loaded_after(
        "import cppforge.gf\n"
        "from cppforge.gf import mk_field, mk_tower\n"
        "t = mk_tower(mk_field(3, 2), 4)\n"
        "assert t.mul(t.primitive_element(), 1) == t.primitive_element()")
    assert "cppforge.gf" in loaded
    for name in ("cppforge.cpp_core", "cppforge.families", "cppforge.cli", "numpy"):
        assert name not in loaded


def test_public_names():
    assert cppforge.__all__ == PUBLIC
    assert len(PUBLIC) == 55
    listed = dir(cppforge)
    for mod, names in PUBLIC_BY_MODULE.items():
        module = importlib.import_module(f"cppforge.{mod}")
        for name in names:
            assert getattr(cppforge, name) is getattr(module, name)
            assert name in listed


def test_star_import_binds_every_name():
    scope: dict = {}
    exec("from cppforge import *", scope)
    for name in PUBLIC:
        assert scope[name] is getattr(cppforge, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cppforge.no_such_name
    assert not hasattr(cppforge, "no_such_name")
