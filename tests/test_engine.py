"""Polynomial arithmetic on operands of 48 terms and more against references.

Over prime fields the reference is sympy's galoistools, which lists
coefficients from the highest degree down.  Over extension fields it is the
schoolbook product and long division of `tests/test_listpath.py`, on a copy
of the field without op rows.  48 is `poly._ROWS_MIN`, from which moduli
take their Frobenius steps by pow_mod.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_gcd, gf_mul, gf_pow_mod

import test_listpath as listpath
from cppforge import poly
from cppforge.cpp_core import goodness
from cppforge.gf import mk_field
from cppforge.poly import (
    Poly, _pdivmod, _pgcd, _pmonic, _pmul, _ppow_mod, orbit_split,
)

FIELDS = [mk_field(p, m) for p, m in
          [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2)]]
IDS = [repr(F) for F in FIELDS]
ROWS_MIN = poly._ROWS_MIN

bounded = settings(derandomize=True, database=None, deadline=None, max_examples=8)


def _ints(high_first: list) -> list:
    return [int(c) for c in reversed(high_first)]


def ref_mul(F, a, b):
    if F.m == 1:
        return _ints(gf_mul(a[::-1], b[::-1], F.p, ZZ))
    return listpath.ref_mul(F, a, b)


def ref_divmod(F, a, b):
    if F.m == 1:
        q, r = gf_div(a[::-1], b[::-1], F.p, ZZ)
        return _ints(q), _ints(r)
    return listpath.ref_divmod(F, a, b)


def ref_gcd(F, a, b):
    if F.m == 1:
        return _ints(gf_gcd(a[::-1], b[::-1], F.p, ZZ))
    return listpath.ref_gcd(F, a, b)


def ref_pow_mod(F, a, e, mod):
    if F.m == 1:
        return _ints(gf_pow_mod(a[::-1], e, mod[::-1], F.p, ZZ))
    return listpath.ref_pow_mod(F, a, e, mod)


def polys(F, lo: int, hi: int):
    """Coefficient lists of lo..hi terms with a nonzero (not always 1) leading one."""
    return st.builds(lambda body, lead: body + [lead],
                     st.lists(st.integers(0, F.order - 1), min_size=lo - 1, max_size=hi - 1),
                     st.integers(1, F.order - 1))


def exponents(F):
    q = F.order
    return st.one_of(st.sampled_from([0, 1, q, q ** 2, q ** 5]), st.integers(2, q ** 3))


@pytest.mark.parametrize("F", FIELDS, ids=IDS)
class TestAgainstReference:
    @bounded
    @given(data=st.data())
    def test_divmod(self, F, data):
        a = data.draw(polys(F, ROWS_MIN, 140))
        b = data.draw(polys(F, 1, 100))
        assert list(_pdivmod(F, a, b)) == list(ref_divmod(F, a, b))

    @bounded
    @given(data=st.data())
    def test_exact_division(self, F, data):
        b = data.draw(polys(F, 2, 60))
        c = data.draw(polys(F, ROWS_MIN, 80))
        assert _pdivmod(F, _pmul(F, b, c), b) == (c, [])

    @bounded
    @given(data=st.data())
    def test_gcd_of_multiples(self, F, data):
        c = data.draw(polys(F, 1, 30))
        a = _pmul(F, data.draw(polys(F, ROWS_MIN, 90)), c)
        b = _pmul(F, data.draw(polys(F, 1, 90)), c)
        g = _pgcd(F, a, b)
        assert g == ref_gcd(F, a, b)
        assert len(g) >= len(c)

    @bounded
    @given(data=st.data())
    def test_gcd_with_zero(self, F, data):
        a = data.draw(polys(F, ROWS_MIN, 90))
        assert _pgcd(F, a, []) == _pgcd(F, [], a) == _pmonic(F, a) == ref_gcd(F, a, [])

    @bounded
    @given(data=st.data())
    def test_pow_mod(self, F, data):
        mod = data.draw(polys(F, ROWS_MIN, 64))
        a = data.draw(polys(F, 1, 90))
        e = data.draw(exponents(F))
        assert _ppow_mod(F, a, e, mod) == ref_pow_mod(F, a, e, mod)

    def test_divisor_and_modulus_of_exactly_48_terms(self, F):
        rnd = random.Random(F.order)
        b = [rnd.randrange(F.order) for _ in range(47)] + [rnd.randrange(1, F.order)]
        a = [rnd.randrange(F.order) for _ in range(96)] + [1]
        assert len(b) == ROWS_MIN
        assert list(_pdivmod(F, a, b)) == list(ref_divmod(F, a, b))
        x = [0, 1]
        for e in (0, 1, F.order, F.order ** 3):
            assert _ppow_mod(F, x, e, b) == ref_pow_mod(F, x, e, b)
            assert _ppow_mod(F, a, e, b) == ref_pow_mod(F, a, e, b)


F9 = mk_field(3, 2)


def _orbit_json(split) -> tuple:
    rad, parts = split
    return rad.coeffs, [(d, g.coeffs) for d, g in parts]


@settings(bounded, max_examples=3)
@given(data=st.data())
def test_orbit_split_and_goodness_agree_with_list_path(data):
    # f = u·w^2·z^3 of degree 60..120 with f(0) != 0, so the squarefree split
    # sees repeated and p-th power factors and goodness reaches the orbit test
    F = F9
    u = [data.draw(st.integers(1, 8))] + data.draw(polys(F, 41, 81))
    w = [data.draw(st.integers(1, 8))] + data.draw(polys(F, 5, 10))
    z = [data.draw(st.integers(1, 8))] + data.draw(polys(F, 3, 6))
    f = _pmul(F, _pmul(F, u, _pmul(F, w, w)), _pmul(F, z, _pmul(F, z, z)))
    assert 60 <= len(f) - 1 <= 120
    fp = Poly(F, f)
    rows, pow_mod = listpath.by_both_routes(orbit_split, fp)
    assert _orbit_json(rows) == _orbit_json(pow_mod) == _orbit_json(orbit_split(fp))
    # g = -x·f(-x) has g(0) = 0 and v_g = -f
    g = -(Poly.x(F) * fp.scale_arg(F.neg(1)))
    assert listpath.by_both_routes(goodness, g) == [goodness(g)] * 2


class TestInt64Bound:
    """Large p: products, divmod and pow_mod against sympy.

    Over GF(2^31 - 1) a product of two coefficients is just below 2^62, and
    over GF(2^32 - 5) it passes 2^63, so any fixed-width sum of them would
    overflow; the list path works on Python ints.
    """

    P31 = mk_field(2 ** 31 - 1, 1)
    P32 = mk_field(4294967291, 1)

    @pytest.mark.parametrize("F", [P31, P32], ids=["GF(2^31-1)", "GF(2^32-5)"])
    def test_product(self, F):
        rnd = random.Random(F.p)
        a = [rnd.randrange(F.p) for _ in range(30)]
        b = [rnd.randrange(F.p) for _ in range(30)]
        assert _pmul(F, a, b) == ref_mul(F, a, b)

    @pytest.mark.parametrize("F", [P31, P32], ids=["GF(2^31-1)", "GF(2^32-5)"])
    def test_divmod(self, F):
        rnd = random.Random(F.p + 1)
        a = [rnd.randrange(F.p) for _ in range(70)] + [1]
        b = [rnd.randrange(F.p) for _ in range(25)] + [rnd.randrange(1, F.p)]
        assert list(_pdivmod(F, a, b)) == list(ref_divmod(F, a, b))

    @pytest.mark.parametrize("F", [P31, P32], ids=["GF(2^31-1)", "GF(2^32-5)"])
    def test_pow_mod(self, F):
        rnd = random.Random(F.p + 2)
        mod = [rnd.randrange(F.p) for _ in range(ROWS_MIN)] + [1]
        a = [rnd.randrange(F.p) for _ in range(40)]
        e = rnd.randrange(2 ** 12, 2 ** 13)
        assert _ppow_mod(F, a, e, mod) == ref_pow_mod(F, a, e, mod)
