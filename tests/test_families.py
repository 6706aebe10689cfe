"""Family classifiers against independent reference computations."""

import random

import pytest

from cppforge.cpp_core import goodness, v_poly
from cppforge.families import _deg9_forced_iii, _deg9_forced_iv, classify_deg9
from cppforge.gf import mk_field, mk_tower
from cppforge.poly import Poly, factorize, roots_in


def _case_iii_shapes(base) -> list:
    out = []
    for a3 in base.elements():
        for a4 in base.units():
            for a5 in base.elements():
                A = [0, 0, a3, a4, a5, *_deg9_forced_iii(base, a3, a4, a5)]
                if classify_deg9(base, A).case_index == "iii":
                    out.append(A)
    return out


class TestDeg9CaseIii:
    def _check(self, base, shapes):
        top4 = mk_tower(base, 4)
        for A in shapes:
            a3, a4 = A[2], A[3]
            # reference: search for a root of w in the tower GF(q^4)
            w = Poly(base, [base.mul(2, a4), 0, base.mul(2, a3), 0, 0, 0, 0, 0, 1])
            assert classify_deg9(base, A).good == (not roots_in(w, top4))

    def test_good_matches_tower_root_search_gf3(self):
        shapes = _case_iii_shapes(mk_field(3, 1))
        assert len(shapes) == 9
        self._check(mk_field(3, 1), shapes)

    def test_good_matches_tower_root_search_gf9_sample(self):
        base = mk_field(3, 2)
        shapes = _case_iii_shapes(base)
        assert len(shapes) == 270
        self._check(base, random.Random(9).sample(shapes, 30))


class TestDeg9CaseIv:
    """Case iv is good when the radical of v_F is irreducible, not v_F itself.

    With A3 = A5 = 0 the forced coefficients give F = x^9 + A2 x^7 + A2^3 x^3
    + A2^4 x, so v_F = x^8 + A2 x^6 + A2^3 x^2 + A2^4 = (x^2 + A2)^4 in
    characteristic 3.  Case iv asks that 2·A2 = -A2 be a non-square, which is
    exactly when x^2 + A2 is irreducible: the roots of v_F form one orbit of
    size 2.  These are the four items A2 in {4, 5, 7, 8} over GF(9) and A2 = 1
    over GF(3).
    """

    @pytest.mark.parametrize("p, m, a2", [(3, 2, 4), (3, 2, 5), (3, 2, 7), (3, 2, 8), (3, 1, 1)])
    def test_power_of_irreducible_quadratic_is_good(self, p, m, a2):
        base = mk_field(p, m)
        res = classify_deg9(base, [0, a2, 0, 0, 0, *_deg9_forced_iv(base, a2, 0, 0)])
        assert res.case_index == "iv" and res.good
        assert factorize(v_poly(res.f_poly)).factors == ((Poly(base, [a2, 0, 1]), 4),)
        assert goodness(res.f_poly).is_good
