"""Family classifiers against independent reference computations."""

import random

import pytest

from cppforge.cpp_core import goodness, is_permutation, v_poly
from cppforge.families import (
    NotLinearizedShape,
    _deg9_forced_iii,
    _deg9_forced_iv,
    _primitive_poly,
    classify_deg9,
    construct_a2,
    construct_lin_d,
    predicted_roots,
)
from cppforge.gf import mk_field, mk_tower
from cppforge.poly import Poly, factorize, orbit_split, roots_in


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

    def test_early_exit_equals_full_split_gf9(self):
        # the classifier stops at the first part whose degree divides 4
        base = mk_field(3, 2)
        verdicts = []
        for A in _case_iii_shapes(base):
            w = Poly(base, [base.mul(2, A[3]), 0, base.mul(2, A[2]), 0, 0, 0, 0, 0, 1])
            full = all(4 % d for d, _ in orbit_split(w)[1])
            assert classify_deg9(base, A).good == full
            verdicts.append(full)
        assert len(verdicts) == 270 and any(verdicts) and not all(verdicts)


class TestDeg9CaseI:
    """Case i is x^9 + A6 x^3 = (x^3 + b x)^3 with A3 = 0.

    With A3 = a^3 != 0 the nonic is (x^3 + a x^2 + b x)^3, and no cubic with
    an x^2 term permutes GF(3^m): it is in no row of Dickson's table.
    """

    @pytest.mark.parametrize("m, matches", [(1, 2), (2, 5)])
    def test_every_match_permutes_gf_q(self, m, matches):
        base = mk_field(3, m)
        found = 0
        for a3 in base.elements():
            for a6 in base.elements():
                res = classify_deg9(base, [0, 0, a3, 0, 0, a6, 0, 0])
                if "i" in res.matches:
                    assert a3 == 0 and is_permutation(res.f_poly)
                    found += 1
        assert found == matches


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


class TestA2SquareDiscriminant:
    """A2 with odd p, n/2 odd and e^2 = 4a.

    v_g is the product of x^2 + e(alpha_i - 2)x + (alpha_i - 2)((alpha_i + 2)a
    - e^2), alpha_i = z^i + z^-i for i = 1..n/2 and z of order n + 1.  Its
    discriminant is (alpha_i^2 - 4)(e^2 - 4a), which vanishes, so the radical
    has the n/2 roots -e(alpha_i - 2)/2.  They form one orbit when alpha_i has
    degree n/2 over GF(q).  Over GF(5) with n = 6, q has order k = 6 = n
    modulo 7, so q^3 = -1 and alpha_i has degree 3: all four items are good.
    """

    def test_gf5_n6_items_are_good(self):
        base = mk_field(5, 1)
        items = [construct_a2(base, 6, a, e) for a in base.units() for e in base.units()
                 if (e * e - 4 * a) % 5 == 0]
        assert [(it.params.params["a"], it.params.params["e"]) for it in items] == [
            (1, 2), (1, 3), (4, 1), (4, 4)]
        top = mk_tower(base, 6)
        for it in items:
            assert it.predicted_good and goodness(it.g).is_good
            roots = [r.val for r, _ in roots_in(v_poly(it.g), top)]
            assert len(roots) == 3
            assert predicted_roots(it.params, top) == roots


class TestLinearizedGeneral:
    """construct_lin_d's general shape: x^j H(x)^k shifted by e, L = x^j H(x^k)."""

    @pytest.mark.parametrize("p, m, j, k, h, e", [
        (2, 2, 1, 1, [2, 1], 0), (2, 2, 1, 1, [2, 1], 1),
        (3, 2, 1, 2, [2, 1], 0), (3, 2, 1, 2, [2, 1], 1),
        (2, 4, 1, 1, [2, 0, 0, 1], 0), (2, 4, 1, 3, [2, 1], 1),
    ])
    def test_prediction_is_the_oracle_verdict(self, p, m, j, k, h, e):
        it = construct_lin_d(mk_field(p, m), "general", j=j, k=k, h_coeffs=h, e=e)
        assert it.predicted_good == goodness(it.g).is_good

    def test_degree_not_a_p_power_is_rejected(self):
        # L = x · 3 has degree 1
        with pytest.raises(NotLinearizedShape):
            construct_lin_d(mk_field(2, 3), "general", j=1, k=3, h_coeffs=[3, 0], e=0)


@pytest.mark.parametrize("p, eps, deg, coeffs", [
    (5, 1, 1, (2, 1)),          # x + 2: its root 3 generates GF(5)*, x + 1's root 4 does not
    (3, 2, 1, (4, 1)),
    (2, 1, 5, (1, 0, 1, 0, 0, 1)),
    (2, 2, 3, (2, 1, 1, 1)),
    (5, 1, 4, (2, 2, 1, 0, 1)),
])
def test_primitive_poly_is_encoding_least(p, eps, deg, coeffs):
    # values read from the modulus search before it moved onto poly.least_monic;
    # at degree 1 the candidate x is irreducible but has no unit root
    assert _primitive_poly(p, eps, deg).coeffs == coeffs
