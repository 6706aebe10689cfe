"""Goodness, oracles, orbits, witnesses, and the scaling equivalence."""

import math
import random

import pytest

from cppforge import gf
from cppforge.gf import FieldTooLarge, elem, mk_field, mk_tower
from cppforge.poly import ConstantPolynomial, Poly, factorize, roots_in
from cppforge.cpp_core import (
    CppWitness,
    DegreeNotNPlusOne,
    NotGood,
    OrbitSizeDoesNotDivideN,
    ZeroCoefficient,
    cpp_exponent,
    cpp_normalize,
    exceptional_necessary,
    goodness,
    is_cpp_monomial,
    is_cpp_poly,
    is_permutation,
    orbit_structure,
    scalar_class_count,
    v_poly,
    witness_from_json,
    witnesses_from_good,
)

F2 = mk_field(2, 1)
F3 = mk_field(3, 1)
F4 = mk_field(2, 2)
F5 = mk_field(5, 1)
F8 = mk_field(2, 3)
F9 = mk_field(3, 2)
T25 = mk_tower(F5, 2)


class TestVPoly:
    def test_monomial(self):
        assert v_poly(Poly.x(F5) ** 3).coeffs == (0, 0, 1)

    def test_shifted_cube(self):
        g = (Poly.x(F5).shift(1)) ** 3 - Poly.constant(F5, 1)
        assert v_poly(g).coeffs == (3, 2, 1)

    def test_char2_signs_collapse(self):
        a7 = 5
        g = Poly(F8, [0, a7, 0, 0, 0, 0, 0, 0, 1])
        assert v_poly(g).coeffs == (a7, 0, 0, 0, 0, 0, 0, 1)

    def test_definition_exactly(self):
        rng = random.Random(1)
        for _ in range(40):
            g = Poly(F9, [rng.randrange(9) for _ in range(rng.randrange(2, 9))])
            if g.degree < 1:
                continue
            v = v_poly(g)
            # multiply back: v(x) * (-x) + g(0) must equal g(-x)
            minus_x = Poly(F9, [0, F9.neg(1)])
            lhs = v * minus_x + Poly.constant(F9, g.coeff(0))
            g_negx = Poly(F9, [c if i % 2 == 0 else F9.neg(c)
                               for i, c in enumerate(g.coeffs)])
            assert lhs == g_negx
            assert v.degree == g.degree - 1
            assert v.coeff(0) == g.derivative().coeff(0)

    def test_constant_rejected(self):
        with pytest.raises(ConstantPolynomial):
            v_poly(Poly.constant(F5, 3))


class TestPermutationOracles:
    def test_identity(self):
        for ctx in (F2, F3, F4, F5, F8, F9):
            assert is_permutation(Poly.x(ctx))

    def test_square_not_pp_odd_char(self):
        assert not is_permutation(Poly.x(F3) ** 2)

    def test_monomial_gcd_criterion(self):
        assert is_permutation(Poly.x(F5) ** 3)

    def test_against_direct_evaluation(self):
        rng = random.Random(2)
        for ctx in (F5, F8, F9):
            for _ in range(40):
                f = Poly(ctx, [rng.randrange(ctx.order) for _ in range(5)])
                want = len({f.eval_at(x) for x in ctx.elements()}) == ctx.order
                assert is_permutation(f) == want

    def test_cpp_examples(self):
        assert is_cpp_poly(Poly.x(F3))
        assert not is_cpp_poly(Poly.x(F2))  # f + x = 0
        assert is_cpp_poly(Poly.x(F5).scale(2))

    def test_too_large(self):
        with pytest.raises(FieldTooLarge):
            is_permutation(Poly.x(F5), T25, brute_bound=10)


class TestCppMonomial:
    def test_exponent(self):
        assert cpp_exponent(T25) == 7
        assert cpp_exponent(mk_tower(F4, 3)) == 22

    def test_good_witnesses_pass(self):
        for b, _ in roots_in(Poly(F5, [3, 2, 1]), T25):
            assert is_cpp_monomial(b, T25)

    def test_bad_witness(self):
        assert not is_cpp_monomial(1, T25)

    def test_zero_rejected(self):
        with pytest.raises(ZeroCoefficient):
            is_cpp_monomial(0, T25)

    def test_matches_definition_by_brute_force(self):
        # independent oracle: evaluate b^-1 x^d + x pointwise and check both
        # the monomial part and the sum are bijections
        d = cpp_exponent(T25)
        for b in range(1, 25):
            binv = T25.inv(b)
            mono = {T25.mul(binv, T25.pow_(x, d)) for x in T25.elements()}
            summ = {T25.add(T25.mul(binv, T25.pow_(x, d)), x)
                    for x in T25.elements()}
            want = len(mono) == 25 and len(summ) == 25
            assert is_cpp_monomial(b, T25) == want


class TestGoodness:
    def test_good_example(self):
        g = (Poly.x(F5).shift(1)) ** 3 - Poly.constant(F5, 1)
        rep = goodness(g)
        assert rep.is_good and rep.reason == "Good"
        assert rep.orbit_sizes == (2,)
        assert rep.vg.coeffs == (3, 2, 1)

    def test_base_field_roots(self):
        rep = goodness(Poly(F8, [0, 1, 0, 0, 0, 0, 0, 0, 1]))
        assert not rep.is_good and rep.reason == "RootInBaseField"
        assert rep.orbit_sizes == (1,) * 7

    def test_linearized_good(self):
        w = F4.primitive_element()
        rep = goodness(Poly(F4, [0, w, 0, 0, 1]))
        assert rep.is_good and rep.orbit_sizes == (3,)

    def test_gate_reasons(self):
        rep = goodness(Poly(F5, [1, 1, 0, 1]))
        assert not rep.is_good and rep.reason == "GZeroNonzero"
        rep = goodness(Poly(F5, [0, 0, 1, 1]))
        assert not rep.is_good and rep.reason == "GPrimeZero"

    def test_report_invariants(self):
        rng = random.Random(3)
        for _ in range(50):
            g = Poly(F9, [0] + [rng.randrange(9) for _ in range(5)])
            if g.degree < 2:
                continue
            rep = goodness(g)
            assert factorize(rep.vg).expand() == rep.vg
            assert rep.orbit_sizes == tuple(sorted(
                f.degree for f, _ in factorize(rep.vg).factors))


class TestOrbitStructure:
    def test_conjugate_pair(self):
        assert [(s, r) for s, r in orbit_structure(Poly(F5, [3, 2, 1]))] == [(2, None)]

    def test_split_binomial(self):
        orbits = orbit_structure(Poly(F8, [1, 0, 0, 0, 0, 0, 0, 1]))
        assert [s for s, _ in orbits] == [1] * 7

    def test_multiplicity_ignored(self):
        orbits = orbit_structure(Poly(F2, [1, 1, 1]) ** 2)
        assert [s for s, _ in orbits] == [2]

    def test_representatives(self):
        orbits = orbit_structure(Poly(F5, [3, 2, 1]), with_reps=True)
        (s, rep), = orbits
        assert s == 2 and rep is not None
        lifted = Poly(F5, [3, 2, 1]).lift(rep.ctx)
        assert lifted.eval_at(rep.val) == 0

    def test_sizes_match_factor_degrees(self):
        rng = random.Random(4)
        from cppforge.poly import squarefree_part
        for ctx in (F4, F5, F9):
            for _ in range(60):
                f = Poly(ctx, [rng.randrange(ctx.order)
                               for _ in range(rng.randrange(3, 9))] + [1])
                orbits = orbit_structure(f)
                degs = sorted(p.degree for p, _ in factorize(squarefree_part(f)).factors)
                assert sorted(s for s, _ in orbits) == degs

    def test_sizes_match_sympy_factor_degrees(self):
        # an oracle that shares no code with the distinct-degree split
        galoistools = pytest.importorskip("sympy.polys.galoistools")
        from sympy.polys.domains import ZZ
        rng = random.Random(6)
        for p in (2, 3, 5, 7):
            ctx = mk_field(p, 1)
            for _ in range(50):
                coeffs = [rng.randrange(p) for _ in range(rng.randrange(1, 13))] + [1]
                f = Poly(ctx, coeffs)
                _, factors = galoistools.gf_factor(
                    [ZZ(c) for c in reversed(coeffs)], p, ZZ)
                degs = sorted(len(g) - 1 for g, _ in factors)
                orbits = orbit_structure(f, with_reps=f.degree <= 6)
                assert [s for s, _ in orbits] == degs
                if f.degree > 6:
                    continue
                for s, rep in orbits:
                    top = rep.ctx
                    assert f.lift(top).eval_at(rep.val) == 0
                    conj = [rep.val]
                    while len(conj) < s:
                        conj.append(top.pow_(conj[-1], p))
                    assert top.pow_(conj[-1], p) == rep.val
                    assert rep.val == min(conj)


class TestWitnesses:
    def test_q5_n2(self):
        g = (Poly.x(F5).shift(1)) ** 3 - Poly.constant(F5, 1)
        ws = witnesses_from_good(g, T25)
        assert len(ws) == 2
        assert all(w.verified == "BruteForce" and w.passed for w in ws)
        # the two roots are Frobenius conjugates ...
        assert T25.frobenius(ws[0].b, 1) == ws[1].b
        # ... in two scalar classes: v_g = x^2 + 2x + 3 gives b + b^5 = 3, and
        # b^5 = c b with c in GF(5)* would force c = -1 and then 0 = 3
        assert scalar_class_count(ws) == 2

    def test_f64_d22(self):
        w = F4.primitive_element()
        ws = witnesses_from_good(Poly(F4, [0, w, 0, 0, 1]), mk_tower(F4, 3))
        assert len(ws) == 3 and ws[0].d == 22
        assert all(x.passed for x in ws)

    def test_smaller_orbit_inside_bigger_tower(self):
        # g = x (x^2 + 2)^2 permutes GF(5) and has degree n + 1 = 5;
        # v_g = (x^2 + 2)^2 has orbit size 2 < 4, so the witnesses lie in GF(25)
        g = Poly(F5, [0, 4, 0, 4, 0, 1])
        t4 = mk_tower(F5, 4)
        ws = witnesses_from_good(g, t4)
        assert sorted(w.b for w in ws) == [25, 100]
        vg = v_poly(g).lift(t4)
        for w in ws:
            assert vg.eval_at(w.b) == 0
            assert t4.frobenius(w.b, 2) == w.b
            assert w.verified == "BruteForce" and w.passed

    def test_not_good_rejected(self):
        with pytest.raises(NotGood):
            witnesses_from_good(Poly(F8, [0, 1, 0, 0, 0, 0, 0, 0, 1]),
                                mk_tower(F8, 2))

    def test_orbit_size_must_divide(self):
        w = F4.primitive_element()
        with pytest.raises(OrbitSizeDoesNotDivideN):
            witnesses_from_good(Poly(F4, [0, w, 0, 0, 1]), mk_tower(F4, 2))

    def test_degree_must_be_n_plus_1(self):
        # the cubic is good with orbit size 2 | 4, but its GF(25) roots are not
        # CPM witnesses of GF(5^4): there x(1 + N(x)/b) permutes iff
        # t (t^2 - 2t + 3)^2 permutes GF(5), and it maps both 2 and 3 to 3
        g = (Poly.x(F5).shift(1)) ** 3 - Poly.constant(F5, 1)
        with pytest.raises(DegreeNotNPlusOne):
            witnesses_from_good(g, mk_tower(F5, 4))

    def test_json_roundtrip(self):
        g = (Poly.x(F5).shift(1)) ** 3 - Poly.constant(F5, 1)
        ws = witnesses_from_good(g, T25, family="A1", params={"e": 1})
        for w in ws:
            back = witness_from_json(w.to_json())
            assert back.tower is w.tower and back.b == w.b and back.d == w.d
            assert back.family == "A1" and back.params == {"e": 1}


class TestCppNormalize:
    def test_identity(self):
        g = Poly(F5, [0, 1, 0, 1])
        assert cpp_normalize(g, 1, 1) == g

    def test_scaling(self):
        assert cpp_normalize(Poly.x(F5) ** 3, 1, 2).coeffs == (0, 0, 0, 3)

    def test_zero_scalar(self):
        from cppforge.cpp_core import ZeroScalar
        with pytest.raises(ZeroScalar):
            cpp_normalize(Poly.x(F5), 0, 1)

    def test_preserves_goodness_and_scales_roots(self):
        rng = random.Random(5)
        checked = 0
        while checked < 100:
            g = Poly(F9, [0] + [rng.randrange(9) for _ in range(4)] + [1])
            c, cp = rng.randrange(1, 9), rng.randrange(1, 9)
            rep = goodness(g)
            h = cpp_normalize(g, c, cp)
            rep2 = goodness(h)
            assert rep.is_good == rep2.is_good
            checked += 1
            if rep.is_good:
                s = rep.orbit_sizes[0]
                top = mk_tower(F9, s) if s > 1 else F9
                r1 = {x.val for x, _ in roots_in(rep.vg, top)}
                r2 = {x.val for x, _ in roots_in(rep2.vg, top)}
                inv_cp = top.inv(cp)
                assert {top.mul(x, inv_cp) for x in r1} == r2


class TestExceptionalityProbe:
    def test_monomial_fails_at_25(self):
        probe = exceptional_necessary(Poly.x(F5) ** 3, 2)
        assert not probe and probe.failed_k == 2
        assert probe.tested == (1, 2)

    def test_identity_survives(self):
        assert exceptional_necessary(Poly.x(F5), 3).ok

    def test_good_octic_survives_k3(self):
        # a good linearized octic over GF(4): kernel roots live in degree 7
        from cppforge.families import classify_deg8
        found = None
        for a4 in range(4):
            for a6 in range(4):
                for a7 in range(4):
                    res = classify_deg8(F4, [0, 0, 0, a4, 0, a6, a7])
                    if res.good:
                        found = res.f_poly
                        break
                if found:
                    break
            if found:
                break
        assert found is not None
        probe = exceptional_necessary(found, 3)
        assert probe.ok and probe.tested == (1, 2, 3)

    def test_skips_recorded(self):
        probe = exceptional_necessary(Poly.x(F9), 4, brute_bound=100)
        assert probe.skipped == (3, 4)
