"""Polynomial ring, factorization, roots, and the special constructions."""

import random

import pytest

from cppforge import gf
from cppforge.gf import elem, mk_field, mk_tower
from cppforge.poly import (
    ConstantPolynomial,
    Poly,
    ZeroPolynomial,
    char_poly_of,
    CoefficientsOutsideSubfield,
    dickson_poly,
    factorize,
    gcd,
    is_irreducible,
    linearized_associate,
    pow_mod,
    roots_in,
    squarefree_part,
)

F2 = mk_field(2, 1)
F3 = mk_field(3, 1)
F4 = mk_field(2, 2)
F5 = mk_field(5, 1)
F8 = mk_field(2, 3)
F9 = mk_field(3, 2)


class TestRingOps:
    def test_gcd_monic(self):
        g = gcd(Poly(F3, [2, 0, 1]), Poly(F3, [2, 1]))
        assert g.coeffs == (2, 1)  # x - 1, monic

    def test_derivative_char2(self):
        assert Poly(F2, [0, 1, 0, 0, 0, 0, 0, 0, 1]).derivative().coeffs == (1,)

    def test_shift_binomial(self):
        assert (Poly.x(F5) ** 3).shift(1).coeffs == (1, 3, 3, 1)

    def test_divmod_invariant(self):
        rng = random.Random(1)
        for _ in range(50):
            f = Poly(F9, [rng.randrange(9) for _ in range(rng.randrange(2, 9))])
            g = Poly(F9, [rng.randrange(9) for _ in range(rng.randrange(1, 5))])
            if g.is_zero():
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero() or r.degree < g.degree

    def test_compose_eval(self):
        rng = random.Random(2)
        f = Poly(F5, [1, 2, 3])
        g = Poly(F5, [4, 1, 1])
        h = f.compose(g)
        for v in F5.elements():
            assert h.eval_at(v) == f.eval_at(g.eval_at(v))

    def test_large_degree_engine_matches_small_path(self):
        rng = random.Random(3)
        for ctx in (F3, F9):
            a = [rng.randrange(ctx.order) for _ in range(120)]
            b = [rng.randrange(ctx.order) for _ in range(90)]
            a[-1] = b[-1] = 1
            big = Poly(ctx, a) * Poly(ctx, b)
            # same product with the schoolbook path, forced by small slices
            acc = Poly.zero(ctx)
            for i, c in enumerate(a):
                if c:
                    acc = acc + Poly(ctx, b).scale(c) * Poly.monomial(ctx, i)
            assert big == acc
            q, r = divmod(big, Poly(ctx, b))
            assert q.coeffs == tuple(a) and r.is_zero()


class TestFactorize:
    def test_repeated_factor(self):
        f = factorize(Poly(F2, [1, 0, 1]))
        assert [(p.coeffs, m) for p, m in f.factors] == [((1, 1), 2)]

    def test_irreducible_quadratic(self):
        # cross-checked: no roots in GF(5) by scan
        poly = Poly(F5, [3, 2, 1])
        assert all(poly.eval_at(c) for c in F5.elements())
        f = factorize(poly)
        assert len(f.factors) == 1 and f.factors[0][0] == poly

    def test_splits_completely(self):
        f = factorize(Poly(F8, [1, 0, 0, 0, 0, 0, 0, 1]))
        assert len(f.factors) == 7
        assert all(p.degree == 1 for p, _ in f.factors)
        roots = {F8.neg(p.coeffs[0]) for p, _ in f.factors}
        assert roots == set(F8.units())

    @pytest.mark.parametrize("ctx", [F2, F3, F4, F5, F8, F9, mk_field(2, 6)])
    def test_roundtrip_random_irreducibles(self, ctx):
        rng = random.Random(4)
        for _ in range(12):
            target, factors = rng.randrange(4, 13), []
            total = 0
            while total < target:
                d = rng.randrange(1, min(5, target - total) + 1)
                while True:
                    cand = [rng.randrange(ctx.order) for _ in range(d)] + [1]
                    # is_irreducible takes the Rabin route, not factorize's
                    if is_irreducible(Poly(ctx, cand)):
                        break
                factors.append(Poly(ctx, cand))
                total += d
            prod = Poly.constant(ctx, rng.randrange(1, ctx.order))
            for f in factors:
                prod = prod * f
            fac = factorize(prod)
            assert fac.expand() == prod
            got = sorted((p.coeffs for p, m in fac.factors for _ in range(m)))
            want = sorted(f.coeffs for f in factors)
            assert got == want

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            factorize(Poly.zero(F5))

    def test_deterministic(self):
        f = Poly(F9, [1, 2, 3, 4, 5, 1])
        assert factorize(f).to_json() == factorize(f).to_json()


class TestIsIrreducible:
    def test_examples(self):
        assert is_irreducible(Poly(F2, [1, 1, 1]))
        assert is_irreducible(Poly(F3, [1, 0, 1]))
        w = F4.primitive_element()
        assert is_irreducible(Poly(F4, [w, 0, 0, 1]))

    def test_constant_errors(self):
        with pytest.raises(ConstantPolynomial):
            is_irreducible(Poly(F5, [2]))
        with pytest.raises(ZeroPolynomial):
            is_irreducible(Poly.zero(F5))

    @pytest.mark.parametrize("ctx,maxdeg", [(F2, 6), (F4, 6), (F5, 5),
                                            (F8, 4), (F9, 4), (mk_field(2, 4), 3)])
    def test_agrees_with_root_counting(self, ctx, maxdeg):
        """Oracle: f irreducible iff no roots in GF(q^k) for k < deg and
        exactly deg roots in GF(q^deg); roots counted by exhaustive scan."""
        rng = random.Random(5)
        for _ in range(25):
            d = rng.randrange(2, maxdeg + 1)
            coeffs = [rng.randrange(ctx.order) for _ in range(d)] + [1]
            f = Poly(ctx, coeffs)
            got = is_irreducible(f)
            ok = True
            for k in range(1, d):
                sub = ctx if k == 1 else mk_tower(ctx, k)
                lifted = f.lift(sub)
                if any(lifted.eval_at(x) == 0 for x in sub.elements()):
                    ok = False
                    break
            if ok:
                top = mk_tower(ctx, d)
                lifted = f.lift(top)
                nroots = sum(1 for x in top.elements() if lifted.eval_at(x) == 0)
                ok = nroots == d
            assert got == ok


class TestRoots:
    def test_all_units_are_roots(self):
        rr = roots_in(Poly(F8, [1, 0, 0, 0, 0, 0, 0, 1]))
        assert sorted(r.val for r, _ in rr) == list(F8.units())

    def test_no_roots_in_base(self):
        assert roots_in(Poly(F5, [3, 2, 1])) == []

    def test_conjugate_pair_in_extension(self):
        t25 = mk_tower(F5, 2)
        rr = roots_in(Poly(F5, [3, 2, 1]), t25)
        assert len(rr) == 2
        a, b = rr[0][0].val, rr[1][0].val
        assert t25.frobenius(a, 1) == b

    def test_multiplicity(self):
        f = Poly(F5, [1, 1]) ** 3 * Poly(F5, [2, 1])
        rr = roots_in(f)
        assert [(r.val, m) for r, m in rr] == [(3, 1), (4, 3)]

    def test_agrees_with_exhaustive(self):
        rng = random.Random(6)
        t = mk_tower(F4, 3)
        for _ in range(15):
            f = Poly(F4, [rng.randrange(4) for _ in range(5)] + [1])
            got = {(r.val, m) for r, m in roots_in(f, t)}
            lifted = f.lift(t)
            want = set()
            for x in t.elements():
                if lifted.eval_at(x) == 0:
                    mult, cur = 0, lifted
                    while cur.eval_at(x) == 0:
                        cur = divmod(cur, Poly(t, [t.neg(x), 1]))[0]
                        mult += 1
                    want.add((x, mult))
            assert got == want


class TestDickson:
    def test_small_expansions(self):
        # D_3 = x^3 - 3ax and D_5 = x^5 - 5ax^3 + 5a^2 x
        a = 2
        assert dickson_poly(F5, 3, a).coeffs == (0, (-3 * a) % 5, 0, 1)
        F7 = mk_field(7, 1)
        assert dickson_poly(F7, 5, a).coeffs == \
            (0, 5 * a * a % 7, 0, (-5 * a) % 7, 0, 1)
        # over GF(5) the degree-5 weights vanish entirely
        assert dickson_poly(F5, 5, a).coeffs == (0, 0, 0, 0, 0, 1)

    def test_d5_char3(self):
        assert dickson_poly(F3, 5, 1).coeffs == (0, 2, 0, 1, 0, 1)

    def test_zero_parameter(self):
        assert dickson_poly(F9, 6, 0).coeffs == (0,) * 6 + (1,)

    @pytest.mark.parametrize("ctx,k", [(F9, 5), (F9, 7), (F5, 7), (F8, 11)])
    def test_functional_identity(self, ctx, k):
        """Independent oracle: D_k(y + a/y, a) = y^k + (a/y)^k."""
        rng = random.Random(7)
        top = mk_tower(ctx, 2)
        for _ in range(50):
            a = rng.randrange(1, ctx.order)
            d = dickson_poly(ctx, k, a).lift(top)
            y = rng.randrange(1, top.order)
            ay = top.div(a, y)
            assert d.eval_at(top.add(y, ay)) == top.add(top.pow_(y, k),
                                                        top.pow_(ay, k))


class TestLinearized:
    def test_unrolled_examples(self):
        p3 = mk_field(3, 2)
        assert linearized_associate(Poly(p3, [0, 1]), 1).coeffs == (0, 0, 0, 1)
        assert linearized_associate(Poly(p3, [1, 1]), 1).coeffs == (0, 1, 0, 1)
        L = linearized_associate(Poly(F4, [1, 1, 1]), 1)  # x^2 + x + 1
        assert L.degree == 4 and L.coeffs[4] == 1 and L.coeffs[2] == 1 and L.coeffs[1] == 1

    def test_subfield_guard(self):
        w = F4.primitive_element()
        with pytest.raises(CoefficientsOutsideSubfield):
            linearized_associate(Poly(F4, [w, 1]), 1)

    def test_additivity(self):
        rng = random.Random(8)
        L = linearized_associate(Poly(F8, [1, 0, 1]), 1)
        t = mk_tower(F8, 2)
        lifted = L.lift(t)
        for _ in range(50):
            x, y = rng.randrange(t.order), rng.randrange(t.order)
            assert lifted.eval_at(t.add(x, y)) == t.add(lifted.eval_at(x),
                                                        lifted.eval_at(y))


class TestCharPoly:
    def test_embedded_element(self):
        t = mk_tower(F5, 2)
        for b in F5.elements():
            A = char_poly_of(elem(t, b), t)
            assert A[0].val == 1
            assert A[1].val == F5.mul(2, b)
            assert A[2].val == F5.mul(b, b)

    def test_f4_generator(self):
        t4 = mk_tower(F2, 2)
        A = char_poly_of(elem(t4, 2), t4)
        assert [a.val for a in A] == [1, 1, 1]

    def test_zero(self):
        t = mk_tower(F9, 2)
        A = char_poly_of(elem(t, 0), t)
        assert [a.val for a in A] == [1, 0, 0]

    def test_reconstruction_annihilates(self):
        rng = random.Random(9)
        for base, n in ((F5, 2), (F4, 3), (F9, 2)):
            t = mk_tower(base, n)
            for _ in range(30):
                b = rng.randrange(t.order)
                A = char_poly_of(elem(t, b), t)
                # sum (-1)^(n-i) A_(n-i) T^i
                coeffs = []
                for i in range(n + 1):
                    a = A[n - i].val
                    coeffs.append(a if (n - i) % 2 == 0 else base.neg(a))
                f = Poly(base, coeffs).lift(t)
                assert f.eval_at(b) == 0
                # all coefficients fixed by the base Frobenius
                for a in A:
                    assert base.pow_(a.val, base.order) == a.val

    def test_conjugate_count_divides_n(self):
        rng = random.Random(10)
        t = mk_tower(F4, 3)
        for _ in range(40):
            b = rng.randrange(t.order)
            conj = {b}
            cur = t.frobenius(b, 1)
            while cur != b:
                conj.add(cur)
                cur = t.frobenius(cur, 1)
            assert 3 % len(conj) == 0


class TestPowMod:
    def test_fermat(self):
        f = Poly(F5, [3, 2, 1])
        h = pow_mod(Poly.x(F5), 25, f)
        assert h.coeffs == (0, 1)  # x^(q^2) = x mod irreducible quadratic

    def test_squarefree_part(self):
        f = Poly(F2, [1, 1]) ** 4 * Poly(F2, [1, 1, 1])
        assert squarefree_part(f) == Poly(F2, [1, 1]) * Poly(F2, [1, 1, 1])

    def test_squarefree_part_of_constant_is_one(self):
        for ctx in (F2, F5, F9):
            assert squarefree_part(Poly.constant(ctx, ctx.order - 1)) == Poly.constant(ctx, 1)
