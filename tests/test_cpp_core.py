"""Goodness, oracles, orbits, witnesses, and the scaling equivalence."""

import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cppforge import cpp_core, gf, poly
from cppforge.families import FamilyItem, construct_c, enumerate_family, family_params
from cppforge.gf import FieldTooLarge, elem, mk_field, mk_tower
from cppforge.poly import ConstantPolynomial, Poly, factorize, orbit_split, roots_in
from cppforge.cpp_core import (
    CppWitness,
    DegreeNotNPlusOne,
    NotGood,
    OrbitSizeDoesNotDivideN,
    OrbitSizeMismatch,
    ZeroCoefficient,
    _eval_all_sparse,
    _eval_blocks,
    cpp_exponent,
    cpp_normalize,
    criterion_verdict,
    gate,
    goodness,
    goodness_class,
    is_cpp_monomial,
    is_cpp_poly,
    is_permutation,
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


def _orbit_sizes(f: Poly) -> tuple:
    """Frobenius orbit sizes of the distinct roots of f, increasing, from orbit_split."""
    return tuple(d for d, part in orbit_split(f)[1] for _ in range(part.degree // d))


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

    @pytest.mark.parametrize("p", [131, 257, 1031])
    def test_digits_of_primes_past_a_signed_byte(self, p):
        # digits of p >= 131 wrapped in an int8 digit matrix, so x^3 over
        # GF(131), a permutation since gcd(3, 130) = 1, was reported as none
        F = mk_field(p, 1)
        for coeffs in ([0, 0, 0, 1], [0, 1, 0, 1], [5, 2, 0, 0, 0, p - 1]):
            f = Poly(F, coeffs)
            want = len({f.eval_at(x) for x in F.elements()}) == p
            assert is_permutation(f) == want
        assert is_permutation(Poly.x(F) ** 3)

    def test_odd_p_past_2_21_at_the_hard_cap(self, monkeypatch):
        # gate evaluates g over GF(q) at HARD_BRUTE_CAP; 3^14 - 1 = 8·547·1093,
        # so x^5 permutes GF(3^14) and x^2 does not.  The tables are dropped
        # when the test ends.
        F = mk_field(3, 14)
        assert 1 << 21 < F.order <= gf.HARD_BRUTE_CAP
        for name in ("_exp", "_log"):
            monkeypatch.setattr(F, name, None)
        for e, want in ((5, True), (2, False)):
            assert math.gcd(e, F.order - 1) == (1 if want else 2)
            assert is_permutation(Poly.x(F) ** e, brute_bound=gf.HARD_BRUTE_CAP) is want

    def test_tower_over_a_prime_past_a_signed_byte(self):
        # GF(137^2): two base-137 digits per element
        t = mk_tower(mk_field(137, 1), 2)
        d = cpp_exponent(t)
        assert math.gcd(d, t.order - 1) == 1
        for b in (1, 2, 140, 5000):
            binv = t.inv(b)
            values = {t.add(t._mul_slow(binv, t.pow_(x, d)), x) for x in t.elements()}
            assert is_cpp_monomial(b, t) == (len(values) == t.order)


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
        # independent oracle: evaluate b^-1 x^d + x pointwise with the
        # table-free multiplication and check both the monomial part and the
        # sum are bijections; GF(4^3) and GF(8^2) take the xor kernel
        for t in (T25, mk_tower(F4, 3), mk_tower(F8, 2)):
            def slow_pow(a, e):
                acc = 1
                for _ in range(e):
                    acc = t._mul_slow(acc, a)
                return acc

            d = cpp_exponent(t)
            xd = {x: slow_pow(x, d) for x in t.elements()}
            for b in t.units():
                binv = slow_pow(b, t.order - 2)
                mono = {t._mul_slow(binv, xd[x]) for x in t.elements()}
                summ = {t.add(t._mul_slow(binv, xd[x]), x) for x in t.elements()}
                want = len(mono) == t.order and len(summ) == t.order
                assert is_cpp_monomial(b, t) == want

    def test_injectivity_sees_one_repeat(self):
        # f = x + (v - a)(1 - (x - a)^63) is x off a and v at a: one value
        # repeated, one missed, so the cover lacks exactly a
        F64 = mk_field(2, 6)
        a, v = 40, 3
        f = Poly.x(F64) + Poly.constant(F64, a ^ v) * (
            Poly.constant(F64, 1) - (Poly.x(F64) - Poly.constant(F64, a)) ** 63)
        for g, missed in ((Poly.x(F64), []), (f, [a])):
            terms = {j: c for j, c in enumerate(g.coeffs) if c}
            cover = _eval_all_sparse(F64, terms, gf.DEFAULT_BRUTE_BOUND)
            assert np.flatnonzero(~cover).tolist() == missed
            assert is_permutation(g) == (not missed)


class TestCppVerdict:
    """criterion_verdict, G_b over GF(q), is the verdict; the brute force only checks it."""

    # the 24 towers of order <= 625 are few enough for hypothesis to draw
    # them all; a G_b with its coefficients reversed passes on all but
    # GF(4^3) and GF(5^4)
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(p=st.sampled_from([2, 3, 5, 7]), m=st.integers(1, 2), n=st.integers(1, 4))
    def test_criterion_equals_brute_force_on_every_unit(self, p, m, n):
        # with the brute bound lowered to 1 no tower fits it, so the verdict
        # is the criterion's for every unit, by a permutation test over
        # GF(q) or, for gcd(d, q^n - 1) > 1, of x^d; the brute force runs
        # under the real bound to compare
        assume(p ** (m * n) <= 625)
        t = mk_tower(mk_field(p, m), n)
        coprime = math.gcd(cpp_exponent(t), t.order - 1) == 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gf, "DEFAULT_BRUTE_BOUND", 1)
            verdicts = {b: criterion_verdict(b, t) for b in t.units()}
        for b, (rule, passed) in verdicts.items():
            assert rule == "Permutation"
            assert passed == is_cpp_monomial(b, t)
            assert coprime or passed is False

    def test_criterion_evaluates_over_gf_q_only(self, monkeypatch):
        # criterion_verdict neither brute-forces nor evaluates over the tower
        t = mk_tower(F8, 4)
        seen = []
        real = cpp_core._eval_all_sparse

        def spy(ctx, terms, bound):
            seen.append(ctx)
            return real(ctx, terms, bound)

        monkeypatch.setattr(cpp_core, "_eval_all_sparse", spy)
        monkeypatch.setattr(cpp_core, "is_cpp_monomial", None)
        for b in (1, 7, 100, 4000):
            rule, passed = criterion_verdict(b, t)
            assert rule == "Permutation" and passed in (True, False)
        assert seen == [F8] * 4

    def test_brute_force_within_the_bound(self):
        # GF(5^2): d = 7, gcd(7, 24) = 1, so G_b over GF(5) decides and the
        # brute force over all 25 elements agrees
        assert criterion_verdict(9, T25) == ("Permutation", True)
        assert criterion_verdict(1, T25) == ("Permutation", False)
        assert is_cpp_monomial(9, T25) and not is_cpp_monomial(1, T25)

    def test_brute_force_past_2_21_agrees_with_the_criterion(self, monkeypatch):
        # GF(5^10) has 9,765,625 elements, within DEFAULT_BRUTE_BOUND; the
        # brute force needs no table of the field beyond exp and log, which
        # are dropped when the test ends
        t = mk_tower(F5, 10)
        assert 1 << 21 < t.order <= gf.DEFAULT_BRUTE_BOUND
        for name in ("_exp", "_log"):
            monkeypatch.setattr(t, name, None)
        assert is_cpp_monomial(7, t) == criterion_verdict(7, t)[1]

    def test_criterion_only_past_the_tables_of_gf_q(self, monkeypatch):
        # n = 1 (d = 2, coprime to q - 1 for even q only): the tower is GF(q)
        # itself, so with GF(16) over the table cap G_b cannot be evaluated,
        # nor can the brute force that would check it
        f16 = mk_field(2, 4)
        t = mk_tower(f16, 1)
        for ctx in (t, f16):
            for name in ("_exp", "_log"):
                monkeypatch.setattr(ctx, name, None)
        monkeypatch.setattr(gf, "HARD_BRUTE_CAP", f16.order - 1)
        assert criterion_verdict(2, t) == ("CriterionOnly", None)
        with pytest.raises(FieldTooLarge):
            is_cpp_monomial(2, t)


class TestRowLayout:
    """_eval_blocks lays the units out by cosets of the index-Q subgroup."""

    # towers of degree > 1 have Q = q - 1; fields and degree-1 towers have Q = 1
    # for odd p, GF(3^5) and GF(5^3) split k into uneven digit halves, and
    # GF(7) (k = 1) sums its encodings with no digit table
    CONTEXTS = [((2, 2), 3), ((2, 3), 2), ((2, 5), 2), ((5, 1), 2), ((3, 2), 2),
                ((3, 1), 4), ((2, 7), None), ((7, 2), None), ((2, 4), 1),
                ((3, 1), 5), ((5, 3), None), ((7, 1), None)]

    @pytest.mark.parametrize("base, n", CONTEXTS)
    def test_pointwise_against_slow_arithmetic(self, monkeypatch, base, n):
        ctx = mk_field(*base) if n is None else mk_tower(mk_field(*base), n)
        m = ctx.order - 1
        Q = ctx.q - 1 if n is not None and n > 1 else 1
        M = m // Q
        gamma = ctx.primitive_element()
        pw = [1]
        for _ in range(m - 1):
            pw.append(ctx._mul_slow(pw[-1], gamma))
        rng = random.Random(ctx.order)
        for _ in range(3):
            # 1, M + 1 and 2M + 1 are three rotations of one row
            js = [0, 1, M + 1, 2 * M + 1, m, 2 * m, m + rng.randrange(m), rng.randrange(2, 3 * m)]
            terms = {j: rng.randrange(ctx.order) for j in js}
            terms[0] = rng.randrange(1, ctx.order)

            def value(i):
                # sum c_j x^j at x = gamma^i; 0^0 = 1 for the constant term
                acc = terms[0]
                for j, c in terms.items():
                    if j:
                        acc = ctx.add(acc, ctx._mul_slow(c, pw[i * j % m]))
                return acc

            want = [value(i) for i in range(m)]

            # one block of all rows; blocks of two rows, the last one short
            # where Q is odd; and blocks of part of a row, whose segments
            # cut the rotations at other places than the row ends do
            for block in (cpp_core._BLOCK, 2 * M + 1, M // 2 + 1, 5):
                monkeypatch.setattr(cpp_core, "_BLOCK", block)
                W, R = min(M, block), min(Q, max(1, block // M))
                blocks = _eval_blocks(ctx, terms, gf.DEFAULT_BRUTE_BOUND)
                for c in range(0, M, W):
                    for lo in range(0, Q, R):
                        vals = next(blocks)
                        nr, w = min(R, Q - lo), min(W, M - c)
                        assert vals.shape == (nr, w)
                        assert vals.ravel().tolist() == [
                            want[Q * (c + s) + r] for r in range(lo, lo + nr) for s in range(w)]
                assert next(blocks, None) is None
                cover = _eval_all_sparse(ctx, terms, gf.DEFAULT_BRUTE_BOUND)
                assert set(np.flatnonzero(cover)) == set(want) | {terms[0]}

    # number of units b for which b^(-1) x^d is a complete permutation monomial
    @pytest.mark.parametrize("base, n, count", [
        ((5, 1), 2, 8), ((7, 1), 2, 0), ((3, 1), 4, 38), ((5, 1), 4, 60),
        ((3, 1), 6, 362), ((2, 2), 3, 15), ((2, 3), 2, 14), ((2, 2), 4, 48),
        ((2, 5), 2, 62), ((2, 3), 4, 238), ((3, 2), 2, 8)])
    def test_cpm_counts_over_all_units(self, base, n, count):
        t = mk_tower(mk_field(*base), n)
        assert sum(is_cpp_monomial(b, t) for b in t.units()) == count

    def test_rows_not_pickled(self):
        # a pickled context is the interned one, rebuilt from (p, m)
        ctx = mk_field(2, 6)
        assert is_permutation(Poly.x(ctx) ** 5, ctx)
        assert ctx._exp is not None
        data = pickle.dumps(ctx)
        assert len(data) < 100
        assert pickle.loads(data) is ctx


def _peak_bytes(fn) -> int:
    """Peak bytes that fn allocates, over those traced before it ran.

    numpy reports its data buffers to tracemalloc, so the count is exact.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestKernelMemory:
    """int32 exp/log tables; the kernel holds a bool cover and one block of values."""

    @pytest.mark.parametrize("ctx", [mk_tower(F8, 4), mk_tower(F3, 6), mk_field(3, 7)],
                             ids=["char2-tower", "odd-tower", "field"])
    def test_tables_and_rows_are_int32(self, ctx):
        # exp is the coset rows, flattened; there is no other copy of it
        assert is_permutation(Poly.x(getattr(ctx, "base", ctx)), ctx)
        assert ctx._exp.dtype == ctx._log.dtype == np.int32
        assert ctx._exp.shape == (ctx.order - 1,)

    def test_char2_brute_force_peaks(self, monkeypatch):
        # the first brute force after the tables are built and a later one
        # each add the bool cover (1 byte per element) and one block
        t = mk_tower(mk_field(2, 5), 4)
        assert math.gcd(cpp_exponent(t), t.order - 1) == 1
        for name in ("_exp", "_log"):
            monkeypatch.setattr(t, name, None)
        t.ensure_tables()
        cold = _peak_bytes(lambda: is_cpp_monomial(7, t))
        warm = _peak_bytes(lambda: is_cpp_monomial(7, t))
        assert cold <= 1.5 * t.order
        assert warm <= 1.5 * t.order

    def test_tables_hold_8_bytes_per_element(self):
        t = mk_tower(mk_field(2, 5), 4)
        is_cpp_monomial(7, t)
        assert t._exp.nbytes + t._log.nbytes <= 8 * t.order

    def test_odd_p_brute_force_peaks(self, monkeypatch):
        # as in characteristic 2, the first brute force after the tables are
        # built and a later one each add the bool cover, one block and a
        # digit table of 3^6 rows; no digit matrix of the field is built
        t = mk_tower(F3, 12)
        assert math.gcd(cpp_exponent(t), t.order - 1) == 1
        for name in ("_exp", "_log"):
            monkeypatch.setattr(t, name, None)
        t.ensure_tables()
        cold = _peak_bytes(lambda: is_cpp_monomial(5, t))
        warm = _peak_bytes(lambda: is_cpp_monomial(5, t))
        assert cold < 6 * t.order
        assert warm < 6 * t.order

    @pytest.mark.parametrize("base, n", [((3, 1), 12), ((3, 2), 6)])
    def test_odd_p_warm_brute_force_peaks_below_6_bytes_per_element(self, base, n):
        # the digit sums of one block are folded into its values by Horner,
        # one column at a time, and a block has at most 2^16 elements even
        # where a row is longer: GF(3^12) over GF(3) has two rows of 265,720,
        # GF((3^2)^6) eight of 66,430, and both peak at about 5.9 bytes per
        # element (21 and 6 when a block held at least one whole row)
        t = mk_tower(mk_field(*base), n)
        assert math.gcd(cpp_exponent(t), t.order - 1) == 1
        is_cpp_monomial(5, t)
        assert _peak_bytes(lambda: is_cpp_monomial(5, t)) < 6 * t.order

    @pytest.mark.parametrize("j, bound", [(1, 2), (32, 3.5)])
    def test_field_of_one_long_row_peaks_by_the_block(self, j, bound):
        # GF(2^20) as a field is one row of 2^20 - 1 units; x is a rotation
        # of it (1.5 bytes per element at the peak, 9 when the block was the
        # whole row) and x^32 a gather (3.0, against 29)
        F = mk_field(2, 20)
        f = Poly.x(F) ** j
        assert is_permutation(f, F)
        assert _peak_bytes(lambda: is_permutation(f, F)) < bound * F.order


class TestGoodness:
    def test_good_example(self):
        g = (Poly.x(F5).shift(1)) ** 3 - Poly.constant(F5, 1)
        rep = goodness(g)
        assert rep.is_good and rep.reason == "Good"
        assert _orbit_sizes(rep.vg) == (2,)
        assert rep.vg.coeffs == (3, 2, 1)

    def test_base_field_roots(self):
        rep = goodness(Poly(F8, [0, 1, 0, 0, 0, 0, 0, 0, 1]))
        assert not rep.is_good and rep.reason == "RootInBaseField"
        assert _orbit_sizes(rep.vg) == (1,) * 7

    def test_linearized_good(self):
        w = F4.primitive_element()
        rep = goodness(Poly(F4, [0, w, 0, 0, 1]))
        assert rep.is_good and _orbit_sizes(rep.vg) == (3,)

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
            assert _orbit_sizes(rep.vg) == tuple(sorted(
                f.degree for f, _ in factorize(rep.vg).factors))


def _counting(mp, name: str) -> list:
    """Count the calls of poly.<name> made while mp is active."""
    calls = [0]
    inner = getattr(poly, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    mp.setattr(poly, name, counted)
    return calls


def _goodness_from_full_split(g: Poly) -> tuple:
    """(is_good, reason, radical) read off the whole orbit_split(v_g)."""
    vg = v_poly(g)
    radical = orbit_split(vg)[0]
    sizes = _orbit_sizes(vg)
    if g.coeff(0) != 0:
        reason = "GZeroNonzero"
    elif vg.coeff(0) == 0:
        reason = "GPrimeZero"
    elif len(sizes) == 1:
        reason = "Good"
    else:
        reason = "RootInBaseField" if sizes[0] == 1 else "MultipleOrbits"
    return reason == "Good", reason, radical


class TestGoodnessEarlyExit:
    """`goodness` gates first and then reads only the first part of the split."""

    @pytest.mark.parametrize("coeffs, reason", [([1, 1, 0, 1], "GZeroNonzero"),
                                                ([0, 0, 1, 1], "GPrimeZero")])
    def test_gates_make_no_gcd(self, coeffs, reason):
        g = Poly(F5, coeffs)
        with pytest.MonkeyPatch.context() as mp:
            gcds = _counting(mp, "_pgcd")
            rep = goodness(g)
            assert rep.reason == reason and gcds[0] == 0
            # the radical is still there on request
            assert rep.radical == orbit_split(rep.vg)[0]

    def test_c_item_stops_after_two_frobenius_steps(self):
        # v_g of C {r: 3, a: 4, e: 8} over GF(9) has degree 350 and a part of
        # degree-2 irreducibles; the full split runs on to d = 12
        g = construct_c(F9, 3, 4, 8).g
        with pytest.MonkeyPatch.context() as mp:
            steps = _counting(mp, "_frobenius")
            rep = goodness(g)
        assert rep.reason == "MultipleOrbits" and steps[0] <= 2

    @pytest.mark.parametrize("path", ["list", "engine"])
    @pytest.mark.parametrize("F", [F2, F3, F4, F9], ids=["GF2", "GF3", "GF4", "GF9"])
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(data=st.data())
    def test_matches_full_split(self, F, path, data):
        q = F.order
        g = Poly(F, [data.draw(st.sampled_from([0, 0, 0, 1]))]
                 + data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=10))
                 + [data.draw(st.integers(1, q - 1))])
        with pytest.MonkeyPatch.context() as mp:
            if path == "engine":
                # the route of large moduli on every modulus of two or more
                # terms: each Frobenius step is one pow_mod, not a row product
                mp.setattr(poly, "_ROWS_MIN", 2)
            rep = goodness(g)
            got = (rep.is_good, rep.reason, rep.radical)
            assert got == _goodness_from_full_split(g)


class TestOrbitStructure:
    """orbit_split's distinct-degree parts give the Frobenius orbit sizes."""

    def test_conjugate_pair(self):
        assert _orbit_sizes(Poly(F5, [3, 2, 1])) == (2,)

    def test_split_binomial(self):
        assert _orbit_sizes(Poly(F8, [1, 0, 0, 0, 0, 0, 0, 1])) == (1,) * 7

    def test_multiplicity_ignored(self):
        assert _orbit_sizes(Poly(F2, [1, 1, 1]) ** 2) == (2,)

    def test_sizes_match_factor_degrees(self):
        rng = random.Random(4)
        from cppforge.poly import squarefree_part
        for ctx in (F4, F5, F9):
            for _ in range(60):
                f = Poly(ctx, [rng.randrange(ctx.order)
                               for _ in range(rng.randrange(3, 9))] + [1])
                degs = sorted(p.degree for p, _ in factorize(squarefree_part(f)).factors)
                assert _orbit_sizes(f) == tuple(degs)

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
                assert _orbit_sizes(f) == tuple(degs)


class TestWitnesses:
    def test_q5_n2(self):
        g = (Poly.x(F5).shift(1)) ** 3 - Poly.constant(F5, 1)
        ws = witnesses_from_good(g, T25)
        assert len(ws) == 2
        # gcd(d, 24) = gcd(7, 24) = 1, so the gate's rule is Permutation
        assert all(w.verified == "Permutation" and w.passed for w in ws)
        assert all(is_cpp_monomial(w.b, T25) == w.passed for w in ws)
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
            # gcd(d, 624) = gcd(157, 624) = 1
            assert w.verified == "Permutation" and w.passed
            assert is_cpp_monomial(w.b, t4) == w.passed

    def test_brute_force_over_its_table_cap_is_decided_by_the_criterion(self, monkeypatch):
        # with the brute bound below the tower the criterion still decides:
        # b^2 = 3 and b^5 = -b, so the conjugates are b, -b, b, -b and
        # G_b = t (t^2 - b^2)^2 = g, which permutes GF(5) (0, 4, 2, 3, 1 at
        # 0..4); gcd(157, 624) = 1
        g = Poly(F5, [0, 4, 0, 4, 0, 1])
        t4 = mk_tower(F5, 4)
        monkeypatch.setattr(cpp_core, "DEFAULT_BRUTE_BOUND", t4.order - 1)
        with pytest.raises(FieldTooLarge):
            is_cpp_monomial(25, t4)
        ws = witnesses_from_good(g, t4)
        assert sorted(w.b for w in ws) == [25, 100]
        assert all(w.verified == "Permutation" and w.passed for w in ws)

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

    def test_orbit_size_mismatch_raises(self, monkeypatch):
        # a root in the wrong orbit must not pass silently; 1 lies in GF(5)
        monkeypatch.setattr(cpp_core, "one_root", lambda f, t: elem(t, 1))
        g = (Poly.x(F5).shift(1)) ** 3 - Poly.constant(F5, 1)
        with pytest.raises(OrbitSizeMismatch):
            witnesses_from_good(g, T25)

    def test_json_roundtrip(self):
        g = (Poly.x(F5).shift(1)) ** 3 - Poly.constant(F5, 1)
        ws = witnesses_from_good(g, T25, family="A1", params={"e": 1})
        for w in ws:
            back = witness_from_json(w.to_json())
            assert back.tower is w.tower and back.b == w.b and back.d == w.d
            assert back.family == "A1" and back.params == {"e": 1}


class TestFrobeniusInvariance:
    """witnesses_from_good labels every root of v_g by the gate on g; keep the reason checked."""

    @pytest.mark.parametrize("base, n", [((5, 1), 2), ((3, 1), 4), ((2, 2), 3),
                                         ((2, 3), 2), ((2, 5), 2)])
    def test_verdict_is_frobenius_invariant(self, base, n):
        t = mk_tower(mk_field(*base), n)
        verdict = {b: is_cpp_monomial(b, t) for b in t.units()}
        assert any(verdict.values())
        assert all(verdict[t.frobenius(b)] == v for b, v in verdict.items())

    # family C is expected never to give a good g, so it yields no witnesses
    @pytest.mark.parametrize("tag, base, n", [
        ("A1", (2, 1), 4), ("A1", (2, 3), 4), ("A1", (3, 1), 4), ("A1", (5, 1), 2),
        ("A2", (2, 3), 4), ("D_lin2", (2, 2), None), ("D_lin2", (2, 4), None),
        ("D_lin2", (3, 2), None), ("D_lin2", (5, 2), None)])
    def test_every_witness_brute_forced_alone(self, tag, base, n):
        base = mk_field(*base)
        checked = 0
        for item in enumerate_family(base, family_params(tag, base, n)):
            if not isinstance(item, FamilyItem):
                continue
            tn = item.g.degree - 1
            if base.order ** tn > 1 << 19 or not goodness(item.g).is_good:
                continue
            t = mk_tower(base, tn)
            coprime = math.gcd(cpp_exponent(t), t.order - 1) == 1
            for w in witnesses_from_good(item.g, t):
                # the gcd is a permutation test of x^d: a larger one fails b
                assert w.verified == "Permutation"
                assert coprime or w.passed is False
                assert is_cpp_monomial(w.b, t) == w.passed
                checked += 1
        assert checked


class TestGate:
    """gate(g) labels the witnesses of g: G_b = g/lc(g) for every root b of v_g."""

    @pytest.mark.parametrize("tag, base, n", [
        ("A1", (2, 1), 4), ("A1", (2, 3), 4), ("A1", (3, 1), 4), ("A1", (5, 1), 2),
        ("A2", (2, 1), 4), ("A2", (2, 3), 4), ("B", (3, 1), None), ("B", (5, 1), None),
        ("D_lin2", (2, 2), None), ("D_lin2", (2, 3), None), ("D_lin2", (2, 4), None),
        ("D_lin2", (3, 2), None), ("D_lin2", (3, 4), None), ("D_lin3", (2, 1), None),
        ("D_lin3", (2, 2), None), ("D_lin3", (3, 1), None)])
    def test_gate_on_g_equals_criterion_on_each_witness(self, tag, base, n):
        base = mk_field(*base)
        checked = 0
        for item in enumerate_family(base, family_params(tag, base, n)):
            if not isinstance(item, FamilyItem):
                continue
            tn = item.g.degree - 1
            if base.order ** tn > 1 << 16:
                continue
            rep = goodness(item.g)
            if not rep.is_good:
                continue
            t = mk_tower(base, tn)
            verdict = gate(item.g, t)
            for w in witnesses_from_good(item.g, t, report=rep):
                assert (w.verified, w.passed) == verdict == criterion_verdict(w.b, t)
                checked += 1
        assert checked

    def test_witnesses_need_no_conjugates_and_no_brute_force(self, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(cpp_core, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return counted

        for name in ("char_poly_of", "is_cpp_monomial"):
            monkeypatch.setattr(cpp_core, name, spy(name))
        base = mk_field(2, 3)
        t = mk_tower(base, 4)
        ws = []
        for item in enumerate_family(base, family_params("A2", base, 4)):
            if isinstance(item, FamilyItem) and goodness(item.g).is_good:
                ws += witnesses_from_good(item.g, t)
        assert ws and any(w.passed for w in ws) and calls == []


class TestScalingInvariance:
    """The scan brute-forces one witness per goodness class; keep the reason checked."""

    @pytest.mark.parametrize("base, n", [((5, 1), 2), ((3, 1), 4), ((2, 2), 3),
                                         ((2, 3), 2), ((7, 1), 2), ((3, 2), 2),
                                         ((2, 3), 4)])
    def test_verdict_is_invariant_under_base_field_scalars(self, base, n):
        # G_(cb)(t) = c^(n+1) G_b(t/c), so c·b is a CPM iff b is; GF(7^2)
        # has none, since gcd(d, 48) = 3
        base = mk_field(*base)
        t = mk_tower(base, n)
        verdict = {b: is_cpp_monomial(b, t) for b in t.units()}
        assert any(verdict.values()) == (math.gcd(cpp_exponent(t), t.order - 1) == 1)
        for c in base.units():
            assert all(verdict[t.mul(c, b)] == v for b, v in verdict.items())

    def test_items_of_one_goodness_class_share_the_verdict(self):
        # A2 over GF(8) with n = 4: the brute force of every witness orbit
        base = mk_field(2, 3)
        t = mk_tower(base, 4)
        by_class = {}
        for item in enumerate_family(base, family_params("A2", base, 4)):
            if isinstance(item, FamilyItem) and goodness(item.g).is_good:
                verdicts = {is_cpp_monomial(w.b, t)
                            for w in witnesses_from_good(item.g, t)}
                by_class.setdefault(goodness_class(item.g), set()).update(verdicts)
        assert len(by_class) == 4 and sum(map(len, by_class.values())) == 4
        assert any(v == {True} for v in by_class.values())


class TestScalarClassCount:
    @pytest.mark.parametrize("tag, base, n, ranges", [
        ("A2", (2, 5), 4, {"a": [3]}), ("B", (5, 1), 4, {})])
    def test_matches_tower_multiplication(self, tag, base, n, ranges):
        base = mk_field(*base)
        t = mk_tower(base, n)
        ws = []
        for item in enumerate_family(base, family_params(tag, base, n, ranges)):
            if isinstance(item, FamilyItem) and item.g.degree == n + 1:
                rep = goodness(item.g)
                if rep.is_good:
                    ws += witnesses_from_good(item.g, t, report=rep)
        assert ws
        want = len({min(t.mul(w.b, c) for c in base.units()) for w in ws})
        assert scalar_class_count(ws) == want


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
                s = rep.radical.degree
                top = mk_tower(F9, s) if s > 1 else F9
                r1 = {x.val for x, _ in roots_in(rep.vg, top)}
                r2 = {x.val for x, _ in roots_in(rep2.vg, top)}
                inv_cp = top.inv(cp)
                assert {top.mul(x, inv_cp) for x in r1} == r2


KEY_FIELDS = [(2, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2)]


@st.composite
def poly_and_scalars(draw, zero_at_zero=True):
    """A polynomial of degree 2..8 over a KEY_FIELDS field, c, c' and a Frobenius power."""
    base = mk_field(*draw(st.sampled_from(KEY_FIELDS)))
    deg = draw(st.integers(2, 8))
    low = draw(st.lists(st.integers(0, base.order - 1), min_size=deg, max_size=deg))
    if zero_at_zero:
        low[0] = 0
    g = Poly(base, low + [draw(st.integers(1, base.order - 1))])
    unit = st.integers(1, base.order - 1)
    return g, draw(unit), draw(unit), draw(st.integers(0, base.m - 1))


def _frobenius_image(g, i):
    return Poly(g.ctx, [g.ctx.frobenius(c, i) for c in g.coeffs])


def _verdict(g):
    rep = goodness(g)
    return rep.is_good, rep.reason


def _deg9_polys(base):
    items = enumerate_family(base, family_params("Deg9", base, None))
    return [item.g for item in items if isinstance(item, FamilyItem)]


class TestGoodnessClass:
    """goodness_class keys one member of g's class under c·g(c'x) and Frobenius."""

    @settings(max_examples=150, deadline=None)
    @given(poly_and_scalars())
    def test_invariant_under_normalize_and_frobenius(self, case):
        g, c, cp, i = case
        key = goodness_class(g)
        assert goodness_class(cpp_normalize(g, c, cp)) == key
        assert goodness_class(_frobenius_image(g, i)) == key
        assert goodness_class(_frobenius_image(cpp_normalize(g, c, cp), i)) == key

    @settings(max_examples=100, deadline=None)
    @given(poly_and_scalars(zero_at_zero=False))
    def test_invariant_with_a_nonzero_constant(self, case):
        g, c, cp, i = case
        h = _frobenius_image(g.scale_arg(cp).scale(c), i)
        assert goodness_class(h) == goodness_class(g)
        assert _verdict(h) == _verdict(g)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(KEY_FIELDS), st.integers(2, 5), st.randoms(use_true_random=False))
    def test_equal_keys_give_equal_verdicts(self, field, deg, rnd):
        base = mk_field(*field)
        seen = {}
        for _ in range(40):
            g = Poly(base, [0] + [rnd.randrange(base.order) for _ in range(deg - 1)]
                     + [rnd.randrange(1, base.order)])
            assert seen.setdefault(goodness_class(g), _verdict(g)) == _verdict(g)

    @pytest.mark.parametrize("field, classes", [((3, 1), 32), ((3, 2), 117)])
    def test_deg9_keys_count_the_classes(self, field, classes):
        base = mk_field(*field)
        polys = _deg9_polys(base)
        brute = {min(_frobenius_image(cpp_normalize(g, 1, cp, monic=True), i).coeffs
                     for cp in base.units() for i in range(base.m))
                 for g in polys}
        verdicts = {}
        for g in polys:
            assert verdicts.setdefault(goodness_class(g), _verdict(g)) == _verdict(g)
        assert len(verdicts) == len(brute) == classes

    def test_least_scaling_matches_a_search_over_t(self):
        rng = random.Random(3)
        for N in (1, 2, 4, 6, 8, 24, 30, 80):
            for _ in range(200):
                D = rng.randrange(1, 10)
                vec = [rng.choice((-1, rng.randrange(N))) for _ in range(D)]
                want = min(tuple((l - (D - j) * t) % N if l >= 0 else -1
                                 for j, l in enumerate(vec)) for t in range(N))
                assert tuple(cpp_core._least_scaling(vec, D, N)) == want

    def test_exact_key_without_tables(self, monkeypatch):
        # a fresh GF(9) context has no tables; a bound of 1 keeps it so
        fresh = gf.Fq(3, 2, F9.modulus)
        monkeypatch.setattr(cpp_core, "_CLASS_TABLE_BOUND", 1)
        g = Poly(fresh, [0, 1, 0, 1])
        assert goodness_class(g) == (3, g.coeffs)
        assert goodness_class(cpp_normalize(g, 1, 2)) != goodness_class(g)
        assert fresh._log is None

    def test_log_list_is_not_pickled(self):
        goodness_class(Poly(F9, [0, 1, 0, 1]))
        assert F9._log_list is not None and F9._mul_rows is not None
        data = pickle.dumps(F9)
        assert len(data) < 100
        assert pickle.loads(data) is F9


class TestExceptionalityProbe:
    """f permutes GF(q^k) for each small k, the necessary condition for an
    exceptional f, checked one extension at a time with is_permutation."""

    def test_monomial_fails_at_25(self):
        cube = Poly.x(F5) ** 3
        assert is_permutation(cube, F5)
        assert not is_permutation(cube, T25)

    def test_identity_survives(self):
        x = Poly.x(F5)
        assert all(is_permutation(x, ctx) for ctx in (F5, T25, mk_tower(F5, 3)))

    def test_good_octic_survives_k3(self):
        # a good linearized octic over GF(4): its nonzero kernel roots are
        # the roots of an irreducible septic, so they live in degree 7 and
        # the octic permutes GF(4^k) for k = 1..3
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
        assert all(is_permutation(found, ctx)
                   for ctx in (F4, mk_tower(F4, 2), mk_tower(F4, 3)))
