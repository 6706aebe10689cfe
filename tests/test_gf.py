"""Field contexts, arithmetic, and the named maps."""

import math
import os
import pickle
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from cppforge import gf
from cppforge.gf import (
    ContextMismatch,
    DegenerateLeadingCoefficient,
    DegreeZero,
    DivisionByZero,
    FieldTooLarge,
    FqElem,
    NoSuchRoot,
    NotASubfield,
    NotCoprime,
    NotPrime,
    abs_trace2,
    artin_schreier_root,
    elem,
    frobenius,
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

F2 = mk_field(2, 1)
F3 = mk_field(3, 1)
F4 = mk_field(2, 2)
F5 = mk_field(5, 1)
F8 = mk_field(2, 3)
F9 = mk_field(3, 2)
F25 = mk_tower(F5, 2)


def brute_lex_modulus(p, m):
    """Independent oracle: scan monic degree-m polys in encoding order and
    return the first with no roots and no monic factor of degree <= m//2,
    found by exhaustive trial multiplication."""
    def polys(deg):
        for enc in range(p ** deg):
            c, e = [], enc
            for _ in range(deg):
                e, r = divmod(e, p)
                c.append(r)
            yield c + [1]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
        return out

    products = set()
    for d1 in range(1, m // 2 + 1):
        for f1 in polys(d1):
            for f2 in polys(m - d1):
                products.add(tuple(mul(f1, f2)))
    for cand in polys(m):
        if tuple(cand) not in products:
            return tuple(cand)
    raise AssertionError("no irreducible found")


class TestMkField:
    def test_prime_field_modulus(self):
        assert F2.modulus == (0, 1)

    def test_f4_unique_quadratic(self):
        assert F4.modulus == (1, 1, 1)

    def test_f9_lex_scan(self):
        # derived by the independent brute scan
        assert F9.modulus == brute_lex_modulus(3, 2)
        assert F9.modulus == (1, 0, 1)

    def test_f8_f16_against_oracle(self):
        assert F8.modulus == brute_lex_modulus(2, 3)
        assert mk_field(2, 4).modulus == brute_lex_modulus(2, 4)
        assert mk_field(3, 3).modulus == brute_lex_modulus(3, 3)

    # Read from the code before the modulus search moved onto
    # poly.is_irreducible.  Stored witness files carry these moduli, and
    # witness_from_json rejects a file whose moduli no longer match.
    PINNED_FIELDS = {
        (2, 2): (1, 1, 1),
        (2, 5): (1, 0, 1, 0, 0, 1),
        (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
        (2, 24): (1, 1, 0, 1, 1) + (0,) * 19 + (1,),
        (3, 2): (1, 0, 1),
        (3, 6): (2, 1, 0, 0, 0, 0, 1),
        (5, 4): (2, 0, 0, 0, 1),
    }
    PINNED_TOWERS = {
        (2, 5, 4): (1, 1, 0, 0, 1),
        (3, 2, 4): (4, 0, 0, 0, 1),
        (2, 2, 3): (2, 0, 0, 1),
        (5, 1, 4): (2, 0, 0, 0, 1),
        (3, 1, 6): (2, 1, 0, 0, 0, 0, 1),
        (2, 1, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    }

    def test_moduli_are_pinned(self):
        got = {pm: mk_field(*pm).modulus for pm in self.PINNED_FIELDS}
        assert got == self.PINNED_FIELDS
        got = {(p, m, n): mk_tower(mk_field(p, m), n).ext_modulus
               for p, m, n in self.PINNED_TOWERS}
        assert got == self.PINNED_TOWERS

    def test_errors(self):
        with pytest.raises(NotPrime):
            mk_field(6, 1)
        with pytest.raises(DegreeZero):
            mk_field(5, 0)
        with pytest.raises(FieldTooLarge):
            mk_field(2, 64)

    def test_bound_before_primality(self):
        # 10^18 + 3 is prime and past the default field bound; run apart,
        # with a timeout
        code = ("from cppforge import gf\n"
                "try:\n    gf.mk_field(10 ** 18 + 3, 1)\n"
                "except gf.FieldTooLarge:\n    print('FieldTooLarge')")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(gf.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=30).stdout
        assert out.strip() == "FieldTooLarge"

    def test_bound_without_the_power(self):
        # 2^(10^8) takes most of a second to form; the bound needs no power
        t0 = time.perf_counter()
        with pytest.raises(FieldTooLarge):
            mk_tower(F2, 10 ** 8)
        assert time.perf_counter() - t0 < 0.2

    @pytest.mark.parametrize("bits", ["32", "40"])
    def test_order_bound_by_bit_lengths(self, monkeypatch, bits):
        monkeypatch.setenv("CPPFORGE_MAX_FIELD_BITS", bits)
        bound = gf.max_field_order()
        for q in list(range(2, 80)) + [2 ** 16, 2 ** 16 + 1, 2 ** 20 - 1, 2 ** 32 + 15]:
            for n in range(1, 42):
                assert gf._order_too_large(q, n) == (q ** n > bound), (q, n)

    def test_idempotent(self):
        assert mk_field(5, 1) is F5

    def test_deterministic_rebuild_across_processes(self):
        code = ("import json; from cppforge import gf; "
                "print(json.dumps([gf.mk_field(3,2).modulus, "
                "gf.mk_tower(gf.mk_field(5,1),2).ext_modulus]))")
        # the child imports cppforge from where this process found it
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(gf.__file__)))
        out1 = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True).stdout
        out2 = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True).stdout
        assert out1 == out2
        assert out1.strip() == "[[1, 0, 1], [2, 0, 1]]"


def char2_contexts():
    """Every char-2 field and tower of order up to 2^12."""
    out = [mk_field(2, k) for k in range(1, 13)]
    for m in range(1, 7):
        out += [mk_tower(mk_field(2, m), n) for n in range(2, 12 // m + 1)]
    return out


class TestBuildRows:
    """The dense op rows equal the arithmetic of the same field without rows."""

    @staticmethod
    def _check(p, m, pairs):
        F = mk_field(p, m)
        bare = gf.Fq(p, m, F.modulus)   # same field; no rows, no tables
        assert bare._mul_rows is None and bare._log is None
        for a, b in pairs:
            assert F._mul_rows[a][b] == bare._mul_slow(a, b)
            assert F._add_rows[a][b] == bare.add(a, b)
        assert F._neg_row == [bare.neg(a) for a in range(F.order)]
        assert F._inv_row[1:] == [bare.inv(a) for a in range(1, F.order)]

    @pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 5)])
    def test_every_pair(self, p, m):
        n = p ** m
        self._check(p, m, [(a, b) for a in range(n) for b in range(n)])

    @pytest.mark.parametrize("p, m", [(2, 8), (2, 9), (3, 5)])
    def test_sampled_pairs(self, p, m):
        n, rnd = p ** m, random.Random(2000)
        self._check(p, m, [(rnd.randrange(n), rnd.randrange(n)) for _ in range(2000)])

    @pytest.mark.parametrize("p, m", [(2, 1), (7, 1), (2, 4), (3, 2), (5, 2), (3, 5)])
    def test_exp_log_lists_agree_with_tables(self, p, m):
        F = mk_field(p, m)
        bare = gf.Fq(p, m, F.modulus)
        bare.ensure_tables()
        assert F._exp_list == bare._exp.tolist() and F._log_list == bare._log.tolist()
        for a in range(F.order):
            for e in (0, 1, 2, p, F.order - 2, F.order, 10 ** 9 + 7):
                assert F.pow_(a, e) == bare.pow_(a, e)

    def test_small_field_scan_never_imports_numpy(self, tmp_path):
        # numpy is for exp/log tables of brute force only; the import alone
        # would be most of a short command's time and memory
        code = (
            "import sys\n"
            "from cppforge.cli import main\n"
            "from cppforge.gf import mk_field\n"
            f"assert main(['scan', '--family', 'C', '--p', '3', '--m', '2', '--out', "
            f"{str(tmp_path / 'c.json')!r}]) == 0\n"
            "assert 'numpy' not in sys.modules\n"
            "mk_field(3, 2).ensure_tables()\n"
            "assert 'numpy' in sys.modules\n")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(gf.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr


class TestFieldIsTowerOverPrime:
    """GF(p^m) as a field and as a tower over GF(p): one modulus, one arithmetic."""

    @pytest.mark.parametrize("p, m", [(2, 6), (3, 4), (5, 3)])
    def test_same_modulus_and_operations(self, p, m):
        F, T = mk_field(p, m), mk_tower(mk_field(p, 1), m)
        assert F.modulus == T.ext_modulus
        rnd = random.Random(p ** m)
        for _ in range(500):
            a, b = rnd.randrange(F.order), rnd.randrange(F.order)
            assert F.add(a, b) == T.add(a, b)
            assert F.neg(a) == T.neg(a)
            assert F.mul(a, b) == T.mul(a, b)
            assert F._mul_slow(a, b) == T._mul_slow(a, b)
            assert [F.frobenius(a, i) for i in range(m)] == [T.frobenius(a, i) for i in range(m)]
            assert F.decode(a) == T.decode(a)
            assert F.encode(F.decode(a)) == T.encode(T.decode(a)) == a


class TestArith:
    def test_add_f5(self):
        assert (elem(F5, 3) + elem(F5, 4)).val == 2

    def test_mul_f4(self):
        t = elem(F4, 2)
        assert (t * t).val == 3  # t^2 = t + 1

    def test_inv_f4_by_multiplication(self):
        t = elem(F4, 2)
        inv = 1 / t
        assert (t * inv).val == 1
        assert inv.val == 3

    def test_pow_order(self):
        rng = random.Random(1)
        for ctx in (F4, F5, F8, F9, F25):
            for _ in range(20):
                a = rng.randrange(1, ctx.order)
                assert ctx.pow_(a, ctx.order - 1) == 1
                assert ctx.mul(a, ctx.inv(a)) == 1

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            elem(F4, 1) + elem(F5, 1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            elem(F5, 1) / elem(F5, 0)

    def test_tables_agree_with_slow_path(self):
        rng = random.Random(2)
        # the towers over GF(3), GF(5) and GF(9) check both inner loops of
        # _mul_slow in odd characteristic
        for ctx in (F9, F25, mk_tower(F4, 2), mk_field(2, 10), mk_tower(F8, 4),
                    mk_tower(F3, 5), mk_tower(F5, 3), mk_tower(F9, 3)):
            ctx.ensure_tables()
            for _ in range(100):
                a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
                assert ctx.mul(a, b) == ctx._mul_slow(a, b)

    def test_char2_tables_follow_gamma(self):
        # the doubled xor tables against one table-free step per entry,
        # gamma^e read at its index in the coset rows; past 2^12, odd k
        # splits the encoding into uneven halves (7 + 6, 8 + 7 bits)
        for ctx in char2_contexts() + [mk_field(2, 13), mk_tower(mk_field(2, 3), 5)]:
            ctx.ensure_tables()
            exp, log, g, at = ctx._exp, ctx._log, ctx.primitive_element(), ctx._exp_index
            m = ctx.order - 1
            assert len(exp) == m and exp[at(0)] == 1
            for i in range(m):
                assert ctx._mul_slow(int(exp[at(i)]), g) == (exp[at(i + 1)] if i + 1 < m else 1)
                assert log[exp[at(i)]] == i

    @pytest.mark.parametrize("p, m, n", [(2, 20, None), (2, 5, 4), (2, 10, 2), (2, 7, 3),
                                         (2, 17, None), (3, 9, None), (3, 2, 6), (5, 1, 7)])
    def test_large_tables_follow_gamma(self, p, m, n):
        # past the blocks of the doubling (2^16 elements) and the 4096-column
        # chunks of the digit matrices, sampled, with exponents next to their
        # seams; exp holds every unit once and log inverts it.  Odd k (21, 17)
        # splits the encoding into uneven halves
        ctx = mk_field(p, m) if n is None else mk_tower(mk_field(p, m), n)
        ctx.ensure_tables()
        exp, log, g, at = ctx._exp, ctx._log, ctx.primitive_element(), ctx._exp_index
        q, M = ctx._Q, ctx._M
        top = ctx.order - 1
        assert (np.sort(exp) == np.arange(1, ctx.order)).all()
        assert (log[exp] == np.arange(top).reshape(M, q).T.ravel()).all()
        rng = random.Random(top)
        seams = [q * s + r for s in (4095, 4096, M - 1, 1 << 16) for r in (0, q - 1)]
        for e in [0, top - 1] + seams + [rng.randrange(top) for _ in range(300)]:
            e %= top
            assert ctx._mul_slow(int(exp[at(e)]), g) == exp[at((e + 1) % top)]


def _slow_pow(ctx, a, e):
    acc = 1
    for bit in bin(e)[2:]:
        acc = ctx._mul_slow(acc, acc)
        if bit == "1":
            acc = ctx._mul_slow(acc, a)
    return acc


class TestInt32Tables:
    def test_cap_fits_int32(self):
        assert gf.HARD_BRUTE_CAP < 2 ** 31

    @pytest.mark.parametrize("p, m", [(2, 20), (3, 12)])
    def test_scalar_paths_at_the_top_indices(self, p, m):
        # the elements gamma^(m-1), gamma^(m-2) have the largest logs, so
        # index sums and negations there would leave int32 arithmetic first
        ctx = mk_field(p, m)
        ctx.ensure_tables()
        assert str(ctx._exp.dtype) == str(ctx._log.dtype) == "int32"
        top = ctx.order - 1
        a, b = int(ctx._exp[ctx._exp_index(top - 1)]), int(ctx._exp[ctx._exp_index(top - 2)])
        assert ctx._log[a] == top - 1 and ctx._log[b] == top - 2
        for x, y in ((a, a), (a, b), (b, b)):
            assert ctx.mul(x, y) == ctx._mul_slow(x, y)
        for x in (a, b):
            assert ctx._mul_slow(x, ctx.inv(x)) == 1
            for e in (2, 3, top - 1, top + 5):
                assert ctx.pow_(x, e) == _slow_pow(ctx, x, e)
            assert ctx.pow_(x, -3) == ctx.inv(_slow_pow(ctx, x, 3))


class TestFrobenius:
    def test_base_elements_fixed(self):
        for c in F5.elements():
            assert frobenius(elem(F25, c), 3).val == c

    def test_f4_over_f2(self):
        t4 = mk_tower(F2, 2)
        t = elem(t4, 2)
        assert frobenius(t, 1).val == 3  # t^2 = t + 1

    def test_full_orbit_identity(self):
        rng = random.Random(3)
        for _ in range(30):
            x = elem(F25, rng.randrange(25))
            assert frobenius(x, 2) == x

    def test_automorphism(self):
        rng = random.Random(4)
        t = mk_tower(F9, 2)
        for _ in range(50):
            x, y = elem(t, rng.randrange(t.order)), elem(t, rng.randrange(t.order))
            assert frobenius(x + y) == frobenius(x) + frobenius(y)
            assert frobenius(x * y) == frobenius(x) * frobenius(y)


class TestTraceNorm:
    def test_abs_trace_of_generator_f4(self):
        t4 = mk_tower(F2, 2)
        assert trace_map(elem(t4, 2), 1).val == 1  # t + t^2 = 1

    def test_abs_trace_one_char2(self):
        t4 = mk_tower(F2, 2)
        assert trace_map(elem(t4, 1), 1).val == 0

    def test_trace_of_subfield_element(self):
        # trace down to GF(q) of an embedded c is k*c
        t = mk_tower(F9, 3)
        for c in F9.elements():
            got = trace_map(elem(t, c), 2)
            assert got.val == F9.mul(3 % 3, c)  # k = 3 = 0 in char 3

    def test_trace_transitivity(self):
        rng = random.Random(5)
        t = mk_tower(F9, 2)
        for _ in range(100):
            x = elem(t, rng.randrange(t.order))
            direct = trace_map(x, 1)
            via = trace_map(x, 2)  # down to GF(9), value embedded in tower
            mid = elem(F9, t.project_base(via.val))
            assert trace_map(mid, 1).val == direct.val

    def test_norm_f9_over_f3(self):
        t9 = mk_tower(F3, 2)
        g = primitive_element(t9)
        # N(x) = x^4; the norm of a generator has order 2 in GF(3)*
        n = norm_map(g, 1)
        assert n.val == t9.pow_(g.val, 4)
        assert n.val != 1 and t9.mul(n.val, n.val) == 1

    def test_norm_trivia(self):
        t9 = mk_tower(F3, 2)
        assert norm_map(elem(t9, 1), 1).val == 1
        assert norm_map(elem(t9, 0), 1).val == 0

    def test_norm_multiplicative(self):
        rng = random.Random(6)
        t = mk_tower(F8, 2)
        for _ in range(100):
            x, y = elem(t, rng.randrange(t.order)), elem(t, rng.randrange(t.order))
            assert norm_map(x * y, 3).val == t.mul(norm_map(x, 3).val,
                                                   norm_map(y, 3).val)

    def test_norm_surjective_onto_base_units(self):
        t = mk_tower(F9, 2)
        g = primitive_element(t)
        img = t.project_base(norm_map(g, 2).val)
        seen = {1}
        cur = img
        while cur != 1:
            seen.add(cur)
            cur = F9.mul(cur, img)
        assert len(seen) == F9.order - 1

    def test_not_a_subfield(self):
        with pytest.raises(NotASubfield):
            trace_map(elem(F9, 1), 3)


class TestPrimitiveAndRoots:
    def test_primitive_f5(self):
        assert primitive_element(F5).val == 2

    def test_primitive_f4(self):
        assert primitive_element(F4).val == 2

    def test_primitive_f9_order_by_brute_force(self):
        g = primitive_element(F9).val
        # independent order computation by iterated multiplication
        cur, order = g, 1
        while cur != 1:
            cur = F9.mul(cur, g)
            order += 1
        assert order == 8
        # and no smaller encoding generates
        for a in range(2, g):
            cur, order = a, 1
            while cur != 1:
                cur = F9.mul(cur, a)
                order += 1
            assert order < 8

    def test_root_of_unity(self):
        assert root_of_unity(F5, 1).val == 1
        z = root_of_unity(F4, 3)
        assert z.val in (2, 3)
        assert F4.pow_(z.val, 3) == 1 and z.val != 1

    def test_root_of_unity_f25(self):
        z = root_of_unity(F25, 3)
        g = primitive_element(F25)
        assert z.val == F25.pow_(g.val, 8)
        assert F25.pow_(z.val, 3) == 1

    def test_root_of_unity_extension(self):
        with pytest.raises(NoSuchRoot):
            root_of_unity(F5, 3)
        z = root_of_unity(F5, 3, extend=True)
        assert z.ctx is F25
        assert F25.pow_(z.val, 3) == 1 and z.val != 1


class TestIsPrime:
    def test_matches_trial_division_up_to_1e5(self):
        def by_trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

        assert all(gf.is_prime(n) == by_trial(n) for n in range(10 ** 5 + 1))

    @pytest.mark.parametrize("n, factors", [
        (3215031751, (151, 751, 28351)),
        (3825123056546413051, (149491, 747451, 34233211))])
    def test_strong_pseudoprimes_are_composite(self, n, factors):
        # strong pseudoprimes to the bases 2..7 and 2..23 respectively
        assert math.prod(factors) == n
        assert not gf.is_prime(n)

    def test_huge_prime_field_is_built_at_once(self):
        # 10^18 + 3 is prime; with the field bound raised mk_field builds
        # GF(10^18 + 3), which by trial division took minutes
        code = ("from cppforge import gf\n"
                "print(gf.mk_field(10 ** 18 + 3, 1).order)")
        env = dict(os.environ, CPPFORGE_MAX_FIELD_BITS="64",
                   PYTHONPATH=os.path.dirname(os.path.dirname(gf.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=30).stdout
        assert out.strip() == str(10 ** 18 + 3)


class TestOrdMod:
    def test_examples(self):
        assert ord_mod(5, 3) == 2
        assert ord_mod(2, 7) == 3

    def test_derived_by_brute(self):
        # 27 = 2 mod 5; repeated multiplication gives order 4
        acc, k = 27 % 5, 1
        while acc != 1:
            acc = acc * 27 % 5
            k += 1
        assert ord_mod(27, 5) == k == 4

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            ord_mod(6, 3)


class TestSolveQuadratic:
    def test_char2_artin_schreier(self):
        roots = solve_quadratic(elem(F4, 1), elem(F4, 1), elem(F4, 1))
        assert sorted(r.val for r in roots) == [2, 3]

    def test_char2_no_solution(self):
        assert solve_quadratic(elem(F2, 1), elem(F2, 1), elem(F2, 1)) == []

    def test_odd_char_non_square_disc(self):
        # squares mod 5 are {1, 4}; disc = 4 - 12 = 2 is not one
        assert solve_quadratic(elem(F5, 1), elem(F5, 2), elem(F5, 3)) == []

    def test_degenerate(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            solve_quadratic(elem(F5, 0), elem(F5, 1), elem(F5, 1))

    @pytest.mark.parametrize("ctx", [F4, F8, F9, F25, mk_field(2, 4),
                                     mk_field(7, 1), mk_tower(F8, 2),
                                     mk_field(3, 3)])
    def test_exhaustive_agreement(self, ctx):
        rng = random.Random(7)
        for _ in range(60):
            a2 = rng.randrange(1, ctx.order)
            a1 = rng.randrange(ctx.order)
            a0 = rng.randrange(ctx.order)
            got = sorted(r.val for r in solve_quadratic(
                elem(ctx, a2), elem(ctx, a1), elem(ctx, a0)))
            want = sorted(x for x in ctx.elements()
                          if ctx.add(ctx.add(ctx.mul(a2, ctx.mul(x, x)),
                                             ctx.mul(a1, x)), a0) == 0)
            assert got == want

    def test_sqrt_roundtrip(self):
        rng = random.Random(8)
        for ctx in (F9, F25, mk_field(3, 3), mk_tower(F9, 2)):
            for _ in range(40):
                a = rng.randrange(ctx.order)
                s = sqrt_in(ctx, a)
                if s is not None:
                    assert ctx.mul(s, s) == a


class TestArtinSchreierEpsilon:
    @pytest.fixture(autouse=True)
    def cold_cache(self, monkeypatch):
        monkeypatch.setattr(gf, "_AS_EPSILON", {})

    def test_epsilon_is_least_trace_one_element(self):
        ctxs = [c for c in char2_contexts() if c.deg_over_prime % 2 == 0]
        t20 = mk_tower(mk_field(2, 5), 4)
        t20.ensure_tables()  # only to make the reference walk fast
        for ctx in ctxs + [t20]:
            assert artin_schreier_root(ctx, 0) == 0
            want = next(a for a in ctx.units() if abs_trace2(ctx, a) == 1)
            assert gf._AS_EPSILON[id(ctx)] == want

    def test_first_root_costs_at_most_k_plus_1_traces(self, monkeypatch):
        calls = []

        def counted(ctx, a):
            calls.append(a)
            return abs_trace2(ctx, a)

        monkeypatch.setattr(gf, "abs_trace2", counted)
        t20 = mk_tower(mk_field(2, 5), 4)
        z = 12345
        delta = t20.add(t20.mul(z, z), z)
        assert artin_schreier_root(t20, delta) == min(z, z ^ 1)
        assert len(calls) <= t20.deg_over_prime + 1


class TestEmbed:
    """A constant c of GF(5) is the element of GF(25) with the same encoding."""

    def test_identity_values(self):
        for c in F5.elements():
            assert F25.decode(c) == (c, 0) and F25.project_base(c) == c

    def test_homomorphism(self):
        rng = random.Random(9)
        for _ in range(50):
            x, y = rng.randrange(5), rng.randrange(5)
            ex, ey = elem(F25, x), elem(F25, y)
            assert (ex + ey).val == F5.add(x, y)
            assert (ex * ey).val == F5.mul(x, y)

    def test_fixed_by_frobenius(self):
        x = elem(F25, 2)
        assert (x ** 5) == x


class TestSerialization:
    def test_field_desc(self):
        assert F9.describe() == {"p": 3, "m": 2, "modulus": [1, 0, 1]}

    def test_tower_desc(self):
        d = F25.describe()
        assert d["n"] == 2 and d["extModulus"] == [[2], [0], [1]]

    def test_element_json(self):
        x = elem(F25, 7)  # 2 + 1*y
        assert x.to_json() == [[2], [1]]
        assert elem(F9, 5).to_json() == [2, 1]

    def test_pickle_returns_interned_contexts(self):
        # workers receive towers by pickle; they must come back as the cached ones
        t = mk_tower(F4, 3)
        assert t.__reduce__() == (mk_tower, (F4, 3))
        for ctx in (F9, F25, t):
            assert pickle.loads(pickle.dumps(ctx)) is ctx
