"""The list path of `poly`, the only polynomial arithmetic, against references.

* `_pmul`, `_pdivmod` and `_pmod` step with one kernel that indexes the dense
  op rows of small fields.  The references are a schoolbook product and long
  division from `_mul_slow`, computed on a copy of the field that has no
  rows (`tests/test_engine.py` uses them on operands of 48 terms and more).
  `_ppow_mod` is checked against repeated products and remainders.
* `orbit_parts` and `is_irreducible` take their Frobenius powers from the
  matrix of `_frobenius_rows` for moduli below `_ROWS_MIN` terms, and by one
  pow_mod per step from there on.  The references are a pow_mod loop and,
  for irreducibility, sympy's `gf_irreducible_p` over prime fields and a
  Rabin test with one pow_mod per power elsewhere; the counts of
  irreducibles are checked against Gauss's formula.  Both routes must agree
  on moduli on either side of `_ROWS_MIN`.

Every check runs over fields with rows (GF(2), GF(5), GF(9)), fields without
(GF(3^6), GF(2^10)) and a tower (GF(4^3)).
"""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import divisors, mobius, primefactors
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from cppforge import gf, poly
from cppforge.gf import mk_field, mk_tower
from cppforge.poly import (
    Poly,
    _frobenius_rows,
    _pdivmod,
    _pgcd,
    _pmod,
    _pmonic,
    _pmul,
    _ppow_mod,
    _psub,
    _psub_x,
    _trim,
    has_root_in_extension,
    is_irreducible,
    least_monic,
    orbit_parts,
    squarefree_part,
)

ROWS = [mk_field(2, 1), mk_field(5, 1), mk_field(3, 2)]
NO_ROWS = [mk_field(3, 6), mk_field(2, 10)]
TOWER = [mk_tower(mk_field(2, 2), 3)]
CONTEXTS = ROWS + NO_ROWS + TOWER
IDS = [repr(c) for c in CONTEXTS]

bounded = settings(derandomize=True, database=None, deadline=None, max_examples=8)


def test_contexts_cover_both_kernels():
    assert all(F._mul_rows is not None for F in ROWS)
    assert all(c._mul_rows is None for c in NO_ROWS + TOWER)


def polys(ctx, lo: int, hi: int, monic: bool = False):
    """Coefficient lists of lo..hi terms with a nonzero leading coefficient."""
    lead = st.just(1) if monic else st.integers(1, ctx.order - 1)
    return st.builds(lambda body, c: body + [c],
                     st.lists(st.integers(0, ctx.order - 1), min_size=lo - 1, max_size=hi - 1),
                     lead)


# ---------------------------------------------------------------------------
# row kernels


def bare(ctx):
    """The same arithmetic with no rows: a fresh Fq copy, or the tower itself."""
    return gf.Fq(ctx.p, ctx.m, ctx.modulus) if isinstance(ctx, gf.Fq) else ctx


def ref_mul(ctx, a: list, b: list) -> list:
    ref = bare(ctx)
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ref.add(out[i + j], ref._mul_slow(x, y))
    return _trim(out)


def ref_add(ctx, a: list, b: list) -> list:
    ref = bare(ctx)
    a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
    return _trim([ref.add(x, y) for x, y in zip(a, b)])


def ref_divmod(ctx, a: list, b: list) -> tuple:
    """Schoolbook long division, the quotient built term by term."""
    ref, db = bare(ctx), len(b) - 1
    r, q = list(a), [0] * max(0, len(a) - db)
    inv = ref.inv(b[-1])
    for k in range(len(a) - 1 - db, -1, -1):
        c = q[k] = ref._mul_slow(r[k + db], inv)
        for j, y in enumerate(b):
            r[k + j] = ref.sub(r[k + j], ref._mul_slow(c, y))
    return _trim(q), _trim(r[:db])


def ref_gcd(ctx, a: list, b: list) -> list:
    """The monic gcd by Euclid's algorithm on `ref_divmod`."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, ref_divmod(ctx, a, b)[1]
    if not a:
        return []
    ref = bare(ctx)
    inv = ref.inv(a[-1])
    return [ref._mul_slow(c, inv) for c in a]


def ref_pow_mod(ctx, a: list, e: int, mod: list) -> list:
    """a^e mod mod by square-and-multiply on `ref_mul` and `ref_divmod`."""
    acc, base = ref_divmod(ctx, [1], mod)[1], ref_divmod(ctx, a, mod)[1]
    while e:
        if e & 1:
            acc = ref_divmod(ctx, ref_mul(ctx, acc, base), mod)[1]
        e >>= 1
        base = ref_divmod(ctx, ref_mul(ctx, base, base), mod)[1]
    return acc


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
class TestRowKernels:
    @bounded
    @given(data=st.data())
    def test_product(self, ctx, data):
        a, b = data.draw(polys(ctx, 1, 20)), data.draw(polys(ctx, 1, 20))
        assert _pmul(ctx, a, b) == ref_mul(ctx, a, b)

    @bounded
    @given(data=st.data())
    def test_divmod(self, ctx, data):
        a = data.draw(polys(ctx, 1, 40))
        b = data.draw(polys(ctx, 1, 12, monic=data.draw(st.booleans())))
        q, r = _pdivmod(ctx, a, b)
        assert len(r) < len(b)
        assert ref_add(ctx, ref_mul(ctx, q, b), r) == a
        assert _pmod(ctx, a, b) == r


@pytest.mark.parametrize("ctx", [ROWS[2], NO_ROWS[0], TOWER[0]], ids=repr)
def test_kernel_built_once_and_not_pickled(ctx):
    _pmul(ctx, [1, 1], [1, 1])
    kernel = ctx._axpy
    assert kernel is not None
    _pdivmod(ctx, [1, 0, 1], [1, 1])
    assert ctx._axpy is kernel
    data = pickle.dumps(ctx)        # rebuilt from its parameters, kernel and all
    assert len(data) < 100
    assert pickle.loads(data) is ctx


POW_CONTEXTS = [mk_field(3, 2), mk_tower(mk_field(3, 2), 2)]


@pytest.mark.parametrize("ctx", POW_CONTEXTS, ids=[repr(c) for c in POW_CONTEXTS])
@bounded
@given(data=st.data())
def test_pow_mod_matches_repeated_products(ctx, data):
    # every e in 0..40: e = 0, and exponents whose last step squares nothing
    mod = data.draw(polys(ctx, 2, 8, monic=data.draw(st.booleans())))
    a = data.draw(polys(ctx, 1, 12))
    acc = _pmod(ctx, [1], mod)
    for e in range(41):
        assert _ppow_mod(ctx, a, e, mod) == acc, e
        acc = _pmod(ctx, _pmul(ctx, acc, a), mod)


# ---------------------------------------------------------------------------
# the Frobenius matrix


def ref_split(ctx, f: list) -> list:
    """The distinct-degree split with one pow_mod(h, q) per step."""
    out, q, fstar, h, d = [], ctx.order, list(f), [0, 1], 0
    while len(fstar) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppow_mod(ctx, h, q, fstar)
        g = _pgcd(ctx, fstar, _psub_x(ctx, h))
        if len(g) > 1:
            out.append((d, g))
            fstar = _pdivmod(ctx, fstar, g)[0]
            h = _pmod(ctx, h, fstar) if len(fstar) > 1 else [0]
    if len(fstar) > 1:
        out.append((len(fstar) - 1, fstar))
    return out


def split(ctx, f: list) -> list:
    """All of `orbit_parts` for a monic squarefree list f, parts as lists."""
    return [(d, list(g.coeffs)) for d, g in orbit_parts(Poly(ctx, f, trusted=True))]


def ref_irreducible(ctx, f: list) -> bool:
    """sympy's Rabin test over prime fields; elsewhere Rabin with one pow_mod per power.

    f of degree d is irreducible iff x^(q^d) = x mod f and gcd(f, x^(q^(d/l)) - x)
    = 1 for each prime l | d.  x is taken mod f, which matters for d = 1.
    """
    f = _pmonic(ctx, f)
    if isinstance(ctx, gf.Fq) and ctx.m == 1:
        return gf_irreducible_p(f[::-1], ctx.p, ZZ)
    d, q, x = len(f) - 1, ctx.order, _pmod(ctx, [0, 1], f)
    for ell in primefactors(d):
        h = _ppow_mod(ctx, x, q ** (d // ell), f)
        if len(_pgcd(ctx, f, _psub(ctx, h, x))) != 1:
            return False
    return _ppow_mod(ctx, x, q ** d, f) == x


def squarefree_product(ctx, data) -> list:
    """The radical of a product of 1..4 random monic factors of degree 1..4."""
    factors = data.draw(st.lists(polys(ctx, 2, 5, monic=True), min_size=1, max_size=4))
    f = [1]
    for g in factors:
        f = _pmul(ctx, f, g)
    return list(squarefree_part(Poly(ctx, f)).coeffs)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
class TestFrobeniusMatrix:
    @bounded
    @given(data=st.data())
    def test_rows_are_powers_of_x(self, ctx, data):
        f = data.draw(polys(ctx, 2, 9, monic=True))
        rows = _frobenius_rows(ctx, f)
        assert len(rows) == len(f) - 1
        for i, row in enumerate(rows):
            assert row == _ppow_mod(ctx, [0, 1], ctx.order * i, f)

    @bounded
    @given(data=st.data())
    def test_split_matches_pow_mod_loop(self, ctx, data):
        f = squarefree_product(ctx, data)
        assert split(ctx, f) == ref_split(ctx, f)

    @bounded
    @given(data=st.data())
    def test_split_of_degree_one_and_two(self, ctx, data):
        f = data.draw(polys(ctx, 2, 3, monic=True))
        assert split(ctx, f) == ref_split(ctx, f)

    @bounded
    @given(data=st.data())
    def test_irreducible_matches_gf_rabin(self, ctx, data):
        f = data.draw(polys(ctx, 2, 9))
        assert is_irreducible(Poly(ctx, f)) == ref_irreducible(ctx, f)

    @bounded
    @given(data=st.data())
    def test_irreducible_of_products(self, ctx, data):
        f = _pmul(ctx, data.draw(polys(ctx, 2, 4)), data.draw(polys(ctx, 2, 5)))
        assert not is_irreducible(Poly(ctx, f))
        assert not ref_irreducible(ctx, f)


def test_split_shrinks_mid_split():
    # x·(x + 1)·(x^5 + x^2 + 1) over GF(2): step 1 splits off x^2 + x, and
    # the rows of the degree-7 product are reduced mod the quintic for step 2
    F = mk_field(2, 1)
    quintic = [1, 0, 1, 0, 0, 1]
    f = _pmul(F, [0, 1, 1], quintic)
    rows = _frobenius_rows(F, f)
    assert _frobenius_rows(F, quintic, rows) == _frobenius_rows(F, quintic)
    assert split(F, f) == [(1, [0, 1, 1]), (5, quintic)] == ref_split(F, f)


def irreducible_counts(F, top: int) -> list:
    """How many monic polynomials of each degree 1..top over F is_irreducible accepts."""
    q, out = F.order, []
    for d in range(1, top + 1):
        out.append(sum(is_irreducible(Poly(F, [e // q ** i % q for i in range(d)] + [1]))
                       for e in range(q ** d)))
    return out


def test_irreducible_counts_over_gf2():
    # monic irreducibles of degree d over GF(2): 2, 1, 2, 3, 6, 9, 18, 30
    assert irreducible_counts(mk_field(2, 1), 8) == [2, 1, 2, 3, 6, 9, 18, 30]
    # over GF(q), Gauss's count (1/d)·sum over e | d of mu(d/e)·q^e
    for F, top in ((mk_field(3, 1), 6), (mk_field(2, 2), 5)):
        q = F.order
        gauss = [sum(mobius(d // e) * q ** e for e in divisors(d)) // d
                 for d in range(1, top + 1)]
        assert irreducible_counts(F, top) == gauss


def test_engine_sized_moduli_keep_pow_mod():
    # the route is chosen by the size of the modulus alone, towers included
    F = mk_field(3, 2)
    big = [1] * 48
    assert _frobenius_rows(F, big) is None
    assert _frobenius_rows(F, big[:47]) is not None
    assert _frobenius_rows(TOWER[0], [1] * 60) is None
    assert _frobenius_rows(TOWER[0], [1] * 47) is not None


# ---------------------------------------------------------------------------
# the size rule: rows below `_ROWS_MIN` terms, one pow_mod per step from there


def prime_field_irreducible(p: int, deg: int) -> list:
    """A monic irreducible of degree deg over GF(p), from seeded draws and sympy."""
    rnd = random.Random(deg)
    while True:
        f = [rnd.randrange(p) for _ in range(deg)] + [1]
        if gf_irreducible_p(f[::-1], p, ZZ):
            return f


def by_both_routes(fn, *args):
    """fn(*args) with every modulus on the Frobenius rows, and with every one on pow_mod."""
    out = []
    for bound in (10 ** 9, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_ROWS_MIN", bound)
            out.append(fn(*args))
    return out


def root_tests(f: Poly) -> tuple:
    return is_irreducible(f), [has_root_in_extension(f, k) for k in range(1, 5)]


@pytest.mark.parametrize("terms", [47, 48, 60])
class TestRoutesAgreeAtTheSizeRule:
    F9 = mk_field(3, 2)

    def test_known_answers_over_gf9(self, terms):
        # an irreducible over GF(3) of degree d stays irreducible over GF(9)
        # iff d is odd, and otherwise splits into two factors of degree d/2
        F, d = self.F9, terms - 1
        irr = Poly(F, prime_field_irreducible(3, d))
        assert by_both_routes(root_tests, irr) == [(d % 2 == 1, [False] * 4)] * 2
        # a quadratic times a cubic times a factor of degree at least 21:
        # roots in GF(9^k) exactly for k = 2, 3, 4
        quad, cubic = (least_monic(F, e, is_irreducible) for e in (2, 3))
        mixed = quad * cubic * Poly(F, prime_field_irreducible(3, d - 5))
        assert by_both_routes(root_tests, mixed) == [(False, [False, True, True, True])] * 2

    def test_random_over_gf9(self, terms):
        rnd = random.Random(terms)
        f = Poly(self.F9, [rnd.randrange(9) for _ in range(terms - 1)] + [1])
        rows, pow_mod = by_both_routes(root_tests, f)
        assert rows == pow_mod

    @pytest.mark.parametrize("ctx", [mk_field(2, 10), TOWER[0]], ids=repr)
    def test_binomials_without_rows(self, ctx, terms):
        # x^(q·i) mod x^n - c is a monomial, which keeps a field without
        # op rows cheap on both routes.  n = 46, 47, 59 is prime to q - 1
        # (1023 and 63), so y -> y^n permutes GF(q) and x^n - c has a root there
        for c in (1, 2, ctx.order - 1):
            f = Poly(ctx, [ctx.neg(c)] + [0] * (terms - 2) + [1])
            assert by_both_routes(root_tests, f) == [(False, [True] * 4)] * 2
