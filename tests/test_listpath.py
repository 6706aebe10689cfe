"""The list path of `poly` (operands below `_ENGINE_MIN` terms) against references.

* `_pmul` and `_pdivmod` step with one kernel that indexes the dense op rows of
  small fields.  The reference is a schoolbook product from `_mul_slow`,
  computed on a copy of the field that has no rows.
* `_distinct_degree_split` and `is_irreducible` take their Frobenius powers
  from the matrix of `_frobenius_rows`.  The references are a copy of the
  former pow_mod loop and, for irreducibility, sympy's `gf_irreducible_p`
  over prime fields and a Rabin test with one pow_mod per power elsewhere;
  the counts of irreducibles are checked against Gauss's formula.

Every check runs over fields with rows (GF(2), GF(5), GF(9)), fields without
(GF(3^6), GF(2^10)) and a tower (GF(4^3)).
"""

import pytest
from hypothesis import given, settings, strategies as st
from sympy import divisors, mobius, primefactors
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from cppforge import gf
from cppforge.gf import mk_field, mk_tower
from cppforge.poly import (
    Poly,
    _distinct_degree_split,
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
    is_irreducible,
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
        assert _distinct_degree_split(ctx, f) == ref_split(ctx, f)

    @bounded
    @given(data=st.data())
    def test_split_of_degree_one_and_two(self, ctx, data):
        f = data.draw(polys(ctx, 2, 3, monic=True))
        assert _distinct_degree_split(ctx, f) == ref_split(ctx, f)

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
    assert _distinct_degree_split(F, f) == [(1, [0, 1, 1]), (5, quintic)] == ref_split(F, f)


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
    F = mk_field(3, 2)
    big = [1] * 48
    assert _frobenius_rows(F, big) is None
    assert _frobenius_rows(F, big[:47]) is not None
    assert _frobenius_rows(TOWER[0], [1] * 60) is not None   # towers have no engine
