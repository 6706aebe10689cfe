"""The two root paths of `poly` and the one-gcd root test in an extension.

* `roots_in` over a field with op rows finds its roots by evaluation at every
  element (`_row_zeros`); towers and larger fields split (`_split_roots`).
  Both must give the same sorted roots, and the multiplicities must be those
  of `factorize`.
* `has_root_in_units` must agree with exhaustive `eval_at`.
* `has_root_in_extension(f, k)` must agree with "some irreducible factor of
  f has degree dividing k", and the Deg9 case-iii verdict with the
  distinct-degree split it replaced.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cppforge.gf import mk_field, mk_tower
from cppforge.poly import (
    Poly,
    ZeroPolynomial,
    _pmonic,
    _pmul,
    _split_roots,
    factorize,
    has_root_in_extension,
    has_root_in_units,
    orbit_parts,
    roots_in,
    squarefree_part,
)

F3 = mk_field(3, 1)
F9 = mk_field(3, 2)
ROW_FIELDS = [mk_field(2, 2), mk_field(5, 1), mk_field(2, 3), F9, mk_field(5, 2)]
ROW_IDS = [repr(F) for F in ROW_FIELDS]
# extension tests also run without rows: a field above the row bound and a tower
EXT_CONTEXTS = [mk_field(2, 1), F3, F9, mk_field(3, 6), mk_tower(mk_field(2, 2), 3)]
EXT_IDS = [repr(c) for c in EXT_CONTEXTS]

bounded = settings(derandomize=True, database=None, deadline=None, max_examples=12)


def test_row_fields_have_rows():
    assert all(F._mul_rows is not None for F in ROW_FIELDS)
    assert all(c._mul_rows is None for c in EXT_CONTEXTS[3:])


def polys(ctx, lo: int, hi: int, monic: bool = False):
    """Coefficient lists of lo..hi terms with a nonzero leading coefficient."""
    lead = st.just(1) if monic else st.integers(1, ctx.order - 1)
    return st.builds(lambda body, c: body + [c],
                     st.lists(st.integers(0, ctx.order - 1), min_size=lo - 1, max_size=hi - 1),
                     lead)


def with_repeats(ctx, data) -> list:
    """A product of 1..4 random factors of degree 1..3, each to a power 1..3."""
    f = data.draw(polys(ctx, 1, 1))
    for _ in range(data.draw(st.integers(1, 4))):
        g, e = data.draw(polys(ctx, 2, 4)), data.draw(st.integers(1, 3))
        for _ in range(e):
            f = _pmul(ctx, f, g)
    return f


def linear_multiplicities(f: Poly) -> list:
    """[(root, multiplicity)] from the linear factors x - r of factorize(f)."""
    ctx = f.ctx
    return sorted((ctx.neg(g.coeffs[0]), m) for g, m in factorize(f).factors if g.degree == 1)


@pytest.mark.parametrize("ctx", ROW_FIELDS, ids=ROW_IDS)
class TestRootsByEvaluation:
    @bounded
    @given(data=st.data())
    def test_matches_split_route(self, ctx, data):
        f = with_repeats(ctx, data)
        got = [(r.val, m) for r, m in roots_in(Poly(ctx, f))]
        assert [r for r, _ in got] == _split_roots(ctx, _pmonic(ctx, f))
        assert got == linear_multiplicities(Poly(ctx, f))

    @bounded
    @given(data=st.data())
    def test_has_root_in_units_is_exhaustive(self, ctx, data):
        f = Poly(ctx, data.draw(polys(ctx, 1, 9)))
        assert has_root_in_units(f) == any(f.eval_at(c) == 0 for c in ctx.units())
        x_times = Poly(ctx, [0] + list(f.coeffs))    # a root at 0 does not count
        assert has_root_in_units(x_times) == has_root_in_units(f)


@bounded
@given(data=st.data())
def test_lifted_from_gf3_into_gf9(data):
    f = Poly(F3, with_repeats(F3, data))
    got = [(r.val, m) for r, m in roots_in(f, F9)]
    lifted = f.lift(F9)
    assert [r for r, _ in got] == _split_roots(F9, _pmonic(F9, list(lifted.coeffs)))
    assert got == linear_multiplicities(lifted)


def test_constant_and_zero():
    assert roots_in(Poly.constant(F9, 4)) == []
    with pytest.raises(ZeroPolynomial):
        roots_in(Poly.zero(F9))
    assert not has_root_in_units(Poly.constant(F9, 4))
    assert has_root_in_units(Poly.zero(F9))


@pytest.mark.parametrize("ctx", EXT_CONTEXTS, ids=EXT_IDS)
@bounded
@given(data=st.data())
def test_has_root_in_extension_matches_factor_degrees(ctx, data):
    f = Poly(ctx, with_repeats(ctx, data) if data.draw(st.booleans())
             else data.draw(polys(ctx, 1, 9)))
    degrees = {g.degree for g, _ in factorize(f).factors}
    for k in (1, 2, 3, 4):
        assert has_root_in_extension(f, k) == any(k % d == 0 for d in degrees), k


@pytest.mark.parametrize("base", [F3, F9], ids=["GF(3)", "GF(9)"])
def test_deg9_case_iii_one_gcd_equals_split(base):
    # w = x^8 + 2·A3 x^2 + 2·A4 for every case-iii shape: no root in GF(q^4)
    # exactly when no irreducible factor has degree 1, 2 or 4
    for a3 in base.elements():
        for a4 in base.units():
            w = Poly(base, [base.mul(2, a4), 0, base.mul(2, a3)] + [0] * 5 + [1])
            split = any(4 % d == 0 for d, _ in orbit_parts(squarefree_part(w)))
            assert has_root_in_extension(w, 4) == split, (a3, a4)
