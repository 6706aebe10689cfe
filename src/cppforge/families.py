"""Constructors and goodness predicates for the explicit families.

Each constructor builds a candidate good polynomial g over GF(q) and decides
the family's closed-form goodness criterion for it over GF(q).  Predictions
never consult the generic goodness test, so the two can be cross-checked
against each other.  A constructor builds a tower only where its verdict
needs one: the char-2 trace criterion of A2 and the orbit test of the general
D shape.  predicted_roots expresses the roots of v_g that A1, A2 and B
predict in a tower the caller already has; the scan asks for them in its own
tower, and only for an item that has witnesses to compare them with.

Families:

* A1  cyclic shifts (x+e)^(n+1) - e^(n+1), n+1 prime, good iff q has order n
  modulo n+1;
* A2  Dickson shifts D_(n+1)(x+e, a) - D_(n+1)(e, a) with the order / square /
  char-2 trace case split;
* B   degree-p polynomials (x+e)((x+e)^r - a)^(n/r) - e(e^r - a)^(n/r) for
  p = n+1, with the binomial-irreducibility (e = 0) and norm-order (e != 0)
  criteria;
* C   a char-3 class of degree s(s-1)/2 built from an exact rational
  expression; these are never good and exist to be refuted;
* D   linearized polynomials of degree p^r (two positive families and a
  general shape whose verdict is decided by a direct orbit test);
* Deg8/Deg9 complete classifiers for octic (char 2) and nonic (char 3)
  shapes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .gf import (
    FieldError,
    Fq,
    FqElem,
    Tower,
    as_int,
    factor_int,
    is_prime,
    legendre,
    mk_field,
    mk_tower,
    ord_mod,
    root_of_unity,
    solve_quadratic,
    sqrt_in,
)
from .poly import (
    Poly,
    dickson_poly,
    has_root_in_extension,
    has_root_in_units,
    is_irreducible,
    least_monic,
    linearized_associate,
    orbit_split,
    pow_mod,
    roots_in,
    squarefree_part,
)
from .cpp_core import v_poly


class NotPrimeDegree(FieldError):
    pass


class DividesQMinus1(FieldError):
    pass


class ZeroShift(FieldError):
    pass


class DividesQSquaredMinus1(FieldError):
    pass


class ZeroA(FieldError):
    pass


class DegenerateDerivative(FieldError):
    pass


class NotPrimeCharDegree(FieldError):
    pass


class RNotDivisor(FieldError):
    pass


class ExceptionalityViolated(FieldError):
    pass


class AZero(FieldError):
    pass


class NotChar3(FieldError):
    pass


class BadS(FieldError):
    pass


class ANotNonSquare(FieldError):
    pass


class RNotDividingM(FieldError):
    pass


class EpsilonNotDividingR(FieldError):
    pass


class NotLinearizedShape(FieldError):
    pass


class NotChar2(FieldError):
    pass


class NoKthRoot(FieldError):
    pass


@dataclass(frozen=True)
class FamilyParams:
    tag: str
    n: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FamilyItem:
    params: FamilyParams
    g: Poly
    predicted_good: bool


@dataclass(frozen=True)
class FamilySkip:
    params: FamilyParams
    reason: str


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def dickson_split_data(tower: Tower, n: int) -> list:
    """(alpha_i, beta_i) = (z^i + z^-i, z^i - z^-i), i = 1..n/2, for z of order n+1."""
    z = root_of_unity(tower, n + 1).val
    out = []
    zi = 1
    for _ in range(n // 2):
        zi = tower.mul(zi, z)
        zinv = tower.inv(zi)
        alpha = tower.add(zi, zinv)
        beta = tower.sub(zi, zinv)
        assert tower.mul(alpha, alpha) == tower.add(tower.mul(beta, beta), 4 % tower.p)
        out.append((alpha, beta))
    return out


# ---------------------------------------------------------------------------
# A1: cyclic shifts


def construct_a1(base: Fq, n: int, e) -> FamilyItem:
    """(x+e)^(n+1) - e^(n+1); good iff the order of q modulo n+1 equals n."""
    e = as_int(e)
    p, q = base.p, base.order
    if not is_prime(n + 1) or n + 1 == p:
        raise NotPrimeDegree(f"n+1 = {n + 1} must be a prime different from {p}")
    if (q - 1) % (n + 1) == 0:
        raise DividesQMinus1(f"{n + 1} divides q-1 = {q - 1}")
    if e == 0:
        raise ZeroShift("shift e must be nonzero")
    x = Poly.x(base)
    g = x.shift(e) ** (n + 1) - Poly.constant(base, base.pow_(e, n + 1))
    return FamilyItem(FamilyParams("A1", n, {"e": e}), g, ord_mod(q, n + 1) == n)


# ---------------------------------------------------------------------------
# A2: Dickson shifts


def construct_a2(base: Fq, n: int, a, e) -> FamilyItem:
    """D_(n+1)(x+e, a) - D_(n+1)(e, a) with the order / square / trace split."""
    a, e = as_int(a), as_int(e)
    p, q = base.p, base.order
    if not is_prime(n + 1) or n + 1 == p:
        raise NotPrimeDegree(f"n+1 = {n + 1} must be a prime different from {p}")
    if (q * q - 1) % (n + 1) == 0:
        raise DividesQSquaredMinus1(f"{n + 1} divides q^2-1")
    if a == 0:
        raise ZeroA("Dickson parameter a must be nonzero")
    dick = dickson_poly(base, n + 1, a)
    if dick.derivative().eval_at(e) == 0:
        raise DegenerateDerivative("D'(e, a) = 0")
    g = dick.shift(e) - Poly.constant(base, dick.eval_at(e))
    k = ord_mod(q, n + 1)
    params = FamilyParams("A2", n, {"a": a, "e": e})
    disc = base.sub(base.mul(e, e), base.mul(4 % p, a))  # e^2 - 4a
    if p != 2:
        if (n // 2) % 2 == 0:
            predicted = k == n
        elif disc == 0:
            # each quadratic factor is a square, so the radical of v_g has
            # the roots -e(alpha_i - 2)/2: one orbit when alpha_i has degree
            # n/2 over GF(q), which it has for k = n and for odd k = n/2
            predicted = k in (n, n // 2)
        elif legendre(base, disc) == -1:
            predicted = k == n // 2
        else:
            predicted = k == n
    else:
        if k not in (n, n // 2):
            predicted = False
        elif e == 0:
            # the trace criterion divides by e; decide by a direct orbit walk
            predicted = _a2_char2_e0_single_orbit(base, n, a)
        else:
            traces = _a2_char2_traces(base, n, a, e)
            predicted = traces[0] == 1
            assert all(t == traces[0] for t in traces)
    return FamilyItem(params, g, predicted)


def _a2_roots(top: Tower, a: int, e: int) -> list:
    """Sorted roots in top = GF(q^n) of the factors of v_g,
    x^2 + e(alpha_i - 2)x + (alpha_i - 2)((alpha_i + 2)a - e^2)."""
    p = top.p
    disc = top.sub(top.mul(e, e), top.mul(4 % p, a))  # e^2 - 4a
    vals = set()
    for alpha, beta in dickson_split_data(top, top.n):
        if p != 2:
            s = sqrt_in(top, top.mul(top.mul(beta, beta), disc))
            assert s is not None
            half = top.inv(2 % p)
            t0 = top.mul(e, top.sub(alpha, 2 % p))
            vals.add(top.neg(top.mul(half, top.add(t0, s))))
            vals.add(top.neg(top.mul(half, top.sub(t0, s))))
        else:
            a1 = FqElem(top, top.mul(e, alpha))
            a0 = FqElem(top, top.mul(alpha, top.add(top.mul(alpha, a), top.mul(e, e))))
            vals.update(r.val for r in solve_quadratic(FqElem(top, 1), a1, a0))
    return sorted(vals)


def _a2_char2_traces(base: Fq, n: int, a: int, e: int) -> list:
    """Subfield absolute traces of delta_i = 1/alpha_i + a/e^2, one per i."""
    top = mk_tower(base, n)
    k2 = top.deg_over_prime // 2
    shift = top.div(a, top.mul(e, e))
    out = []
    for alpha, _ in dickson_split_data(top, n):
        delta = top.add(top.inv(alpha), shift)
        assert top.pow_(delta, 2 ** k2) == delta  # lies in GF(q^(n/2))
        acc = cur = delta
        for _ in range(k2 - 1):
            cur = top.mul(cur, cur)
            acc = top.add(acc, cur)
        assert acc in (0, 1)
        out.append(acc)
    return out


def _a2_char2_e0_single_orbit(base: Fq, n: int, a: int) -> bool:
    top = mk_tower(base, n)
    roots = _a2_roots(top, a, 0)
    return top.orbit(roots[0]) == set(roots)


# ---------------------------------------------------------------------------
# B: degree p = n+1


def _dlog(base: Fq, a: int) -> int:
    if base._log_list is not None:
        return base._log_list[a]
    base.ensure_tables()
    return int(base._log[a])


def construct_b(base: Fq, r: int, a, e) -> FamilyItem:
    """(x+e)((x+e)^r - a)^k - e(e^r - a)^k over GF(q), with p = n+1, k = n/r."""
    a, e = as_int(a), as_int(e)
    p, q = base.p, base.order
    if p == 2:
        raise NotPrimeCharDegree("no such polynomials in characteristic 2")
    n = p - 1
    if r < 1 or n % r:
        raise RNotDivisor(f"r = {r} does not divide n = {n}")
    if a == 0:
        raise AZero("parameter a must be nonzero")
    if base.pow_(a, (q - 1) // r) == 1:
        raise ExceptionalityViolated(f"a^((q-1)/{r}) = 1")
    k = n // r
    x = Poly.x(base)
    s = x.shift(e)
    tail = base.mul(e, base.pow_(base.sub(base.pow_(e, r), a), k))
    g = s * (s ** r - Poly.constant(base, a)) ** k - Poly.constant(base, tail)
    params = FamilyParams("B", n, {"r": r, "a": a, "e": e})
    if e == 0:
        predicted = math.gcd(r, _dlog(base, a)) == 1
    else:
        norm = base.pow_(base.div(a, base.pow_(e, r)), (q - 1) // (p - 1))
        assert norm < p  # lands in the prime field
        ordv, cur = 1, norm
        while cur != 1:
            cur = cur * norm % p
            ordv += 1
        predicted = ordv == p - 1
    return FamilyItem(params, g, predicted)


def _b_roots(top: Tower, r: int, a: int, e: int) -> list:
    """Sorted roots of v_g predicted for a B item, in top = GF(q^(p-1)).

    The roots of v_g are -y for the nonzero roots y of g.  For e != 0 put
    w = x + e, w = z^k and L(z) = z^p - a·z: then w(w^r - a)^k = L(z)^k, and
    L is additive with kernel GF(p)·u0 (u0^(p-1) = a).  With v0^k = e,
    L(v0)^k = e(e^r - a)^k, so the roots are w = (v0 - lam·u0)^k; lam = 0
    gives y = 0, and the roots of v_g are e - (v0 - lam·u0)^k, lam = 1..p-1.
    """
    base, p = top.base, top.p
    k = (p - 1) // r
    if e == 0:
        rs = roots_in(Poly(base, [base.neg(a)] + [0] * (r - 1) + [1]), top)
        return sorted(top.neg(rho.val) for rho, _ in rs)
    u0 = roots_in(Poly(base, [base.neg(a)] + [0] * (p - 2) + [1]), top)[0][0].val
    v0 = roots_in(Poly(base, [base.neg(e)] + [0] * (k - 1) + [1]), top)[0][0].val
    return sorted({top.sub(e, top.pow_(top.sub(v0, top.mul(lam, u0)), k))
                   for lam in range(1, p)})


def predicted_roots(fp: FamilyParams, tower: Tower) -> Optional[list]:
    """The sorted encodings in tower of the roots of v_g that A1, A2 or B
    predicts for an item predicted good; None for every other family.

    tower is GF(q^n) with n = fp.n, where the roots of v_g lie when g is
    good.  The verdicts need none of this: construct_* decide over GF(q).
    """
    v, n = fp.params, fp.n
    if fp.tag == "A1":
        # the roots -e(z^i - 1), i = 1..n, for z of order n+1
        z = root_of_unity(tower, n + 1).val
        vals, zi = set(), 1
        for _ in range(n):
            zi = tower.mul(zi, z)
            vals.add(tower.neg(tower.mul(v["e"], tower.sub(zi, 1))))
        return sorted(vals)
    if fp.tag == "A2":
        return _a2_roots(tower, v["a"], v["e"])
    if fp.tag == "B":
        return _b_roots(tower, v["r"], v["a"], v["e"])
    return None


# ---------------------------------------------------------------------------
# C: the char-3 refutation class


def construct_c(base: Fq, r: int, a, e) -> FamilyItem:
    """Degree s(s-1)/2 char-3 construction; expected to never be good."""
    a, e = as_int(a), as_int(e)
    if base.p != 3:
        raise NotChar3("requires characteristic 3")
    s = 3 ** r
    if r < 1 or s <= 3 or math.gcd(r, 2 * base.m) != 1:
        raise BadS(f"need s = 3^r > 3 with gcd(r, 2m) = 1; got r = {r}")
    if legendre(base, a) != -1:
        raise ANotNonSquare(f"a = {a} is not a non-square")
    x = Poly.x(base)
    shifted = x.shift(e)
    A = shifted ** 2 - Poly.constant(base, a)
    B = A ** ((s - 1) // 2) + Poly.constant(base, base.pow_(a, (s - 1) // 2))
    quo, rem = divmod(B, shifted ** 2)
    assert rem.is_zero(), "rational expression failed to simplify"
    g = shifted * A ** ((s + 1) // 4) * quo ** ((s + 1) // 2)
    assert g.degree == s * (s - 1) // 2
    g = g - Poly.constant(base, g.eval_at(0))
    params = FamilyParams("C", s * (s - 1) // 2 - 1, {"r": r, "a": a, "e": e})
    return FamilyItem(params, g, False)


# ---------------------------------------------------------------------------
# D: linearized families


def construct_lin_d(base: Fq, variant: str, r: int = 0,
                    j: int = 0, k: int = 0, h_coeffs: Iterable = (),
                    e=0) -> FamilyItem:
    """Linearized degree-p^r families: lin2, lin3, and the general shape."""
    p, m = base.p, base.m
    if variant == "lin2":
        if r < 1 or m % r:
            raise RNotDividingM(f"r = {r} must divide m = {m}")
        zeta = base.primitive_element()
        deg = p ** r
        coeffs = [0] * (deg + 1)
        coeffs[1] = base.neg(zeta)
        coeffs[deg] = 1
        g = Poly(base, coeffs)
        return FamilyItem(FamilyParams("D_lin2", deg - 1, {"r": r}), g, True)
    if variant == "lin3":
        eps = math.gcd(m, p ** r - 1)
        if r % eps:
            raise EpsilonNotDividingR(f"eps = {eps} does not divide r = {r}")
        ell = _primitive_poly(p, eps, r // eps)
        emb = _subfield_embedding(mk_field(p, eps), base)
        ell_b = Poly(base, [emb(c) for c in ell.coeffs])
        g = linearized_associate(ell_b, eps)
        return FamilyItem(
            FamilyParams("D_lin3", p ** r - 1,
                         {"r": r, "eps": eps, "ell": list(ell.coeffs)}),
            g, True)
    if variant == "general":
        return _construct_lin_general(base, j, k, list(h_coeffs), as_int(e))
    raise ValueError(f"unknown linearized variant {variant!r}")


def _primitive_poly(p: int, eps: int, deg: int) -> Poly:
    """Encoding-least monic degree-deg primitive polynomial over GF(p^eps)."""
    sub = mk_field(p, eps)
    target = p ** (eps * deg) - 1
    exps = [target // ell for ell in factor_int(target)]
    x = Poly.x(sub)

    # for an irreducible f with f(0) != 0, x is a unit of GF(p^(eps*deg)),
    # so x^target = 1 and x is primitive iff no x^(target/ell) is 1
    def primitive(f: Poly) -> bool:
        return (f.coeffs[0] != 0 and is_irreducible(f)
                and all(pow_mod(x, t, f).coeffs != (1,) for t in exps))

    return least_monic(sub, deg, primitive)


def _subfield_embedding(sub: Fq, sup: Fq):
    """Ring embedding GF(p^eps) -> GF(p^m) via the least modulus root."""
    if sub is sup:
        return lambda c: c
    if sub.m == 1:
        return lambda c: c
    rho = roots_in(Poly(sup, sub.modulus), sup)[0][0].val
    def embed_c(c: int) -> int:
        acc = 0
        for d in reversed(sub.decode(c)):
            acc = sup.add(sup.mul(acc, rho), d)
        return acc
    return embed_c


def _construct_lin_general(base: Fq, j: int, k: int, h_coeffs: list, e: int) -> FamilyItem:
    if j < 1 or k < 1 or not h_coeffs:
        raise NotLinearizedShape("need j, k >= 1 and a nonempty H")
    p = base.p
    hpoly = Poly(base, h_coeffs)
    xk = Poly.monomial(base, k)
    L = Poly.monomial(base, j) * hpoly.compose(xk)
    deg = L.degree
    dd = factor_int(deg)
    if len(dd) != 1 or base.p not in dd:
        raise NotLinearizedShape(f"degree {deg} is not a power of {p}")
    for i, c in enumerate(L.coeffs):
        if c and i != 0:
            t = i
            while t > 1 and t % p == 0:
                t //= p
            if t != 1:
                raise NotLinearizedShape(f"exponent {i} is not a p-power")
    shifted = Poly.x(base).shift(e)
    g = shifted ** j * hpoly.compose(shifted) ** k
    g = g - Poly.constant(base, g.eval_at(0))
    # roots of L away from zero, in the splitting tower
    vl = v_poly(L)
    top = mk_tower(base, math.lcm(*(d for d, _ in orbit_split(vl)[1])))
    ell_roots = [rho.val for rho, _ in roots_in(vl, top)]
    if e == 0:
        e0 = 0
    else:
        e_roots = roots_in(Poly(base, [base.neg(e)] + [0] * (k - 1) + [1]), top)
        if not e_roots:
            raise NoKthRoot(f"e = {e} has no k-th root in the splitting tower")
        e0 = e_roots[0][0].val
    vals = {top.sub(e, top.pow_(top.sub(e0, ell), k)) for ell in ell_roots}
    predicted = top.orbit(next(iter(vals))) == vals
    params = FamilyParams("D_general", deg - 1,
                          {"j": j, "k": k, "h": list(hpoly.coeffs), "e": e})
    return FamilyItem(params, g, predicted)


# ---------------------------------------------------------------------------
# degree-8 classifier (char 2)


@dataclass(frozen=True)
class Deg8Result:
    exceptional: bool
    good: bool
    g_poly: Poly     # x^7 + A4 x^3 + A6 x + A7
    f_poly: Poly     # the octic itself


def classify_deg8(base: Fq, A: Iterable) -> Deg8Result:
    """Octic x^8 + sum A_i x^(8-i): exceptional iff A1 = A2 = A3 = A5 = 0 and
    x^7 + A4 x^3 + A6 x + A7 has no roots among the units; good iff that
    septic is irreducible."""
    if base.p != 2:
        raise NotChar2("octic classifier requires characteristic 2")
    A = [as_int(c) for c in A]
    if len(A) != 7:
        raise ValueError("need the 7 coefficients A1..A7")
    a1, a2, a3, a4, a5, a6, a7 = A
    f = Poly(base, [0, a7, a6, a5, a4, a3, a2, a1, 1])
    g = Poly(base, [a7, a6, 0, a4, 0, 0, 0, 1])
    shape = a1 == a2 == a3 == a5 == 0
    exceptional = shape and not has_root_in_units(g)
    good = exceptional and is_irreducible(g)
    return Deg8Result(exceptional, good, g, f)


# ---------------------------------------------------------------------------
# degree-9 classifier (char 3)


@dataclass(frozen=True)
class Deg9Result:
    exceptional: bool
    case_index: str          # "i" | "ii" | "iii" | "iv" | "none"
    matches: tuple           # all shape matches, in order
    good: bool
    f_poly: Poly


def _deg9_forced_iii(base: Fq, a3: int, a4: int, a5: int) -> tuple:
    d = base.div
    m_, ad = base.mul, base.add
    a6 = ad(ad(m_(a3, a3), m_(a3, d(base.pow_(a5, 3), base.pow_(a4, 3)))),
            d(m_(a5, a5), a4))
    a7 = ad(m_(2, m_(a3, a4)), m_(2, d(base.pow_(a5, 3), m_(a4, a4))))
    a8 = ad(ad(m_(2, m_(a3, a5)), m_(a4, a4)),
            m_(2, d(base.pow_(a5, 4), base.pow_(a4, 3))))
    return a6, a7, a8


def _deg9_forced_iv(base: Fq, a2: int, a3: int, a5: int) -> tuple:
    d = base.div
    m_, ad = base.mul, base.add
    a6 = ad(base.pow_(a2, 3), d(m_(a3, a5), a2))
    a7 = ad(m_(2, m_(a2, a5)), m_(2, d(base.pow_(a3, 3), a2)))
    a8 = ad(ad(base.pow_(a2, 4), m_(a3, a5)),
            ad(d(m_(a5, a5), a2), d(base.pow_(a3, 4), m_(a2, a2))))
    return a6, a7, a8


def classify_deg9(base: Fq, A: Iterable) -> Deg9Result:
    """Nonic x^9 + sum A_i x^(9-i) against the four exceptional shapes."""
    if base.p != 3:
        raise NotChar3("nonic classifier requires characteristic 3")
    A = [as_int(c) for c in A]
    if len(A) != 8:
        raise ValueError("need the 8 coefficients A1..A8")
    a1, a2, a3, a4, a5, a6, a7, a8 = A
    F = Poly(base, [0, a8, a7, a6, a5, a4, a3, a2, a1, 1])
    matches = []
    # with A3 != 0, x^9 + A3 x^6 + A6 x^3 = (x^3 + a x^2 + b x)^3 and that
    # cubic is in no row of Dickson's table, so case i asks A3 = 0 too
    if a1 == a2 == a3 == a4 == a5 == a7 == a8 == 0:
        cond = Poly(base, [a6, 0, 0, 0, 0, 0, 1])
        if not has_root_in_units(cond):
            matches.append("i")
    if a1 == a2 == a3 == a4 == a5 == a7 == 0:
        cond = Poly(base, [a8, 0, a6, 0, 0, 0, 0, 0, 1])
        if not has_root_in_units(cond):
            matches.append("ii")
    if a1 == a2 == 0 and a4 != 0 and (a6, a7, a8) == _deg9_forced_iii(base, a3, a4, a5):
        ell1 = Poly(base, [base.mul(2, a4), base.mul(2, a3), 0, 0, 1])
        if not roots_in(ell1):
            matches.append("iii")
    if a1 == 0 and a4 == 0 and a2 != 0 and (a6, a7, a8) == _deg9_forced_iv(base, a2, a3, a5):
        if legendre(base, base.mul(2, a2)) == -1:
            matches.append("iv")
    case = matches[0] if matches else "none"
    good = False
    if case == "ii":
        good = is_irreducible(Poly(base, [a8, 0, a6, 0, 0, 0, 0, 0, 1]))
    elif case == "iii":
        # good asks that w have no root in GF(q^4): the elements of GF(q^4)
        # are the roots of x^(q^4) - x, so that is gcd(w, x^(q^4) - x) = 1
        w = Poly(base, [base.mul(2, a4), 0, base.mul(2, a3), 0, 0, 0, 0, 0, 1])
        good = not has_root_in_extension(w, 4)
    elif case == "iv":
        # good asks for one orbit of roots, so the radical of v_F must be
        # irreducible; v_F itself can be a power, e.g. (x^2 + A2)^4 when
        # A3 = A5 = 0
        good = is_irreducible(squarefree_part(v_poly(F)))
    return Deg9Result(bool(matches), case, tuple(matches), good, F)


# ---------------------------------------------------------------------------
# enumeration

_DEG9_CASES = ("i", "ii", "iii", "iv")


def family_params(tag: str, base: Fq, n: Optional[int] = None,
                  ranges: Optional[dict] = None) -> list:
    """The FamilyParams of a family over base, in enumeration order.

    Builds nothing: enumerate_family turns this list, or any slice of it,
    into items.  Each family loops over its keys in a fixed order, the last
    varying fastest; ranges maps a key to the list of values that replaces
    its default loop.  Deg9 reads one key, "cases", the subset of its four
    shapes to enumerate.

    Raises ValueError for an unknown tag, for A1 or A2 without n, for a range
    key the family does not read, and for a range value that is not an int
    ("r") or an element of base (every other key but "cases"); NotChar2 and
    NotChar3 (FieldError) for Deg8 and Deg9 over the wrong characteristic.
    """
    # n ends as each FamilyParams.n: the tower degree for A1 and A2, a
    # constant of the family otherwise
    E, U = base.elements(), base.units()
    if tag in ("A1", "A2") and n is None:
        raise ValueError(f"family {tag} needs n")
    if tag == "A1":
        loops = {"e": U}
    elif tag == "A2":
        loops = {"a": U, "e": E}
    elif tag == "B":
        n = base.p - 1
        loops = {"r": _divisors(n), "a": U, "e": E}
    elif tag == "C":
        n = 0
        r = next(rr for rr in range(1, 8) if 3 ** rr > 3 and math.gcd(rr, 2 * base.m) == 1)
        loops = {"r": [r], "a": U, "e": E}
    elif tag in ("D_lin2", "D_lin3"):
        n = 0
        loops = {"r": _divisors(base.m) if tag == "D_lin2" else [base.m]}
    elif tag == "Deg8":
        if base.p != 2:
            raise NotChar2("octic classifier requires characteristic 2")
        n = 7
        loops = {"A4": E, "A6": E, "A7": E}
    elif tag == "Deg9":
        if base.p != 3:
            raise NotChar3("nonic classifier requires characteristic 3")
        loops = {"cases": _DEG9_CASES}
    else:
        raise ValueError(f"unknown family tag {tag!r}")
    for key, vals in (ranges or {}).items():
        if key not in loops:
            raise ValueError(f"family {tag} does not read range key {key!r}; "
                             f"it reads {list(loops)}")
        if key == "cases":
            ok = all(v in _DEG9_CASES for v in vals)
        else:
            ok = all(type(v) is int and (key == "r" or 0 <= v < base.order) for v in vals)
        if not ok:
            raise ValueError(f"range key {key!r} of family {tag} has a bad value in {vals}")
        loops[key] = vals
    if tag == "Deg9":
        shapes = {"i": {"A3": E, "A6": E}, "ii": {"A6": E, "A8": E},
                  "iii": {"A3": E, "A4": U, "A5": E}, "iv": {"A2": U, "A3": E, "A5": E}}
        return [FamilyParams(tag, 8, {"case": case, **values})
                for case in _DEG9_CASES if case in loops["cases"]
                for values in _product(shapes[case])]
    return [FamilyParams(tag, n, values) for values in _product(loops)]


def _product(loops: dict) -> list:
    """One dict per combination of the loops' values, the last key fastest."""
    return [dict(zip(loops, combo)) for combo in itertools.product(*loops.values())]


def _build(base: Fq, fp: FamilyParams) -> FamilyItem:
    v = fp.params
    if fp.tag == "A1":
        return construct_a1(base, fp.n, v["e"])
    if fp.tag == "A2":
        return construct_a2(base, fp.n, v["a"], v["e"])
    if fp.tag == "B":
        return construct_b(base, v["r"], v["a"], v["e"])
    if fp.tag == "C":
        return construct_c(base, v["r"], v["a"], v["e"])
    if fp.tag in ("D_lin2", "D_lin3"):
        return construct_lin_d(base, fp.tag[2:], r=v["r"])
    if fp.tag == "Deg8":
        res = classify_deg8(base, [0, 0, 0, v["A4"], 0, v["A6"], v["A7"]])
    elif v["case"] == "i":
        res = classify_deg9(base, [0, 0, v["A3"], 0, 0, v["A6"], 0, 0])
    elif v["case"] == "ii":
        res = classify_deg9(base, [0, 0, 0, 0, 0, v["A6"], 0, v["A8"]])
    elif v["case"] == "iii":
        a3, a4, a5 = v["A3"], v["A4"], v["A5"]
        res = classify_deg9(base, [0, 0, a3, a4, a5, *_deg9_forced_iii(base, a3, a4, a5)])
    else:
        a2, a3, a5 = v["A2"], v["A3"], v["A5"]
        res = classify_deg9(base, [0, a2, a3, 0, a5, *_deg9_forced_iv(base, a2, a3, a5)])
    return FamilyItem(fp, res.f_poly, res.good)


def enumerate_family(base: Fq, params: Iterable[FamilyParams]):
    """Lazy stream of the FamilyItem or FamilySkip of each FamilyParams, in order.

    Each item is built when next() asks for it, so a consumer that checks
    each item before drawing the next runs construction and checking
    interleaved, in its own process.  A FieldError from a constructor makes
    the item a FamilySkip named after the error; any other exception ends
    the stream.
    """
    for fp in params:
        try:
            item = _build(base, fp)
        except FieldError as err:
            item = FamilySkip(fp, type(err).__name__)
        yield item
