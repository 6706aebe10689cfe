"""Constructors and goodness predicates for the explicit families.

Each constructor builds a candidate good polynomial g over GF(q), returns the
predicted goodness verdict from the family's closed-form criterion, and, when
the prediction is positive, the predicted roots of v_g located in the tower
GF(q^n).  Predictions never consult the generic goodness test, so the two
can be cross-checked against each other.

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

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .gf import (
    Context,
    FieldError,
    Fq,
    FqElem,
    Tower,
    abs_trace2,
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

    def key(self) -> tuple:
        return (self.tag, self.n) + tuple(sorted(self.params.items()))


@dataclass(frozen=True)
class FamilyItem:
    params: FamilyParams
    g: Poly
    predicted_good: bool
    predicted_roots: Optional[tuple] = None   # FqElem tuple, when predicted good
    note: str = ""


@dataclass(frozen=True)
class FamilySkip:
    params: FamilyParams
    reason: str


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


@dataclass(frozen=True)
class DicksonSplitData:
    i: int
    alpha: FqElem
    beta: FqElem


def dickson_split_data(tower: Tower, n: int) -> list:
    """alpha_i = z^i + z^-i and beta_i = z^i - z^-i for z of order n+1."""
    z = root_of_unity(tower, n + 1).val
    out = []
    zi = 1
    for i in range(1, n // 2 + 1):
        zi = tower.mul(zi, z)
        zinv = tower.inv(zi)
        alpha = tower.add(zi, zinv)
        beta = tower.sub(zi, zinv)
        assert tower.mul(alpha, alpha) == tower.add(tower.mul(beta, beta), 4 % tower.p)
        out.append(DicksonSplitData(i, FqElem(tower, alpha), FqElem(tower, beta)))
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
    k = ord_mod(q, n + 1)
    predicted = k == n
    params = FamilyParams("A1", n, {"e": e})
    roots = None
    if predicted:
        top = mk_tower(base, n)
        z = root_of_unity(top, n + 1).val
        vals = set()
        zi = 1
        for _ in range(n):
            zi = top.mul(zi, z)
            vals.add(top.neg(top.mul(e, top.sub(zi, 1))))
        roots = tuple(FqElem(top, v) for v in sorted(vals))
    return FamilyItem(params, g, predicted, roots)


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
    note = ""
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
            note = "e0-direct-orbit"
        else:
            traces = _a2_char2_traces(base, n, a, e)
            predicted = traces[0] == 1
            assert all(t == traces[0] for t in traces)
    roots = None
    if predicted:
        roots = tuple(_a2_predicted_roots(base, n, a, e, disc))
    return FamilyItem(params, g, predicted, roots, note)


def _a2_split(base: Fq, n: int):
    top = mk_tower(base, n)
    return top, dickson_split_data(top, n)


def _a2_predicted_roots(base: Fq, n: int, a: int, e: int, disc: int) -> list:
    """Roots of v_g from the quadratic factors x^2 + e(a_i-2)x + (a_i-2)((a_i+2)a - e^2)."""
    top, split = _a2_split(base, n)
    p = base.p
    vals = set()
    for dat in split:
        alpha = dat.alpha.val
        if p != 2:
            beta = dat.beta.val
            am2 = top.sub(alpha, 2 % p)
            under = top.mul(top.mul(beta, beta), disc)
            s = sqrt_in(top, under)
            assert s is not None
            half = top.inv(2 % p)
            t0 = top.mul(e, am2)
            vals.add(top.neg(top.mul(half, top.add(t0, s))))
            vals.add(top.neg(top.mul(half, top.sub(t0, s))))
        else:
            a1 = FqElem(top, top.mul(e, alpha))
            a0 = FqElem(top, top.mul(alpha, top.add(top.mul(alpha, a), top.mul(e, e))))
            for r in solve_quadratic(FqElem(top, 1), a1, a0):
                vals.add(r.val)
    return [FqElem(top, v) for v in sorted(vals)]


def _a2_char2_traces(base: Fq, n: int, a: int, e: int) -> list:
    """Subfield absolute traces of delta_i = 1/alpha_i + a/e^2, one per i."""
    top, split = _a2_split(base, n)
    k2 = top.deg_over_prime // 2
    shift = top.div(a, top.mul(e, e))
    out = []
    for dat in split:
        delta = top.add(top.inv(dat.alpha.val), shift)
        assert top.pow_(delta, 2 ** k2) == delta  # lies in GF(q^(n/2))
        acc = cur = delta
        for _ in range(k2 - 1):
            cur = top.mul(cur, cur)
            acc = top.add(acc, cur)
        assert acc in (0, 1)
        out.append(acc)
    return out


def _a2_char2_e0_single_orbit(base: Fq, n: int, a: int) -> bool:
    top, split = _a2_split(base, n)
    roots = set()
    for dat in split:
        alpha = dat.alpha.val
        roots.add(sqrt_in(top, top.mul(top.mul(alpha, alpha), a)))
    return top.orbit(next(iter(roots))) == roots


# ---------------------------------------------------------------------------
# B: degree p = n+1


def _dlog(base: Fq, a: int) -> int:
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
    top = mk_tower(base, n)
    if e == 0:
        j = _dlog(base, a)
        predicted = math.gcd(r, j) == 1
        roots = None
        if predicted:
            rs = roots_in(Poly(base, [base.neg(a)] + [0] * (r - 1) + [1]), top)
            roots = tuple(FqElem(top, top.neg(rho.val)) for rho, _ in rs)
        return FamilyItem(params, g, predicted, roots)
    norm = base.pow_(base.div(a, base.pow_(e, r)), (q - 1) // (p - 1))
    assert norm < p  # lands in the prime field
    ordv, cur = 1, norm
    while cur != 1:
        cur = cur * norm % p
        ordv += 1
    predicted = ordv == p - 1
    roots = None
    if predicted:
        u0 = roots_in(Poly(base, [base.neg(a)] + [0] * (p - 2) + [1]), top)[0][0].val
        v0 = roots_in(Poly(base, [base.neg(e)] + [0] * (k - 1) + [1]), top)[0][0].val
        vals = {top.sub(top.pow_(top.sub(v0, top.mul(lam, u0)), k), e)
                for lam in range(1, p)}
        roots = tuple(FqElem(top, v) for v in sorted(vals))
    return FamilyItem(params, g, predicted, roots)


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
    return FamilyItem(params, g, False, None)


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
    roots = tuple(FqElem(top, v) for v in sorted(vals)) if predicted else None
    return FamilyItem(params, g, predicted, roots)


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
    if a1 == a2 == a4 == a5 == a7 == a8 == 0:
        cond = Poly(base, [a6, 0, 0, a3, 0, 0, 1])
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
        # w lies over GF(q), so it has a root in GF(q^4) exactly when it has
        # an irreducible factor of degree 1, 2 or 4
        w = Poly(base, [base.mul(2, a4), 0, base.mul(2, a3), 0, 0, 0, 0, 0, 1])
        good = all(4 % d for d, _ in orbit_split(w)[1])
    elif case == "iv":
        # good asks for one orbit of roots, so the radical of v_F must be
        # irreducible; v_F itself can be a power, e.g. (x^2 + A2)^4 when
        # A3 = A5 = 0
        good = is_irreducible(squarefree_part(v_poly(F)))
    return Deg9Result(bool(matches), case, tuple(matches), good, F)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_family(tag: str, base: Fq, n: Optional[int] = None,
                     ranges: Optional[dict] = None):
    """Deterministic stream of FamilyItem / FamilySkip over admissible params."""
    ranges = ranges or {}

    def attempt(build, params: FamilyParams):
        try:
            yield build()
        except FieldError as err:
            yield FamilySkip(params, type(err).__name__)

    if tag == "A1":
        assert n is not None
        for e in ranges.get("e", base.units()):
            yield from attempt(lambda e=e: construct_a1(base, n, e),
                               FamilyParams("A1", n, {"e": e}))
    elif tag == "A2":
        assert n is not None
        for a in ranges.get("a", base.units()):
            for e in ranges.get("e", base.elements()):
                yield from attempt(lambda a=a, e=e: construct_a2(base, n, a, e),
                                   FamilyParams("A2", n, {"a": a, "e": e}))
    elif tag == "B":
        nb = base.p - 1
        for r in ranges.get("r", _divisors(nb)):
            for a in ranges.get("a", base.units()):
                for e in ranges.get("e", base.elements()):
                    yield from attempt(lambda r=r, a=a, e=e: construct_b(base, r, a, e),
                                       FamilyParams("B", nb, {"r": r, "a": a, "e": e}))
    elif tag == "C":
        for r in ranges.get("r", [next(rr for rr in range(1, 8)
                                       if 3 ** rr > 3 and math.gcd(rr, 2 * base.m) == 1)]):
            for a in ranges.get("a", base.units()):
                for e in ranges.get("e", base.elements()):
                    yield from attempt(lambda r=r, a=a, e=e: construct_c(base, r, a, e),
                                       FamilyParams("C", 0, {"r": r, "a": a, "e": e}))
    elif tag == "D_lin2":
        for r in ranges.get("r", _divisors(base.m)):
            yield from attempt(lambda r=r: construct_lin_d(base, "lin2", r=r),
                               FamilyParams("D_lin2", 0, {"r": r}))
    elif tag == "D_lin3":
        for r in ranges.get("r", [base.m]):
            yield from attempt(lambda r=r: construct_lin_d(base, "lin3", r=r),
                               FamilyParams("D_lin3", 0, {"r": r}))
    elif tag == "Deg8":
        for a4 in ranges.get("A4", base.elements()):
            for a6 in ranges.get("A6", base.elements()):
                for a7 in ranges.get("A7", base.elements()):
                    res = classify_deg8(base, [0, 0, 0, a4, 0, a6, a7])
                    yield FamilyItem(
                        FamilyParams("Deg8", 7, {"A4": a4, "A6": a6, "A7": a7}),
                        res.f_poly, res.good)
    elif tag == "Deg9":
        yield from _enumerate_deg9(base, ranges)
    else:
        raise ValueError(f"unknown family tag {tag!r}")


def _enumerate_deg9(base: Fq, ranges: dict):
    cases = ranges.get("cases", ("i", "ii", "iii", "iv"))
    if "i" in cases:
        for a3 in base.elements():
            for a6 in base.elements():
                res = classify_deg9(base, [0, 0, a3, 0, 0, a6, 0, 0])
                yield FamilyItem(FamilyParams("Deg9", 8, {"case": "i", "A3": a3, "A6": a6}),
                                 res.f_poly, res.good)
    if "ii" in cases:
        for a6 in base.elements():
            for a8 in base.elements():
                res = classify_deg9(base, [0, 0, 0, 0, 0, a6, 0, a8])
                yield FamilyItem(FamilyParams("Deg9", 8, {"case": "ii", "A6": a6, "A8": a8}),
                                 res.f_poly, res.good)
    if "iii" in cases:
        for a3 in base.elements():
            for a4 in base.units():
                for a5 in base.elements():
                    a6, a7, a8 = _deg9_forced_iii(base, a3, a4, a5)
                    res = classify_deg9(base, [0, 0, a3, a4, a5, a6, a7, a8])
                    yield FamilyItem(
                        FamilyParams("Deg9", 8,
                                     {"case": "iii", "A3": a3, "A4": a4, "A5": a5}),
                        res.f_poly, res.good)
    if "iv" in cases:
        for a2 in base.units():
            for a3 in base.elements():
                for a5 in base.elements():
                    a6, a7, a8 = _deg9_forced_iv(base, a2, a3, a5)
                    res = classify_deg9(base, [0, a2, a3, 0, a5, a6, a7, a8])
                    yield FamilyItem(
                        FamilyParams("Deg9", 8,
                                     {"case": "iv", "A2": a2, "A3": a3, "A5": a5}),
                        res.f_poly, res.good)
