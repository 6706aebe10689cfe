"""Complete permutation monomials over a tower via good permutation polynomials.

For the tower GF(q^n) the reduced exponent is d = (q^n - 1)/(q - 1) + 1, and
b^(-1) x^d is a complete permutation monomial exactly when the conjugates of b
over GF(q) are the roots of v_g(x) = (g(-x) - g(0))/(-x) for a suitable
degree-(n+1) permutation polynomial g over GF(q) whose roots of v_g form a
single Frobenius orbit; such g are called good.  This module provides:

* v_g and the goodness report (gate conditions plus the single-orbit test,
  read off the orbit sizes that the distinct-degree split of the radical of
  v_g gives);
* brute-force permutation / complete-permutation oracles, vectorised over the
  whole field through exp/log tables;
* the Frobenius orbit structure of the roots of a polynomial, from the same
  split, with least-element orbit representatives on request;
* extraction and verification of witness elements b from a good g;
* the scaling normalisation h(x) = c g(c' x) + e and a heuristic
  multi-extension permutation probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .gf import (
    Context,
    ContextMismatch,
    DEFAULT_BRUTE_BOUND,
    FieldError,
    FieldTooLarge,
    FqElem,
    Tower,
    as_int,
    mk_tower,
)
from .poly import (
    ConstantPolynomial,
    Poly,
    orbit_split,
    roots_in,
)


class ZeroCoefficient(FieldError):
    pass


class ZeroScalar(FieldError):
    pass


class NotGood(FieldError):
    pass


class OrbitSizeDoesNotDivideN(FieldError):
    pass


class DegreeNotNPlusOne(FieldError):
    pass


# ---------------------------------------------------------------------------
# v_g


def v_poly(g: Poly) -> Poly:
    """(g(-x) - g(0))/(-x); the division is exact by construction."""
    if g.degree < 1:
        raise ConstantPolynomial("need degree >= 1")
    ctx = g.ctx
    out = []
    for j in range(g.degree):
        c = g.coeffs[j + 1]
        out.append(c if j % 2 == 0 else ctx.neg(c))
    return Poly(ctx, out)


# ---------------------------------------------------------------------------
# vectorised full-field evaluation


def _eval_all_sparse(ctx: Context, terms: dict, brute_bound: int) -> np.ndarray:
    """Values of sum(c_j x^j) over every field element (zero first)."""
    if ctx.order > brute_bound:
        raise FieldTooLarge(f"|F| = {ctx.order} exceeds brute bound {brute_bound}")
    ctx.ensure_tables(brute_bound)
    n = ctx.order
    m = n - 1
    ks = np.arange(m, dtype=np.int64)
    c0 = terms.get(0, 0)
    live = [(j, c) for j, c in terms.items() if j >= 1 and c]
    if ctx.p == 2:
        acc = np.zeros(m, dtype=np.int64)
        for j, c in live:
            acc ^= ctx._exp[(ks * (j % m if j >= m else j) + int(ctx._log[c])) % m]
        if c0:
            acc ^= c0
        f0 = c0
    else:
        k = ctx.deg_over_prime
        dig = ctx.digit_matrix()
        acc_d = np.zeros((m, k), dtype=np.int16)
        for j, c in live:
            idx = ctx._exp[(ks * (j % m if j >= m else j) + int(ctx._log[c])) % m]
            acc_d += dig[idx]
        if c0:
            acc_d += dig[c0]
        acc_d %= ctx.p
        powers = (ctx.p ** np.arange(k)).astype(np.int64)
        acc = acc_d.astype(np.int64).dot(powers)
        f0 = c0
    return np.concatenate(([f0], acc))


def _is_injective_values(vals: np.ndarray, order: int) -> bool:
    counts = np.bincount(vals, minlength=order)
    return int(counts.max()) == 1


def is_permutation(f: Poly, ctx: Optional[Context] = None,
                   brute_bound: int = DEFAULT_BRUTE_BOUND) -> bool:
    """Exhaustive bijectivity test of the evaluation map over ctx."""
    ctx = ctx or f.ctx
    lifted = f.lift(ctx)
    terms = {j: c for j, c in enumerate(lifted.coeffs) if c}
    vals = _eval_all_sparse(ctx, terms, brute_bound)
    return _is_injective_values(vals, ctx.order)


def is_cpp_poly(f: Poly, ctx: Optional[Context] = None,
                brute_bound: int = DEFAULT_BRUTE_BOUND) -> bool:
    """Whether both f and f + x permute ctx."""
    ctx = ctx or f.ctx
    if not is_permutation(f, ctx, brute_bound):
        return False
    return is_permutation(f + Poly.x(f.ctx), ctx, brute_bound)


def cpp_exponent(tower: Tower) -> int:
    return (tower.order - 1) // (tower.q - 1) + 1


def is_cpp_monomial(b, tower: Tower,
                    brute_bound: int = DEFAULT_BRUTE_BOUND) -> bool:
    """Exhaustively check that b^(-1) x^d is a complete permutation monomial.

    d is the reduced exponent (q^n - 1)/(q - 1) + 1.  True iff
    gcd(d, q^n - 1) = 1 and x -> b^(-1) x^d + x is injective on the tower.
    """
    bval = as_int(b)
    if isinstance(b, FqElem) and b.ctx is not tower:
        raise ContextMismatch("witness lives in a different context")
    if bval == 0:
        raise ZeroCoefficient("witness coefficient must be nonzero")
    n1 = tower.order - 1
    d = cpp_exponent(tower)
    if math.gcd(d, n1) != 1:
        return False
    if tower.order > brute_bound:
        raise FieldTooLarge(f"|F| = {tower.order} exceeds brute bound {brute_bound}")
    binv = tower.inv(bval)
    vals = _eval_all_sparse(tower, {d: binv, 1: 1}, brute_bound)
    return _is_injective_values(vals, tower.order)


# ---------------------------------------------------------------------------
# goodness


GOOD = "Good"
G_ZERO_NONZERO = "GZeroNonzero"
G_PRIME_ZERO = "GPrimeZero"
MULTIPLE_ORBITS = "MultipleOrbits"
ROOT_IN_BASE_FIELD = "RootInBaseField"


@dataclass(frozen=True)
class GoodnessReport:
    g: Poly
    vg: Poly
    radical: Poly           # monic; irreducible exactly when g is good
    orbit_sizes: tuple
    is_good: bool
    reason: str


def goodness(g: Poly) -> GoodnessReport:
    """Gate conditions plus the single-Frobenius-orbit test on v_g.

    Good means g(0) = 0, g'(0) != 0, and the distinct roots of v_g form one
    orbit under x -> x^q (equivalently the radical of v_g is irreducible over
    the coefficient field).  The orbit sizes come from the distinct-degree
    split of the radical; v_g is never factored completely.
    """
    if g.degree < 2:
        raise ConstantPolynomial("need degree >= 2")
    vg = v_poly(g)
    radical, parts = orbit_split(vg)
    orbit_sizes = tuple(d for d, part in parts for _ in range(part.degree // d))
    if g.coeff(0) != 0:
        return GoodnessReport(g, vg, radical, orbit_sizes, False, G_ZERO_NONZERO)
    if vg.coeff(0) == 0:
        # v_g(0) is g'(0) exactly
        return GoodnessReport(g, vg, radical, orbit_sizes, False, G_PRIME_ZERO)
    if len(orbit_sizes) == 1:
        return GoodnessReport(g, vg, radical, orbit_sizes, True, GOOD)
    reason = ROOT_IN_BASE_FIELD if orbit_sizes[0] == 1 else MULTIPLE_ORBITS
    return GoodnessReport(g, vg, radical, orbit_sizes, False, reason)


# ---------------------------------------------------------------------------
# orbit structure


def orbit_structure(f: Poly, with_reps: bool = False) -> list:
    """Frobenius orbit sizes of the distinct roots of f, with representatives.

    The sizes come from the distinct-degree split of the radical of f: a part
    of degree-d irreducibles holds deg(part)/d orbits of size d.  With
    with_reps=True the roots of each part are found in GF(q^d) and the least
    root of each orbit is its representative.

    Returns a sorted list of (orbit_size, representative FqElem or None).
    """
    ctx = f.ctx
    out = []
    for d, part in orbit_split(f)[1]:
        if not with_reps:
            out += [(d, None)] * (part.degree // d)
            continue
        top = ctx if d == 1 else mk_tower(ctx, d)
        left = {r.val for r, _ in roots_in(part, top)}
        while left:
            rho = min(left)
            left -= top.orbit(rho) if d > 1 else {rho}
            out.append((d, FqElem(top, rho)))
    return out


# ---------------------------------------------------------------------------
# witnesses


VERIFIED_BRUTE = "BruteForce"
VERIFIED_CRITERION = "CriterionOnly"


@dataclass(frozen=True)
class CppWitness:
    tower: Tower
    d: int
    b: int                      # encoding in the tower
    family: str = ""
    params: dict = field(default_factory=dict)
    verified: str = VERIFIED_CRITERION
    passed: Optional[bool] = None

    def b_elem(self) -> FqElem:
        return FqElem(self.tower, self.b)

    def to_json(self) -> dict:
        t = self.tower
        return {
            "p": t.p,
            "m": t.base.m,
            "n": t.n,
            "modulus": list(t.base.modulus),
            "extModulus": [list(t.base.decode(c)) for c in t.ext_modulus],
            "d": self.d,
            "b": [list(t.base.decode(c)) for c in t.decode(self.b)],
            "family": self.family,
            "params": self.params,
            "verified": self.verified,
            "passed": self.passed,
        }

    def b_encoding(self) -> int:
        return self.b


def witness_from_json(obj: dict) -> CppWitness:
    from .gf import mk_field
    base = mk_field(obj["p"], obj["m"])
    if list(base.modulus) != list(obj["modulus"]):
        raise FieldError("field modulus does not match deterministic reconstruction")
    tower = mk_tower(base, obj["n"])
    ext = [list(base.decode(c)) for c in tower.ext_modulus]
    if ext != [list(x) for x in obj["extModulus"]]:
        raise FieldError("tower modulus does not match deterministic reconstruction")
    b = tower.encode(base.encode(c) for c in obj["b"])
    return CppWitness(tower, obj["d"], b, obj.get("family", ""),
                      obj.get("params", {}), obj.get("verified", VERIFIED_CRITERION),
                      obj.get("passed"))


def witnesses_from_good(g: Poly, tower: Tower,
                        brute_bound: int = DEFAULT_BRUTE_BOUND,
                        family: str = "", params: Optional[dict] = None,
                        report: Optional[GoodnessReport] = None) -> list:
    """One witness per distinct root of v_g, located inside the tower.

    The correspondence holds only for deg g = n + 1 over GF(q) and the tower
    GF(q^n).  The radical of v_g, irreducible for a good g, has some degree
    s; the roots live in GF(q^s), which lies inside GF(q^n) when s
    divides n.  For a good g of degree n + 1, s divides n automatically, since
    v_g = c f^(n/s).  Witnesses are brute-force checked whenever the tower is
    within the brute-force bound, and marked criterion-only otherwise.

    Raises, checked in this order: NotGood when g is not good,
    OrbitSizeDoesNotDivideN when s does not divide n, and DegreeNotNPlusOne
    when deg g != n + 1.
    """
    if tower.base is not g.ctx:
        raise ContextMismatch("tower base differs from the coefficient field")
    rep = report or goodness(g)
    if not rep.is_good:
        raise NotGood(f"not a good polynomial ({rep.reason})")
    s = rep.radical.degree
    if tower.n % s:
        raise OrbitSizeDoesNotDivideN(f"orbit size {s} does not divide {tower.n}")
    if g.degree != tower.n + 1:
        raise DegreeNotNPlusOne(
            f"degree {g.degree} is not n + 1 = {tower.n + 1}")
    d = cpp_exponent(tower)
    roots = roots_in(rep.radical, tower)
    assert len(roots) == s
    params = dict(params or {})
    out = []
    for b, _ in roots:
        if tower.order <= brute_bound:
            ok = is_cpp_monomial(b, tower, brute_bound)
            out.append(CppWitness(tower, d, b.val, family, params,
                                  VERIFIED_BRUTE, ok))
        else:
            out.append(CppWitness(tower, d, b.val, family, params,
                                  VERIFIED_CRITERION, None))
    return out


def scalar_class_count(witnesses: list) -> int:
    """Number of witness classes up to multiplication by base-field units."""
    classes = set()
    for w in witnesses:
        t = w.tower
        classes.add(min(t.mul(w.b, c) for c in t.base.units()))
    return len(classes)


# ---------------------------------------------------------------------------
# scaling equivalence and the heuristic exceptionality probe


def cpp_normalize(g: Poly, c, cp, monic: bool = False) -> Poly:
    """h(x) = c g(c' x) + e with e fixed so that h(0) = 0.

    Roots of v_h are the roots of v_g divided by c'.  With monic=True the
    result is rescaled to leading coefficient 1 afterwards.
    """
    cv, cpv = as_int(c), as_int(cp)
    if cv == 0 or cpv == 0:
        raise ZeroScalar("scalars must be nonzero")
    h = g.scale_arg(cpv).scale(cv)
    h = h - Poly.constant(g.ctx, h.coeff(0))
    return h.monic() if monic else h


@dataclass(frozen=True)
class ExceptionalityProbe:
    ok: bool
    failed_k: Optional[int]
    tested: tuple
    skipped: tuple

    def __bool__(self) -> bool:
        return self.ok


def exceptional_necessary(f: Poly, K: int,
                          brute_bound: int = DEFAULT_BRUTE_BOUND) -> ExceptionalityProbe:
    """Heuristic necessary condition: f permutes GF(q^k) for the tested k <= K.

    A False verdict exhibits a failing extension; extensions beyond the brute
    bound are skipped and recorded.  The result is heuristic either way.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    base = f.ctx
    tested, skipped = [], []
    for k in range(1, K + 1):
        order = base.order ** k
        if order > brute_bound:
            skipped.append(k)
            continue
        ctx2 = base if k == 1 else mk_tower(base, k)
        tested.append(k)
        if not is_permutation(f, ctx2, brute_bound):
            return ExceptionalityProbe(False, k, tuple(tested), tuple(skipped))
    return ExceptionalityProbe(True, None, tuple(tested), tuple(skipped))
