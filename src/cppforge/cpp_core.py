"""Complete permutation monomials over a tower via good permutation polynomials.

For the tower GF(q^n) the reduced exponent is d = (q^n - 1)/(q - 1) + 1, and
b^(-1) x^d is a complete permutation monomial exactly when the conjugates of b
over GF(q) are the roots of v_g(x) = (g(-x) - g(0))/(-x) for a suitable
degree-(n+1) permutation polynomial g over GF(q) whose roots of v_g form a
single Frobenius orbit; such g are called good.  This module provides:

* v_g and the goodness report: the gate conditions first, then the
  single-orbit test, read off the first part of the lazy distinct-degree
  split of the radical of v_g (g is good iff that part is the whole
  radical); the full orbit sizes are computed only on request;
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
    orbit_parts,
    orbit_split,
    roots_in,
    squarefree_part,
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
    # odd p needs the digit matrix, whose cap is checked before any table is built
    dig = ctx.digit_matrix() if ctx.p != 2 else None
    ctx.ensure_tables(brute_bound)
    exp, log = ctx._exp, ctx._log
    m = ctx.order - 1
    c0 = terms.get(0, 0)

    def term(j: int, c: int) -> np.ndarray:
        # c x^j at x = gamma^i, i = 0 .. m-1
        if j == 1 and c == 1:
            return exp
        idx = np.arange(m, dtype=np.int64)
        idx *= j % m
        idx += int(log[c])
        idx %= m
        return exp[idx]

    live = [(j, c) for j, c in terms.items() if j >= 1 and c]
    out = np.empty(ctx.order, dtype=np.int64)
    out[0] = c0
    if ctx.p == 2:
        acc = out[1:]
        acc[:] = c0
        for j, c in live:
            acc ^= term(j, c)
    else:
        k = ctx.deg_over_prime
        acc_d = np.zeros((m, k), dtype=np.int16)
        for j, c in live:
            acc_d += dig[term(j, c)]
        if c0:
            acc_d += dig[c0]
        acc_d %= ctx.p
        powers = (ctx.p ** np.arange(k)).astype(np.int64)
        out[1:] = acc_d.astype(np.int64).dot(powers)
    return out


def _is_injective_values(vals: np.ndarray, order: int) -> bool:
    """Whether order values, each in [0, order), are pairwise distinct.

    With as many values as the range holds, that is the case exactly when
    every encoding of the range is hit.
    """
    seen = np.zeros(order, dtype=bool)
    seen[vals] = True
    return bool(seen.all())


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
    is_good: bool
    reason: str
    _radical: Optional[Poly] = None     # set when the orbit test ran

    @property
    def radical(self) -> Poly:
        """The monic radical of v_g; irreducible exactly when g is good."""
        return self._radical if self._radical is not None else squarefree_part(self.vg)

    @property
    def orbit_sizes(self) -> tuple:
        """Sizes of the Frobenius orbits of the roots of v_g, increasing.

        Computed on each request from the full distinct-degree split, as
        `orbit_structure` gives it; the verdict never needs them.
        """
        return tuple(d for d, _ in orbit_structure(self.vg))


def goodness(g: Poly) -> GoodnessReport:
    """Gate conditions plus the single-Frobenius-orbit test on v_g.

    Good means g(0) = 0, g'(0) != 0, and the distinct roots of v_g form one
    orbit under x -> x^q (equivalently the radical of v_g is irreducible over
    the coefficient field).  The gates come first, before any squarefree or
    Frobenius work.  The orbit test reads only the first part (d, part) of
    the lazy distinct-degree split of the radical (`orbit_parts`): g is good
    iff d = deg(radical), so the part is the radical itself; otherwise the
    reason is RootInBaseField for d = 1 and MultipleOrbits for d > 1.  v_g is
    never factored completely, and `orbit_sizes` is computed on demand.
    """
    if g.degree < 2:
        raise ConstantPolynomial("need degree >= 2")
    vg = v_poly(g)
    if g.coeff(0) != 0:
        return GoodnessReport(g, vg, False, G_ZERO_NONZERO)
    if vg.coeff(0) == 0:
        # v_g(0) is g'(0) exactly
        return GoodnessReport(g, vg, False, G_PRIME_ZERO)
    radical = squarefree_part(vg)
    d, _ = next(orbit_parts(radical))
    if d == radical.degree:
        return GoodnessReport(g, vg, True, GOOD, radical)
    reason = ROOT_IN_BASE_FIELD if d == 1 else MULTIPLE_ORBITS
    return GoodnessReport(g, vg, False, reason, radical)


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
    within the brute-force bound, and marked criterion-only otherwise, also
    when the brute force raises FieldTooLarge for a table it cannot build.

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
        verified, ok = VERIFIED_CRITERION, None
        if tower.order <= brute_bound:
            try:
                ok = is_cpp_monomial(b, tower, brute_bound)
                verified = VERIFIED_BRUTE
            except FieldTooLarge:
                pass    # an evaluation table the brute force needs is over its cap
        out.append(CppWitness(tower, d, b.val, family, params, verified, ok))
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
