"""Dense univariate polynomials over a field context.

Coefficients are canonical element encodings, constant term first, with the
leading coefficient nonzero (the zero polynomial is the empty tuple).  The
module provides exact ring arithmetic, gcd, factorization into irreducibles
(squarefree split, distinct-degree split, equal-degree split with a
context-derived deterministic seed), the Frobenius orbit sizes of the roots
from the distinct-degree split alone, a Rabin-style irreducibility test that
is independent of the factorizer, root extraction in extensions, Dickson
polynomials, linearized associates, and characteristic polynomials of tower
elements.

Large-degree work over plain fields (degrees in the hundreds appear in the
scanners) is routed through a numpy backend that represents a polynomial as
its GF(p) digit components and multiplies by integer convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .gf import (
    Context,
    ContextMismatch,
    DivisionByZero,
    FieldError,
    Fq,
    FqElem,
    Tower,
    as_int,
    factor_int,
)


class ZeroPolynomial(FieldError):
    pass


class ConstantPolynomial(FieldError):
    pass


class NotAnExtension(FieldError):
    pass


class CoefficientsOutsideSubfield(FieldError):
    pass


_ENGINE_MIN = 48  # coefficient count beyond which the numpy backend kicks in


# ---------------------------------------------------------------------------
# list-space primitives


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _padd(ctx: Context, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    add = ctx.add
    for i, cb in enumerate(b):
        out[i] = add(out[i], cb)
    return _trim(out)


def _pneg(ctx: Context, a: list) -> list:
    neg = ctx.neg
    return [neg(c) for c in a]


def _psub(ctx: Context, a: list, b: list) -> list:
    return _padd(ctx, a, _pneg(ctx, b))


def _pscale(ctx: Context, a: list, c: int) -> list:
    if c == 0:
        return []
    mul = ctx.mul
    return _trim([mul(x, c) for x in a])


def _pmul(ctx: Context, a: list, b: list) -> list:
    if not a or not b:
        return []
    if isinstance(ctx, Fq) and len(a) + len(b) >= _ENGINE_MIN:
        eng = _engine(ctx)
        return eng.from_arr(eng.mul(eng.to_arr(a), eng.to_arr(b)))
    add, mul = ctx.add, ctx.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = add(out[i + j], mul(ca, cb))
    return _trim(out)


def _pdivmod(ctx: Context, a: list, b: list) -> tuple:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    if isinstance(ctx, Fq) and len(a) >= _ENGINE_MIN:
        eng = _engine(ctx)
        q, r = eng.divmod_(eng.to_arr(a), eng.to_arr(b))
        return eng.from_arr(q), eng.from_arr(r)
    add, mul, neg = ctx.add, ctx.mul, ctx.neg
    inv_lead = ctx.inv(b[-1])
    db = len(b) - 1
    r = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = r[k]
        if c:
            f = mul(c, inv_lead)
            q[k - db] = f
            r[k] = 0
            nf = neg(f)
            for j in range(db):
                if b[j]:
                    r[k - db + j] = add(r[k - db + j], mul(nf, b[j]))
    return _trim(q), _trim(r[:db])


def _pmod(ctx: Context, a: list, b: list) -> list:
    return _pdivmod(ctx, a, b)[1]


def _pmonic(ctx: Context, a: list) -> list:
    if not a or a[-1] == 1:
        return list(a)
    return _pscale(ctx, a, ctx.inv(a[-1]))


def _pgcd(ctx: Context, a: list, b: list) -> list:
    if isinstance(ctx, Fq) and max(len(a), len(b)) >= _ENGINE_MIN:
        eng = _engine(ctx)
        return eng.from_arr(eng.gcd(eng.to_arr(a), eng.to_arr(b)))
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _pmod(ctx, a, b)
    return _pmonic(ctx, a)


def _ppow_mod(ctx: Context, a: list, e: int, mod: list) -> list:
    if len(mod) < 2:
        raise ValueError("modulus must have degree >= 1")
    if isinstance(ctx, Fq) and len(mod) >= _ENGINE_MIN:
        eng = _engine(ctx)
        return eng.from_arr(eng.pow_mod(eng.to_arr(a), e, eng.to_arr(mod)))
    acc, base = [1], _pmod(ctx, list(a), mod)
    while e:
        if e & 1:
            acc = _pmod(ctx, _pmul(ctx, acc, base), mod)
        base = _pmod(ctx, _pmul(ctx, base, base), mod)
        e >>= 1
    return acc


def _pderiv(ctx: Context, a: list) -> list:
    p = ctx.p
    out = []
    for i in range(1, len(a)):
        k = i % p
        out.append(ctx.mul(a[i], k) if k else 0)
    return _trim(out)


def _peval(ctx: Context, a: list, v: int) -> int:
    acc = 0
    add, mul = ctx.add, ctx.mul
    for c in reversed(a):
        acc = add(mul(acc, v), c)
    return acc


def _pshift(ctx: Context, a: list, e: int) -> list:
    """Coefficients of f(x + e), by repeated synthetic division."""
    if e == 0 or not a:
        return list(a)
    out = list(a)
    add, mul = ctx.add, ctx.mul
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] = add(out[j], mul(e, out[j + 1]))
    return _trim(out)


def _pcompose(ctx: Context, a: list, g: list) -> list:
    acc: list = []
    for c in reversed(a):
        acc = _pmul(ctx, acc, g)
        if c:
            acc = _padd(ctx, acc, [c])
    return acc


def _psub_x(ctx: Context, a: list) -> list:
    out = list(a) + [0] * max(0, 2 - len(a))
    out[1] = ctx.sub(out[1], 1)
    return _trim(out)


# ---------------------------------------------------------------------------
# numpy backend for large dense work over plain fields


class _DenseEngine:
    """Digit-component polynomial arithmetic over GF(p^m) via convolution."""

    def __init__(self, ctx: Fq):
        self.ctx = ctx
        self.p = ctx.p
        self.m = ctx.m
        self.powers = (ctx.p ** np.arange(ctx.m)).astype(np.int64)
        # digit rows of t^j for j = m .. 2m-2, used to fold convolution output
        self.red_rows = [
            np.array(ctx.decode(ctx.pow_(ctx.p, j)), dtype=np.int64)
            for j in range(ctx.m, 2 * ctx.m - 1)
        ] if ctx.m > 1 else []

    def to_arr(self, coeffs: list) -> np.ndarray:
        enc = np.array(coeffs, dtype=np.int64)
        out = np.empty((self.m, len(coeffs)), dtype=np.int64)
        for i in range(self.m):
            out[i] = enc % self.p
            enc //= self.p
        return out

    def from_arr(self, arr: np.ndarray) -> list:
        enc = self.powers.dot(arr % self.p)
        out = enc.tolist()
        return _trim(out)

    def _fold(self, tcomp: list) -> np.ndarray:
        """Reduce 2m-1 t-components to m using the field modulus rows."""
        m = self.m
        out = tcomp[:m]
        for j in range(m, 2 * m - 1):
            row = self.red_rows[j - m]
            extra = tcomp[j]
            for i in range(m):
                if row[i]:
                    out[i] = out[i] + row[i] * extra
        return np.stack(out) % self.p

    def mul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        if A.shape[1] == 0 or B.shape[1] == 0:
            return np.zeros((self.m, 0), dtype=np.int64)
        m = self.m
        L = A.shape[1] + B.shape[1] - 1
        tcomp = [np.zeros(L, dtype=np.int64) for _ in range(2 * m - 1)]
        for i in range(m):
            if not A[i].any():
                continue
            for j in range(m):
                if not B[j].any():
                    continue
                tcomp[i + j] += np.convolve(A[i], B[j])
        return self._fold(tcomp)

    def _scalar_times(self, digits: np.ndarray, B: np.ndarray) -> np.ndarray:
        m = self.m
        L = B.shape[1]
        tcomp = [np.zeros(L, dtype=np.int64) for _ in range(2 * m - 1)]
        for i in range(m):
            if digits[i]:
                for j in range(m):
                    tcomp[i + j] += int(digits[i]) * B[j]
        return self._fold(tcomp)

    def _deg(self, A: np.ndarray) -> int:
        nz = np.nonzero(A.any(axis=0))[0]
        return int(nz[-1]) if len(nz) else -1

    def divmod_(self, A: np.ndarray, B: np.ndarray) -> tuple:
        ctx = self.ctx
        db = self._deg(B)
        if db < 0:
            raise DivisionByZero("polynomial division by zero")
        da = self._deg(A)
        if da < db:
            return np.zeros((self.m, 0), dtype=np.int64), A[:, :da + 1]
        inv_lead = ctx.inv(int(self.powers.dot(B[:, db])))
        R = A[:, :da + 1].copy()
        Q = np.zeros((self.m, da - db + 1), dtype=np.int64)
        Bt = B[:, :db + 1]
        for k in range(da, db - 1, -1):
            lead = int(self.powers.dot(R[:, k] % self.p))
            if lead == 0:
                continue
            f = ctx.mul(lead, inv_lead)
            fd = np.array(ctx.decode(f), dtype=np.int64)
            Q[:, k - db] = fd
            R[:, k - db:k + 1] -= self._scalar_times(fd, Bt)
            R[:, k - db:k + 1] %= self.p
        return Q, R[:, :db] if db else np.zeros((self.m, 0), dtype=np.int64)

    def gcd(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        while self._deg(B) >= 0:
            A, B = B, self.divmod_(A, B)[1]
        d = self._deg(A)
        if d < 0:
            return A[:, :0]
        A = A[:, :d + 1] % self.p
        lead = int(self.powers.dot(A[:, d]))
        if lead != 1:
            fd = np.array(self.ctx.decode(self.ctx.inv(lead)), dtype=np.int64)
            A = self._scalar_times(fd, A)
        return A

    def pow_mod(self, A: np.ndarray, e: int, M: np.ndarray) -> np.ndarray:
        acc = self.to_arr([1])
        base = self.divmod_(A, M)[1]
        while e:
            if e & 1:
                acc = self.divmod_(self.mul(acc, base), M)[1]
            base = self.divmod_(self.mul(base, base), M)[1]
            e >>= 1
        return acc


_ENGINES: dict = {}


def _engine(ctx: Fq) -> _DenseEngine:
    eng = _ENGINES.get(id(ctx))
    if eng is None:
        eng = _DenseEngine(ctx)
        _ENGINES[id(ctx)] = eng
    return eng


# ---------------------------------------------------------------------------
# the public polynomial type


class Poly:
    """Dense univariate polynomial over a field context, constant term first."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: Context, coeffs: Iterable, trusted: bool = False):
        if trusted:
            self.ctx = ctx
            self.coeffs = tuple(coeffs)
            return
        vals = [as_int(c) % ctx.order for c in coeffs]
        self.ctx = ctx
        self.coeffs = tuple(_trim(vals))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx: Context) -> "Poly":
        return cls(ctx, (), trusted=True)

    @classmethod
    def constant(cls, ctx: Context, c) -> "Poly":
        c = as_int(c) % ctx.order
        return cls(ctx, (c,) if c else (), trusted=True)

    @classmethod
    def x(cls, ctx: Context) -> "Poly":
        return cls(ctx, (0, 1), trusted=True)

    @classmethod
    def monomial(cls, ctx: Context, deg: int, c=1) -> "Poly":
        c = as_int(c) % ctx.order
        if c == 0:
            return cls.zero(ctx)
        return cls(ctx, (0,) * deg + (c,), trusted=True)

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _check(self, other: "Poly") -> None:
        if self.ctx is not other.ctx:
            raise ContextMismatch("polynomials over different contexts")

    # -- ring ops ------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.ctx, _padd(self.ctx, list(self.coeffs), list(other.coeffs)), trusted=True)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.ctx, _psub(self.ctx, list(self.coeffs), list(other.coeffs)), trusted=True)

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, _pneg(self.ctx, list(self.coeffs)), trusted=True)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly(self.ctx, _pmul(self.ctx, list(self.coeffs), list(other.coeffs)), trusted=True)

    def __divmod__(self, other: "Poly") -> tuple:
        self._check(other)
        q, r = _pdivmod(self.ctx, list(self.coeffs), list(other.coeffs))
        return Poly(self.ctx, q, trusted=True), Poly(self.ctx, r, trusted=True)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        acc, base = Poly.constant(self.ctx, 1), self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def scale(self, c) -> "Poly":
        return Poly(self.ctx, _pscale(self.ctx, list(self.coeffs), as_int(c)), trusted=True)

    def monic(self) -> "Poly":
        return Poly(self.ctx, _pmonic(self.ctx, list(self.coeffs)), trusted=True)

    def derivative(self) -> "Poly":
        return Poly(self.ctx, _pderiv(self.ctx, list(self.coeffs)), trusted=True)

    def eval_at(self, v) -> int:
        return _peval(self.ctx, list(self.coeffs), as_int(v))

    def __call__(self, v) -> int:
        return self.eval_at(v)

    def compose(self, g: "Poly") -> "Poly":
        self._check(g)
        return Poly(self.ctx, _pcompose(self.ctx, list(self.coeffs), list(g.coeffs)), trusted=True)

    def shift(self, e) -> "Poly":
        """f(x + e)."""
        return Poly(self.ctx, _pshift(self.ctx, list(self.coeffs), as_int(e)), trusted=True)

    def scale_arg(self, c) -> "Poly":
        """f(c x)."""
        c = as_int(c)
        ctx, out, cur = self.ctx, [], 1
        for a in self.coeffs:
            out.append(ctx.mul(a, cur))
            cur = ctx.mul(cur, c)
        return Poly(ctx, _trim(out), trusted=True)

    def lift(self, to_ctx: Context) -> "Poly":
        """Reinterpret over an extension tower of the coefficient field."""
        if to_ctx is self.ctx:
            return self
        if isinstance(to_ctx, Tower) and to_ctx.base is self.ctx:
            return Poly(to_ctx, self.coeffs, trusted=True)
        if isinstance(self.ctx, Fq) and self.ctx.m == 1 and self.ctx.p == to_ctx.p:
            return Poly(to_ctx, self.coeffs, trusted=True)
        raise NotAnExtension(f"{to_ctx!r} does not extend {self.ctx!r}")

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ctx is other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def to_json(self) -> list:
        return list(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return "Poly(" + " + ".join(terms) + f" over {self.ctx!r})"


def gcd(f: Poly, g: Poly) -> Poly:
    f._check(g)
    return Poly(f.ctx, _pgcd(f.ctx, list(f.coeffs), list(g.coeffs)), trusted=True)


def pow_mod(f: Poly, e: int, mod: Poly) -> Poly:
    f._check(mod)
    return Poly(f.ctx, _ppow_mod(f.ctx, list(f.coeffs), e, list(mod.coeffs)), trusted=True)


# ---------------------------------------------------------------------------
# factorization


@dataclass(frozen=True)
class Factorization:
    unit: int
    factors: tuple  # ((Poly monic irreducible, multiplicity), ...)

    def expand(self) -> Poly:
        ctx = self.factors[0][0].ctx if self.factors else None
        if ctx is None:
            raise ZeroPolynomial("cannot expand an empty factorization without context")
        acc = Poly.constant(ctx, self.unit)
        for f, mult in self.factors:
            acc = acc * f ** mult
        return acc

    def to_json(self) -> dict:
        return {
            "unit": self.unit,
            "factors": [{"poly": list(f.coeffs), "mult": m} for f, m in self.factors],
        }


def _seed_fold(*vals: int) -> int:
    h = 0xCBF29CE484222325
    for v in vals:
        v = int(v)
        while True:
            h = ((h ^ (v & 0xFFFFFFFF)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            v >>= 32
            if not v:
                break
    return h


def _ctx_seed(ctx: Context, coeffs: list) -> int:
    if isinstance(ctx, Tower):
        ident = (ctx.p, ctx.base.m, ctx.n) + ctx.ext_modulus
    else:
        ident = (ctx.p, ctx.m) + ctx.modulus
    return _seed_fold(*ident, *coeffs)


def _proot_coeffs(ctx: Context, c: list) -> list:
    """Write c = v(x^p) and return v, p-th rooting the surviving coefficients."""
    p = ctx.p
    e = ctx.order // p
    out = []
    for i in range(0, len(c), p):
        out.append(ctx.pow_(c[i], e))
        if any(c[i + j] for j in range(1, min(p, len(c) - i))):
            raise FieldError("polynomial is not a p-th power")  # pragma: no cover
    return _trim(out)


def _squarefree_split(ctx: Context, f: list) -> list:
    """Monic f -> [(monic squarefree part, multiplicity)], multiplicities distinct."""
    out = []
    df = _pderiv(ctx, f)
    if not df:
        # f = v(x^p) entirely
        for g, m in _squarefree_split(ctx, _proot_coeffs(ctx, f)):
            out.append((g, m * ctx.p))
        return out
    c = _pgcd(ctx, f, df)
    w = _pdivmod(ctx, f, c)[0]
    i = 1
    while len(w) > 1:
        y = _pgcd(ctx, w, c)
        z = _pdivmod(ctx, w, y)[0]
        if len(z) > 1:
            out.append((z, i))
        w = y
        c = _pdivmod(ctx, c, y)[0]
        i += 1
    if len(c) > 1:
        for g, m in _squarefree_split(ctx, _proot_coeffs(ctx, c)):
            out.append((g, m * ctx.p))
    return out


def _distinct_degree_split(ctx: Context, f: list) -> list:
    """Monic squarefree f -> [(d, product of the irreducible factors of degree d)]."""
    out = []
    q = ctx.order
    fstar = list(f)
    h = [0, 1]
    d = 0
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


def _equal_degree_split(ctx: Context, f: list, d: int, rng_state: list) -> list:
    """Split a monic product of distinct degree-d irreducibles into factors."""
    deg = len(f) - 1
    if deg == d:
        return [f]
    q = ctx.order
    while True:
        rng_state[0] = _seed_fold(rng_state[0], deg, d)
        s = rng_state[0]
        theta = []
        for _ in range(deg):
            s = _seed_fold(s, 0x9E3779B9)
            theta.append(s % ctx.order)
        theta = _trim(theta)
        if len(theta) < 2:
            continue
        if ctx.p == 2:
            # trace map of the quotient algebra onto GF(2)
            k2 = d * ctx.deg_over_prime
            t = list(theta)
            cur = list(theta)
            for _ in range(k2 - 1):
                cur = _pmod(ctx, _pmul(ctx, cur, cur), f)
                t = _padd(ctx, t, cur)
            g = _pgcd(ctx, f, t)
        else:
            t = _ppow_mod(ctx, theta, (q ** d - 1) // 2, f)
            g = _pgcd(ctx, f, _psub(ctx, t, [1]))
        if 1 < len(g) < len(f):
            rest = _pdivmod(ctx, f, g)[0]
            return (_equal_degree_split(ctx, g, d, rng_state)
                    + _equal_degree_split(ctx, rest, d, rng_state))


def factorize(f: Poly) -> Factorization:
    """Full factorization into monic irreducibles times a unit."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    ctx = f.ctx
    unit = f.lc
    if f.degree == 0:
        return Factorization(unit, ())
    work = _pmonic(ctx, list(f.coeffs))
    rng_state = [_ctx_seed(ctx, work)]
    factors = []
    for part, mult in _squarefree_split(ctx, work):
        for d, prod in _distinct_degree_split(ctx, part):
            for piece in _equal_degree_split(ctx, prod, d, rng_state):
                factors.append((Poly(ctx, piece, trusted=True), mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return Factorization(unit, tuple(factors))


def squarefree_part(f: Poly) -> Poly:
    """Product of the distinct monic irreducible factors."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    ctx = f.ctx
    parts = _squarefree_split(ctx, _pmonic(ctx, list(f.coeffs)))
    acc = [1]
    for g, _ in parts:
        acc = _pmul(ctx, acc, g)
    return Poly(ctx, acc, trusted=True)


def orbit_split(f: Poly) -> tuple:
    """The radical of f and its distinct-degree split.

    Returns (rad, [(d, product of the monic degree-d irreducible factors of
    rad)]) with d increasing.  The roots of a degree-d irreducible form one
    Frobenius orbit of size d, so each part holds deg(part)/d orbits of size
    d; no equal-degree splitting is done.
    """
    if f.degree == 0:
        raise ConstantPolynomial("need degree >= 1")
    rad = squarefree_part(f)
    ctx = f.ctx
    parts = [(d, Poly(ctx, g, trusted=True))
             for d, g in _distinct_degree_split(ctx, list(rad.coeffs))]
    return rad, parts


def is_irreducible(f: Poly) -> bool:
    """Rabin test; an independent route from factorize()."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    d = f.degree
    if d == 0:
        raise ConstantPolynomial("constant polynomial")
    if d == 1:
        return True
    ctx = f.ctx
    q = ctx.order
    work = _pmonic(ctx, list(f.coeffs))
    x = [0, 1]
    if _psub_x(ctx, _ppow_mod(ctx, x, q ** d, work)):
        return False
    for ell in factor_int(d):
        h = _ppow_mod(ctx, x, q ** (d // ell), work)
        if len(_pgcd(ctx, work, _psub_x(ctx, h))) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# roots


def _linear_split(ctx: Context, w: list, rng_state: list) -> list:
    """Roots of a monic product of distinct linear factors."""
    if len(w) == 2:
        return [ctx.neg(w[0])]
    return [r for piece in _equal_degree_split(ctx, w, 1, rng_state)
            for r in (ctx.neg(piece[0]),)]


def roots_in(f: Poly, ctx2: Optional[Context] = None) -> list:
    """All roots of f lying in ctx2 (default: its own context), with multiplicity.

    Returns a sorted list of (FqElem, multiplicity).
    """
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    ctx2 = ctx2 or f.ctx
    lifted = f.lift(ctx2)
    if lifted.degree < 1:
        return []
    work = _pmonic(ctx2, list(lifted.coeffs))
    rad = list(squarefree_part(Poly(ctx2, work, trusted=True)).coeffs)
    h = _ppow_mod(ctx2, [0, 1], ctx2.order, rad)
    w = _pgcd(ctx2, rad, _psub_x(ctx2, h))
    if len(w) < 2:
        return []
    rng_state = [_ctx_seed(ctx2, work)]
    roots = _linear_split(ctx2, w, rng_state)
    out = []
    for r in sorted(roots):
        mult = 0
        cur = work
        while True:
            q, rem = _pdivmod(ctx2, cur, [ctx2.neg(r), 1])
            if rem:
                break
            mult += 1
            cur = q
        out.append((FqElem(ctx2, r), mult))
    return out


def has_root_in_units(f: Poly) -> bool:
    """Whether f vanishes somewhere on the unit group of its own context."""
    ev = f.eval_at
    return any(ev(c) == 0 for c in f.ctx.units())


# ---------------------------------------------------------------------------
# special polynomials


def dickson_poly(ctx: Context, k: int, a) -> Poly:
    """Degree-k Dickson polynomial D_k(x, a), from its explicit expansion.

    Binomial weights are computed in the integers and reduced mod p, and the
    result satisfies D_k(y + a/y, a) = y^k + (a/y)^k.
    """
    if k < 1:
        raise ValueError("Dickson degree must be >= 1")
    a = as_int(a)
    coeffs = [0] * (k + 1)
    neg_a = ctx.neg(a)
    apow = 1
    for j in range(0, k // 2 + 1):
        w = k * math.comb(k - j, j) // (k - j)
        wp = w % ctx.p
        if wp:
            coeffs[k - 2 * j] = ctx.mul(wp, apow)
        apow = ctx.mul(apow, neg_a)
    return Poly(ctx, _trim(coeffs), trusted=True)


def linearized_associate(ell: Poly, eps: int) -> Poly:
    """Linearized p^eps-associate: sum c_i x^i -> sum c_i x^(p^(eps*i)).

    Coefficients must lie in the GF(p^eps) subfield of their context.
    """
    ctx = ell.ctx
    if ell.is_zero():
        raise ZeroPolynomial("zero polynomial")
    s = ctx.p ** eps
    for c in ell.coeffs:
        if ctx.pow_(c, s) != c:
            raise CoefficientsOutsideSubfield(
                f"coefficient {c} not fixed by x -> x^{s}")
    out = [0] * (s ** ell.degree + 1)
    for i, c in enumerate(ell.coeffs):
        if c:
            out[s ** i] = c
    return Poly(ctx, _trim(out), trusted=True)


def char_poly_of(b: FqElem, tower: Tower) -> list:
    """Elementary symmetric values A_0..A_n of the conjugates of b over GF(q).

    The product over i < n of (T - b^(q^i)) expands to
    sum_j (-1)^j A_j T^(n-j); every A_j is verified to lie in the base field
    and returned as a base-field element.
    """
    if b.ctx is not tower:
        raise ContextMismatch("element does not live in the given tower")
    n = tower.n
    conj = []
    cur = b.val
    for _ in range(n):
        conj.append(cur)
        cur = tower.frobenius(cur, 1)
    acc = [1]
    for c in conj:
        acc = _pmul(tower, acc, [tower.neg(c), 1])
    base = tower.base
    out = []
    sign = 1
    for j in range(n + 1):
        coeff = acc[n - j] if n - j < len(acc) else 0
        aj = tower.project_base(coeff if sign == 1 else tower.neg(coeff))
        out.append(FqElem(base, aj))
        sign = -sign
    return out
