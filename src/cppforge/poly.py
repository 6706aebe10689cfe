"""Dense univariate polynomials over a field context.

Coefficients are canonical element encodings, constant term first, with the
leading coefficient nonzero (the zero polynomial is the empty tuple).  The
module provides exact ring arithmetic, gcd, factorization into irreducibles
(squarefree split, distinct-degree split, equal-degree split with a
context-derived deterministic seed), the Frobenius orbit sizes of the roots
from the distinct-degree split alone, a Rabin-style irreducibility test that
is independent of the factorizer, root extraction in extensions, Dickson
polynomials, linearized associates, and characteristic polynomials of tower
elements.  `least_monic` walks monic candidates in encoding order; with
`is_irreducible` as its test it finds the field and tower moduli of `gf`,
which imports both inside its constructors.

Polynomials below `_ENGINE_MIN` terms, and all polynomials over towers, stay
on the list path.  Its products and remainders step with one kernel,
out[off + j] += c·b[j]; over fields of order at most gf._ROW_BOUND that
kernel indexes the field's dense op rows instead of calling its methods.
Frobenius powers on this path come from the Frobenius matrix of the modulus
f, the rows x^(q·i) mod f, built once per call: over a context of order q
every coefficient satisfies c^q = c, so h^q mod f = sum h_i·(x^(q·i) mod f)
is one matrix product.  The distinct-degree split and the Rabin test take
each step that way.

Large-degree work over plain fields (degrees in the hundreds appear in the
scanners) is routed through a numpy backend that represents a polynomial as
its GF(p) digit components and multiplies by integer convolution, as long as
its int64 sums cannot overflow (`_on_engine`).  Its `pow_mod` takes each
remainder with two products by a Newton inverse of the reversed modulus,
computed once per call (von zur Gathen & Gerhard, Modern Computer Algebra,
§9.1); its `divmod_` and `gcd` share one elimination loop whose step is one
product of a digit matrix.
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


def _on_engine(ctx: Context, size: int, terms: int) -> bool:
    """Whether work of `size` coefficients goes to the numpy backend.

    Only plain fields have the backend, from _ENGINE_MIN coefficients on, and
    only while its int64 sums cannot overflow.  Digits lie below p.  In
    `_DenseEngine.mul` one convolution entry sums at most `terms` products of
    two digits, the shorter operand's length, and each of the 2m - 1
    t-components adds at most m convolutions: at most m·terms·(p-1)^2.
    `_fold` adds to each low component at most m - 1 high ones, each times a
    digit: at most m·terms·(p-1)^2·(1 + (m-1)(p-1)), which must stay below
    2^63.  The elimination step of `divmod_` and `gcd` and the `_mats`
    products sum m digit products, so they need the same bound with terms = 1;
    every product inside `pow_mod`, the Newton inverse included, has a factor
    shorter than the modulus, so there terms = len(mod).
    """
    if not isinstance(ctx, Fq) or size < _ENGINE_MIN:
        return False
    p, m = ctx.p, ctx.m
    return m * terms * (p - 1) ** 2 * (1 + (m - 1) * (p - 1)) < 1 << 63


# ---------------------------------------------------------------------------
# list-space primitives


def _axpy(ctx: Context):
    """The list-path kernel out[off + j] += c·b[j] (j < len b) over ctx.

    Fields of order at most gf._ROW_BOUND carry dense op rows, and then each
    step is two list lookups, arows[x][mrow[y]] with mrow = mul_rows[c];
    towers and larger fields call their add and mul methods.
    """
    mrows = ctx._mul_rows
    if mrows is None:
        add, mul = ctx.add, ctx.mul

        def axpy(out: list, off: int, c: int, b: list) -> None:
            for k, y in enumerate(b, off):
                if y:
                    out[k] = add(out[k], mul(c, y))
    else:
        arows = ctx._add_rows

        def axpy(out: list, off: int, c: int, b: list) -> None:
            mrow = mrows[c]
            for k, y in enumerate(b, off):
                if y:
                    out[k] = arows[out[k]][mrow[y]]
    return axpy


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
    if _on_engine(ctx, len(a) + len(b), min(len(a), len(b))):
        eng = _engine(ctx)
        return eng.from_arr(eng.mul(eng.to_arr(a), eng.to_arr(b)))
    axpy = _axpy(ctx)
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            axpy(out, i, c, b)
    return _trim(out)


def _reduce(ctx: Context, axpy, r: list, b: list) -> list:
    """Reduce r mod b in place on the list path; return the quotient."""
    db = len(b) - 1
    inv_lead = 1 if b[-1] == 1 else ctx.inv(b[-1])
    # adding c·x^(k-db)·tail to r removes its term c·x^k
    tail = [0] * db
    axpy(tail, 0, ctx.neg(inv_lead), b[:db])
    mul = ctx.mul
    q = [0] * max(0, len(r) - db)
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k]
        if c:
            q[k - db] = c if inv_lead == 1 else mul(c, inv_lead)
            axpy(r, k - db, c, tail)
    del r[db:]
    _trim(r)
    return _trim(q)


def _pdivmod(ctx: Context, a: list, b: list) -> tuple:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    if _on_engine(ctx, len(a), 1):
        eng = _engine(ctx)
        q, r = eng.divmod_(eng.to_arr(a), eng.to_arr(b))
        return eng.from_arr(q), eng.from_arr(r)
    r = list(a)
    return _reduce(ctx, _axpy(ctx), r, b), r


def _pmod(ctx: Context, a: list, b: list) -> list:
    return _pdivmod(ctx, a, b)[1]


def _pmonic(ctx: Context, a: list) -> list:
    if not a or a[-1] == 1:
        return list(a)
    return _pscale(ctx, a, ctx.inv(a[-1]))


def _pgcd(ctx: Context, a: list, b: list) -> list:
    if _on_engine(ctx, max(len(a), len(b)), 1):
        eng = _engine(ctx)
        return eng.from_arr(eng.gcd(eng.to_arr(a), eng.to_arr(b)))
    a, b = _trim(list(a)), _trim(list(b))
    axpy = _axpy(ctx)
    while b:
        _reduce(ctx, axpy, a, b)
        a, b = b, a
    return _pmonic(ctx, a)


def _ppow_mod(ctx: Context, a: list, e: int, mod: list) -> list:
    if len(mod) < 2:
        raise ValueError("modulus must have degree >= 1")
    if _on_engine(ctx, len(mod), len(mod)):
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
    """Digit-component polynomial arithmetic over GF(p^m) via convolution.

    A polynomial is an (m, length) array of GF(p) digits, column j holding
    coefficient j.  Multiplication by a field element c is the m x m GF(p)
    matrix whose column j holds the digits of c·t^j.

    * `divmod_` and `gcd` share `_eliminate`: with the rows t^i·B/lc(B),
      i < m, of the divisor B stacked once, removing the lead term c of the
      remainder is one dot of c's digits with them and an in-place
      subtract-and-mod on the top deg B + 1 columns.
    * `pow_mod` reduces each product X by G = rev(M)^-1 mod x^(D-1), found
      by Newton iteration once per call: Q = rev(rev(X)·G mod x^l) and the
      remainder is the low D terms of X - Q·M (MCA §9.1).
    """

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

    def _deg(self, A: np.ndarray) -> int:
        nz = np.nonzero(A.any(axis=0))[0]
        return int(nz[-1]) if len(nz) else -1

    def _mats(self, c: int) -> np.ndarray:
        """(m, m, m) GF(p) matrices: [i] multiplies digit columns by c·t^i.

        digits(c·b) = _mats(c)[0] · digits(b), and column j of [i] holds the
        digits of c·t^(i+j).
        """
        ctx, m, ct = self.ctx, self.m, [c]
        for _ in range(2 * m - 2):
            ct.append(ctx.mul(ct[-1], self.p))   # t is encoded as p
        dig = [ctx.decode(x) for x in ct]
        return np.array([dig[i:i + m] for i in range(m)], dtype=np.int64).transpose(0, 2, 1)

    def _inv_lead(self, B: np.ndarray, d: int) -> np.ndarray:
        return self._mats(self.ctx.inv(int(self.powers.dot(B[:, d]))))

    def _eliminate(self, R: np.ndarray, B: np.ndarray, db: int) -> np.ndarray:
        """Reduce R (digits mod p) modulo B of degree db in place; return the quotient."""
        p, m, L = self.p, self.m, db + 1
        inv = self._inv_lead(B, db)
        TB = (inv @ B[:, :L] % p).reshape(m, m * L)
        leads = np.zeros((m, max(0, R.shape[1] - db)), dtype=np.int64)
        powers = self.powers
        for k in range(R.shape[1] - 1, db - 1, -1):
            c = R[:, k]
            if powers.dot(c):
                leads[:, k - db] = c
                top = R[:, k - db:k + 1]
                top -= c.dot(TB).reshape(m, L)
                top %= p
        return inv[0] @ leads % p

    def divmod_(self, A: np.ndarray, B: np.ndarray) -> tuple:
        db = self._deg(B)
        if db < 0:
            raise DivisionByZero("polynomial division by zero")
        da = self._deg(A)
        if da < db:
            return np.zeros((self.m, 0), dtype=np.int64), A[:, :da + 1]
        R = A[:, :da + 1] % self.p
        Q = self._eliminate(R, B, db)
        return Q, R[:, :db]

    def gcd(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        da, db = self._deg(A), self._deg(B)
        A, B = A[:, :da + 1] % self.p, B[:, :db + 1] % self.p
        while db >= 0:
            self._eliminate(A, B, db)
            dr = min(db, A.shape[1]) - 1
            while dr >= 0 and not self.powers.dot(A[:, dr]):
                dr -= 1
            A, B, db = B, A[:, :dr + 1], dr
        if A.shape[1] == 0:
            return A
        return self._inv_lead(A, A.shape[1] - 1)[0] @ A % self.p

    def _inverse_rev(self, M: np.ndarray, n: int) -> np.ndarray:
        """rev(M)^-1 mod x^n by Newton iteration G <- G·(2 - rev(M)·G)."""
        p, F = self.p, M[:, ::-1]
        G = self._inv_lead(M, M.shape[1] - 1)[0, :, :1]
        prec = 1
        while prec < n:
            prec = min(2 * prec, n)
            E = self.mul(F[:, :prec], G)[:, :prec]
            E[0, 0] -= 1                       # E = F·G - 1 = 0 mod x^(old prec)
            G = np.pad(G, ((0, 0), (0, prec - G.shape[1])))
            G = (G - self.mul(G, E)[:, :prec]) % p
        return G

    def pow_mod(self, A: np.ndarray, e: int, M: np.ndarray) -> np.ndarray:
        """A^e mod M by squaring; G is computed at the first product that needs reducing."""
        p = self.p
        M = M[:, :self._deg(M) + 1] % p
        D = M.shape[1] - 1
        G = None

        def reduce(X: np.ndarray) -> np.ndarray:
            nonlocal G
            l = X.shape[1] - D              # X has at most 2D - 1 terms, so l < D
            if l <= 0:
                return X
            if G is None:
                G = self._inverse_rev(M, D - 1)
            Q = self.mul(X[:, :D - 1:-1], G[:, :l])[:, l - 1::-1]
            return (X[:, :D] - self.mul(Q, M)[:, :D]) % p

        acc = self.to_arr([1])
        base = self.divmod_(A, M)[1]
        while e:
            if e & 1:
                acc = reduce(self.mul(acc, base))
            base = reduce(self.mul(base, base))
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
    if len(f) <= 1:
        return []
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


def _frobenius_rows(ctx: Context, f: list, rows: Optional[list] = None) -> Optional[list]:
    """The Frobenius matrix of f: rows x^(q·i) mod f for i < deg f.

    Over a context of order q every coefficient satisfies c^q = c, so
    h ↦ h^q mod f is GF(q)-linear: (sum h_i x^i)^q = sum h_i x^(q·i), and
    h^q mod f = sum h_i·rows[i] (Berlekamp's Q-matrix; von zur Gathen &
    Gerhard, Modern Computer Algebra, §14.8).  Building it costs one pow_mod
    for x^q mod f and deg f - 2 products by it.  Given the rows of a multiple
    of f, it reduces them mod f instead.  Returns None when f goes to the
    numpy backend, whose Frobenius steps stay pow_mod.
    """
    if _on_engine(ctx, len(f), len(f)):
        return None
    n = len(f) - 1
    if rows is not None:
        return [_pmod(ctx, r, f) for r in rows[:n]]
    xq = _ppow_mod(ctx, [0, 1], ctx.order, f)
    rows = [[1]]
    while len(rows) < n:
        rows.append(_pmod(ctx, _pmul(ctx, xq, rows[-1]), f))
    return rows


def _frobenius(ctx: Context, rows: Optional[list], h: list, f: list, k: int = 1) -> list:
    """h^(q^k) mod f for h reduced mod f: k products by the rows of f, if any."""
    if rows is None:
        return _ppow_mod(ctx, h, ctx.order ** k, f)
    axpy = _axpy(ctx)
    for _ in range(k):
        out = [0] * (len(f) - 1)
        for c, row in zip(h, rows):
            if c:
                axpy(out, 0, c, row)
        h = _trim(out)
    return h


def _distinct_degree_split(ctx: Context, f: list) -> list:
    """Monic squarefree f -> [(d, product of the irreducible factors of degree d)].

    Step d takes h = x^(q^d) mod f* by one product with the Frobenius matrix
    of f* (`_frobenius_rows`) and splits off gcd(f*, h - x).  When a factor
    is split off, f* shrinks to a divisor of itself, so its rows are reduced
    mod the new f* rather than built again.
    """
    out = []
    fstar = list(f)
    rows = _frobenius_rows(ctx, fstar)
    h = [0, 1]
    d = 0
    while len(fstar) - 1 >= 2 * (d + 1):
        d += 1
        h = _frobenius(ctx, rows, h, fstar)
        g = _pgcd(ctx, fstar, _psub_x(ctx, h))
        if len(g) > 1:
            out.append((d, g))
            fstar = _pdivmod(ctx, fstar, g)[0]
            if len(fstar) - 1 < 2 * (d + 1):
                break
            h = _pmod(ctx, h, fstar)
            rows = _frobenius_rows(ctx, fstar, rows)
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
    """Rabin test; an independent route from factorize().

    f of degree d is irreducible iff x^(q^d) = x mod f and
    gcd(f, x^(q^(d/l)) - x) = 1 for every prime l dividing d.  The powers
    x^(q^k) come in increasing k from the Frobenius matrix of f, one product
    per step (`_frobenius_rows`; c^q = c for every coefficient, so the map
    h ↦ h^q mod f is linear), and the test stops at the first gcd that is not
    1.  On the numpy backend each stretch between two such k is one pow_mod.
    """
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    d = f.degree
    if d == 0:
        raise ConstantPolynomial("constant polynomial")
    if d == 1:
        return True
    ctx = f.ctx
    work = _pmonic(ctx, list(f.coeffs))
    rows = _frobenius_rows(ctx, work)
    h, done = [0, 1], 0
    for k in sorted(d // ell for ell in factor_int(d)):
        h = _frobenius(ctx, rows, h, work, k - done)
        done = k
        if len(_pgcd(ctx, work, _psub_x(ctx, h))) != 1:
            return False
    return not _psub_x(ctx, _frobenius(ctx, rows, h, work, d - done))


def least_monic(ctx: Context, deg: int, accept) -> Poly:
    """The encoding-least monic f of degree deg over ctx with accept(f).

    Candidates are walked in the order of the integer sum c_i·q^i of their
    lower coefficients, q = |ctx|: the order that picks every modulus of `gf`.
    """
    q = ctx.order
    for enc in range(q ** deg):
        coeffs, rest = [], enc
        for _ in range(deg):
            rest, c = divmod(rest, q)
            coeffs.append(c)
        f = Poly(ctx, coeffs + [1], trusted=True)
        if accept(f):
            return f
    raise FieldError(f"no monic polynomial of degree {deg} over {ctx!r} is accepted")


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
