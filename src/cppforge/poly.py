"""Dense univariate polynomials over a field context.

Coefficients are canonical element encodings, constant term first, with the
leading coefficient nonzero (the zero polynomial is the empty tuple).  The
module provides exact ring arithmetic, gcd, factorization into irreducibles
(squarefree split, distinct-degree split, equal-degree split with a
context-derived deterministic seed), the Frobenius orbit sizes of the roots
from the distinct-degree split alone (`orbit_parts` yields it part by part,
so a caller can stop at the first), a Rabin-style irreducibility test that
is independent of the factorizer, root extraction in extensions (all roots,
or one root of a polynomial known to split, by descending into the smaller
factor of each equal-degree split), root tests (on the units, and in
GF(q^k) by one gcd with x^(q^k) - x), Dickson polynomials, linearized
associates, and characteristic polynomials of tower elements.  `least_monic`
walks monic candidates in encoding order; with `is_irreducible` as its test
it finds the field and tower moduli of `gf`, which imports both inside its
constructors.

Roots in a field of order at most gf._ROW_BOUND come from Horner's rule at
every element over its dense op rows (`_row_zeros`), which is exact and
cheaper than any gcd at that size; `roots_in` on towers and larger fields
takes the squarefree part, its gcd with x^q - x and the equal-degree split.

All arithmetic, over plain fields and towers alike, runs on one list path.
Its products and remainders step with one kernel, out[off + j] += c·b[j],
built once per context and kept on it; over fields of order at most
gf._ROW_BOUND that kernel indexes the field's dense op rows instead of
calling its methods.  A remainder by b adds multiples of the negated monic
tail of b (`_tail`) and builds no quotient, so pow_mod, the Frobenius rows
and each Euclid step compute that tail once for their modulus.

The distinct-degree split, the Rabin test and the root test in GF(q^k) step
h -> h^q mod f.  Over a context of order q every coefficient satisfies
c^q = c, so h^q mod f = sum h_i·(x^(q·i) mod f) is one product by the
Frobenius matrix of f, the rows x^(q·i) mod f, built once per call.  One
size rule chooses the route: a modulus of `_ROWS_MIN` terms or more takes
each step as one pow_mod instead.  The matrix costs deg f products mod f
to build, which the one or two steps that `goodness` takes on a v_g of
degree 350 never repay; on a small modulus the build is cheap, and each
step is then one product in place of log2(q) squarings (the choice of
algorithm by operand size of von zur Gathen & Gerhard, Modern Computer
Algebra, §14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

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


_ROWS_MIN = 48  # moduli this long take Frobenius steps by pow_mod, not rows


# ---------------------------------------------------------------------------
# list-space primitives


def _axpy(ctx: Context):
    """The list-path kernel out[off + j] += c·b[j] (j < len b) over ctx.

    Fields of order at most gf._ROW_BOUND carry dense op rows, and then each
    step is two list lookups, arows[x][mrow[y]] with mrow = mul_rows[c];
    towers and larger fields call their add and mul methods.  The kernel is
    built once per context and kept on it.
    """
    kernel = ctx._axpy
    if kernel is not None:
        return kernel
    mrows = ctx._mul_rows
    if mrows is None:
        add, mul = ctx.add, ctx.mul

        def kernel(out: list, off: int, c: int, b: list) -> None:
            for k, y in enumerate(b, off):
                if y:
                    out[k] = add(out[k], mul(c, y))
    else:
        arows = ctx._add_rows

        def kernel(out: list, off: int, c: int, b: list) -> None:
            mrow = mrows[c]
            for k, y in enumerate(b, off):
                if y:
                    out[k] = arows[out[k]][mrow[y]]
    ctx._axpy = kernel
    return kernel


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
    axpy = _axpy(ctx)
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            axpy(out, i, c, b)
    return _trim(out)


def _tail(ctx: Context, axpy, b: list) -> list:
    """The negated monic tail -b[:db]/lc(b) of a divisor b of degree db.

    Adding c·x^(k-db)·tail to a polynomial removes its term c·x^k, so
    remainders by a fixed b need the tail once (`_rem`).
    """
    db = len(b) - 1
    tail = [0] * db
    axpy(tail, 0, ctx.neg(1 if b[-1] == 1 else ctx.inv(b[-1])), b[:db])
    return tail


def _rem(axpy, r: list, tail: list) -> list:
    """The remainder of r by the divisor b whose `_tail` is tail; r is overwritten.

    Step k, from the top, adds r[k]·x^(k-db)·tail to r and writes only
    below k, so afterwards r[db:] still holds each step's r[k]: lc(b) times
    the quotient.
    """
    db = len(tail)
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k]
        if c:
            axpy(r, k - db, c, tail)
    return _trim(r[:db])


def _pdivmod(ctx: Context, a: list, b: list) -> tuple:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    axpy, r = _axpy(ctx), list(a)
    rem = _rem(axpy, r, _tail(ctx, axpy, b))
    q = r[len(b) - 1:]
    return (_trim(q) if b[-1] == 1 else _pscale(ctx, q, ctx.inv(b[-1]))), rem


def _pmod(ctx: Context, a: list, b: list) -> list:
    if not b or len(a) < len(b):
        return _pdivmod(ctx, a, b)[1]
    axpy = _axpy(ctx)
    return _rem(axpy, list(a), _tail(ctx, axpy, b))


def _pmonic(ctx: Context, a: list) -> list:
    if not a or a[-1] == 1:
        return list(a)
    return _pscale(ctx, a, ctx.inv(a[-1]))


def _pgcd(ctx: Context, a: list, b: list) -> list:
    a, b = _trim(list(a)), _trim(list(b))
    axpy = _axpy(ctx)
    while b:
        a, b = b, _rem(axpy, a, _tail(ctx, axpy, b))
    return _pmonic(ctx, a)


def _ppow_mod(ctx: Context, a: list, e: int, mod: list) -> list:
    if len(mod) < 2:
        raise ValueError("modulus must have degree >= 1")
    axpy = _axpy(ctx)
    tail = _tail(ctx, axpy, mod)
    acc, base = [1], _rem(axpy, list(a), tail)
    while e:
        if e & 1:
            acc = _rem(axpy, _pmul(ctx, acc, base), tail)
        e >>= 1
        if e:
            base = _rem(axpy, _pmul(ctx, base, base), tail)
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
    for x^q mod f and deg f - 2 products by it, each reduced by the tail of
    f.  Given the rows of a multiple of f, it reduces them mod f instead.
    Returns None for f of `_ROWS_MIN` terms or more, whose Frobenius steps
    are each one pow_mod.
    """
    if len(f) >= _ROWS_MIN:
        return None
    n = len(f) - 1
    axpy = _axpy(ctx)
    tail = _tail(ctx, axpy, f)
    if rows is not None:
        return [_rem(axpy, list(r), tail) for r in rows[:n]]
    xq = _ppow_mod(ctx, [0, 1], ctx.order, f)
    rows = [[1]]
    while len(rows) < n:
        rows.append(_rem(axpy, _pmul(ctx, xq, rows[-1]), tail))
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


def orbit_parts(rad: Poly):
    """The distinct-degree split of a monic squarefree rad, lazily.

    Yields (d, product of the monic degree-d irreducible factors of rad) for
    each nonempty part, d increasing, so a caller that stops after a part
    pays for no step beyond its d.  Step d takes h = x^(q^d) mod f* by one
    product with the Frobenius matrix of f* (`_frobenius_rows`) and splits
    off gcd(f*, h - x).  When a factor is split off, f* shrinks to a divisor
    of itself, so its rows are reduced mod the new f* rather than built
    again.
    """
    ctx = rad.ctx
    fstar = list(rad.coeffs)
    rows = _frobenius_rows(ctx, fstar)
    h = [0, 1]
    d = 0
    while len(fstar) - 1 >= 2 * (d + 1):
        d += 1
        h = _frobenius(ctx, rows, h, fstar)
        g = _pgcd(ctx, fstar, _psub_x(ctx, h))
        if len(g) > 1:
            yield d, Poly(ctx, g, trusted=True)
            fstar = _pdivmod(ctx, fstar, g)[0]
            if len(fstar) - 1 < 2 * (d + 1):
                break
            h = _pmod(ctx, h, fstar)
            rows = _frobenius_rows(ctx, fstar, rows)
    if len(fstar) > 1:
        yield len(fstar) - 1, Poly(ctx, fstar, trusted=True)


def _split_once(ctx: Context, f: list, d: int, rng_state: list) -> list:
    """A proper monic factor of a monic product of distinct degree-d irreducibles.

    f must have at least two irreducible factors.  Each draw takes a
    pseudo-random theta mod f from rng_state and splits f by the gcd with the
    trace of theta onto GF(2) (p = 2) or with theta^((q^d - 1)/2) - 1 (odd
    p); draws repeat until the gcd is proper (Cantor–Zassenhaus).
    """
    deg = len(f) - 1
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
            return g


def _equal_degree_split(ctx: Context, f: list, d: int, rng_state: list) -> list:
    """Split a monic product of distinct degree-d irreducibles into factors."""
    if len(f) - 1 == d:
        return [f]
    g = _split_once(ctx, f, d, rng_state)
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
        for d, prod in orbit_parts(Poly(ctx, part, trusted=True)):
            for piece in _equal_degree_split(ctx, list(prod.coeffs), d, rng_state):
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
    rad)]) with d increasing, all of `orbit_parts(rad)`.  The roots of a
    degree-d irreducible form one Frobenius orbit of size d, so each part
    holds deg(part)/d orbits of size d; no equal-degree splitting is done.
    """
    if f.degree == 0:
        raise ConstantPolynomial("need degree >= 1")
    rad = squarefree_part(f)
    return rad, list(orbit_parts(rad))


def is_irreducible(f: Poly) -> bool:
    """Rabin test; an independent route from factorize().

    f of degree d is irreducible iff x^(q^d) = x mod f and
    gcd(f, x^(q^(d/l)) - x) = 1 for every prime l dividing d.  The powers
    x^(q^k) come in increasing k from the Frobenius matrix of f, one product
    per step (`_frobenius_rows`; c^q = c for every coefficient, so the map
    h ↦ h^q mod f is linear), and the test stops at the first gcd that is not
    1.  For f of `_ROWS_MIN` terms or more, each stretch between two such k
    is one pow_mod.
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


def _row_zeros(ctx: Context, f: list, start: int = 0):
    """The elements v >= start of a field with op rows where f vanishes, lazily.

    Horner's rule at every element, two row lookups a step: over a field of
    order at most gf._ROW_BOUND that is exact and cheaper than any gcd.
    """
    mrows, arows = ctx._mul_rows, ctx._add_rows
    rev = f[::-1]
    for v in range(start, ctx.order):
        mv, acc = mrows[v], 0
        for c in rev:
            acc = arows[mv[acc]][c]
        if not acc:
            yield v


def _split_roots(ctx: Context, f: list) -> list:
    """The distinct roots in ctx of a monic f, sorted, by splitting.

    The radical's gcd with x^|ctx| - x is the product of the distinct linear
    factors, and the equal-degree split (seeded from ctx and f) separates
    them.
    """
    rad = list(squarefree_part(Poly(ctx, f, trusted=True)).coeffs)
    h = _ppow_mod(ctx, [0, 1], ctx.order, rad)
    w = _pgcd(ctx, rad, _psub_x(ctx, h))
    if len(w) < 2:
        return []
    rng_state = [_ctx_seed(ctx, f)]
    return sorted(ctx.neg(piece[0]) for piece in _equal_degree_split(ctx, w, 1, rng_state))


def roots_in(f: Poly, ctx2: Optional[Context] = None) -> list:
    """All roots of f lying in ctx2 (default: its own context), with multiplicity.

    Returns a sorted list of (FqElem, multiplicity).  The roots come from
    evaluation at every element when ctx2 has op rows (`_row_zeros`), and
    from `_split_roots` on towers and larger fields; each multiplicity is
    found by synthetic division.
    """
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    ctx2 = ctx2 or f.ctx
    lifted = f.lift(ctx2)
    if lifted.degree < 1:
        return []
    work = _pmonic(ctx2, list(lifted.coeffs))
    if ctx2._mul_rows is not None:
        roots = list(_row_zeros(ctx2, work))
    else:
        roots = _split_roots(ctx2, work)
    out = []
    for r in roots:
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


def one_root(f: Poly, ctx2: Context) -> FqElem:
    """One root in ctx2 of an f that splits there into distinct linear factors.

    Each step splits the remaining factor once (`_split_once`, d = 1) and
    keeps the smaller piece, until it is linear.  Unlike `_split_roots`
    there is no gcd with x^|ctx2| - x: the caller vouches that f splits, for
    instance an irreducible f over GF(q) of degree dividing n in the tower
    GF(q^n); for any other f the descent need not end.  The seed is that of
    `_split_roots`, so repeated calls give the same root.  The root only
    lists encodings: `cpp_core.witnesses_from_good` takes its Frobenius
    orbit as the witnesses, labelled by the gate on g, not by the root.
    """
    if f.degree < 1:
        raise ConstantPolynomial("need degree >= 1")
    w = _pmonic(ctx2, list(f.lift(ctx2).coeffs))
    rng_state = [_ctx_seed(ctx2, w)]
    while len(w) > 2:
        g = _split_once(ctx2, w, 1, rng_state)
        w = g if 2 * len(g) <= len(w) + 1 else _pdivmod(ctx2, w, g)[0]
    return FqElem(ctx2, ctx2.neg(w[0]))


def has_root_in_units(f: Poly) -> bool:
    """Whether f vanishes somewhere on the unit group of its own context."""
    if f.ctx._mul_rows is not None:
        return next(_row_zeros(f.ctx, list(f.coeffs), 1), None) is not None
    ev = f.eval_at
    return any(ev(c) == 0 for c in f.ctx.units())


def has_root_in_extension(f: Poly, k: int) -> bool:
    """Whether f over GF(q) has a root in GF(q^k), k >= 1.

    The elements of GF(q^k) are the roots of x^(q^k) - x, so this holds
    exactly when gcd(f, x^(q^k) - x) != 1 (von zur Gathen & Gerhard, Modern
    Computer Algebra, §14.2).  x^(q^k) mod f takes k products by the
    Frobenius matrix of f; f need not be squarefree.
    """
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial")
    if f.degree < 2:
        return f.degree == 1
    ctx = f.ctx
    work = _pmonic(ctx, list(f.coeffs))
    h = _frobenius(ctx, _frobenius_rows(ctx, work), [0, 1], work, k)
    return len(_pgcd(ctx, work, _psub_x(ctx, h))) > 1


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
