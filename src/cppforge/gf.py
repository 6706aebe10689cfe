"""Exact arithmetic in prime fields, extension fields, and two-level towers.

Field elements are plain Python ints carrying a canonical base-p positional
encoding of their coefficient vector, constant term first:

* in GF(p^m) = GF(p)[x]/(modulus), the element sum(c_i x^i) is encoded as
  sum(c_i p^i) with 0 <= c_i < p;
* in a tower GF(q^n) = GF(q)[y]/(ext_modulus), the element sum(c_j y^j) with
  c_j in GF(q) is encoded as sum(enc(c_j) q^j), which coincides with the flat
  base-p encoding of the full coefficient vector over GF(p).

Integer order of encodings therefore defines the canonical "least element"
used for every deterministic choice (moduli, primitive elements, roots).
The moduli are the encoding-least monic irreducibles, found by
`poly.least_monic` with `poly.is_irreducible`; this module has no polynomial
arithmetic of its own.

Contexts (Fq, Tower) own the arithmetic and are interned, so two independent
constructions of the same field are the same object.  Small fields get dense
multiplication rows; any context whose order fits the brute-force bound can
lazily build numpy exp/log tables for vectorised full-field evaluation.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Optional

import numpy as np

DEFAULT_FIELD_BITS = 32
DEFAULT_BRUTE_BOUND = 1 << 24
HARD_BRUTE_CAP = 1 << 26
_ROW_BOUND = 512         # dense op rows for fields up to this order
_DIGIT_CACHE_BOUND = 1 << 21  # per-encoding digit matrix cache bound


class FieldError(Exception):
    """Base class for all arithmetic-layer errors."""


class NotPrime(FieldError):
    pass


class DegreeZero(FieldError):
    pass


class FieldTooLarge(FieldError):
    pass


class ContextMismatch(FieldError):
    pass


class DivisionByZero(FieldError):
    pass


class NotASubfield(FieldError):
    pass


class NoSuchRoot(FieldError):
    pass


class NotCoprime(FieldError):
    pass


class DegenerateLeadingCoefficient(FieldError):
    pass


def max_field_order() -> int:
    """Hard cap on constructible field orders, overridable via env."""
    bits = int(os.environ.get("CPPFORGE_MAX_FIELD_BITS", DEFAULT_FIELD_BITS))
    return 1 << bits


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor_int(n: int) -> dict:
    """Prime factorisation by trial division (inputs stay below 2^40 here)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def ord_mod(q: int, s: int) -> int:
    """Least k >= 1 with q^k = 1 (mod s)."""
    if s < 2:
        raise ValueError("modulus must be >= 2")
    if math.gcd(q, s) != 1:
        raise NotCoprime(f"gcd({q}, {s}) != 1")
    k, acc = 1, q % s
    while acc != 1:
        acc = (acc * q) % s
        k += 1
    return k


# ---------------------------------------------------------------------------
# contexts


class Context:
    """Shared arithmetic interface of field and tower contexts."""

    p: int
    order: int
    deg_over_prime: int
    zero = 0
    one = 1

    # populated lazily
    _exp: Optional[np.ndarray] = None
    _log: Optional[np.ndarray] = None
    _digmat: Optional[np.ndarray] = None
    _primitive: Optional[int] = None
    # dense op rows, built by Fq.build_rows for small fields only
    _mul_rows: Optional[list] = None
    _add_rows: Optional[list] = None
    _neg_row: Optional[list] = None
    _inv_row: Optional[list] = None

    # -- basic ops supplied by subclasses: add, neg, mul, _mul_slow ---------

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self._inv_row is not None:
            return self._inv_row[a]
        if self._log is not None:
            m = self.order - 1
            return int(self._exp[(m - self._log[a]) % m])
        return self.pow_(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        m = self.order - 1
        if self._log is not None:
            return int(self._exp[(int(self._log[a]) * (e % m)) % m])
        e %= m
        acc, base = 1, a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def elements(self) -> range:
        return range(self.order)

    def units(self) -> range:
        return range(1, self.order)

    # -- flat GF(p) digit view ---------------------------------------------

    def digits_flat(self, a: int) -> tuple:
        p, k, out = self.p, self.deg_over_prime, []
        for _ in range(k):
            a, r = divmod(a, p)
            out.append(r)
        return tuple(out)

    def from_digits_flat(self, digits: Iterable[int]) -> int:
        p, acc = self.p, 0
        for d in reversed(list(digits)):
            acc = acc * p + d % p
        return acc

    # -- deterministic generator and numpy tables ---------------------------

    def primitive_element(self) -> int:
        """Encoding-least element of full multiplicative order."""
        if self._primitive is not None:
            return self._primitive
        n1 = self.order - 1
        if n1 == 1:
            self._primitive = 1
            return 1
        exps = [n1 // r for r in factor_int(n1)]
        for a in range(2, self.order):
            if all(self.pow_(a, e) != 1 for e in exps):
                self._primitive = a
                return a
        raise FieldError("no primitive element found")  # pragma: no cover

    def ensure_tables(self, brute_bound: int = DEFAULT_BRUTE_BOUND) -> None:
        """Build exp/log numpy tables (index <-> encoding of gamma^i)."""
        if self._exp is not None:
            return
        n = self.order
        if n > min(brute_bound, HARD_BRUTE_CAP):
            raise FieldTooLarge(f"order {n} exceeds brute-force bound {brute_bound}")
        g = self.primitive_element()
        m = n - 1
        exp = self._exp_by_doubling(g, m) if self.p == 2 else self._exp_by_matrix(g, m)
        log = np.full(n, -1, dtype=np.int64)
        log[exp] = np.arange(m, dtype=np.int64)
        self._exp = exp
        self._log = log

    def _exp_by_matrix(self, g: int, m: int) -> np.ndarray:
        """gamma^0 .. gamma^(m-1) through powers of the digit matrix of gamma."""
        p, k = self.p, self.deg_over_prime
        # multiplication by gamma is GF(p)-linear on the flat digit vector
        mat = np.zeros((k, k), dtype=np.int64)
        for j in range(k):
            mat[:, j] = self.digits_flat(self.mul(g, p ** j))
        powers = (p ** np.arange(k)).astype(np.int64)
        chunk = min(m, 4096)
        cols = np.zeros((k, chunk), dtype=np.int64)
        cur = np.zeros(k, dtype=np.int64)
        cur[0] = 1
        for i in range(chunk):
            cols[:, i] = cur
            cur = mat.dot(cur) % p
        step = _mat_pow_mod(mat, chunk, p)
        exp = np.empty(m, dtype=np.int64)
        done = 0
        block = cols
        while done < m:
            take = min(chunk, m - done)
            exp[done:done + take] = powers.dot(block[:, :take])
            done += take
            if done < m:
                block = step.dot(block) % p
        return exp

    def _exp_by_doubling(self, g: int, m: int) -> np.ndarray:
        """gamma^0 .. gamma^(m-1) in characteristic 2, doubling the filled prefix.

        Multiplication by gamma^L is GF(2)-linear on the bit encoding, so
        exp[L:2L] = gamma^L exp[0:L] is an xor of one 256-entry lookup table
        per byte of the encoding, each built from the images of its 8 bits.
        """
        k = self.deg_over_prime
        exp = np.empty(m, dtype=np.int64)
        exp[0] = 1
        filled, g_l = 1, g      # g_l = gamma^filled
        while filled < m:
            take = min(filled, m - filled)
            src, dst = exp[:take], exp[filled:filled + take]
            dst[:] = 0
            for lo in range(0, k, 8):
                table = np.zeros(256, dtype=np.int64)
                for t in range(min(8, k - lo)):
                    table[1 << t:2 << t] = table[:1 << t] ^ self.mul(g_l, 1 << (lo + t))
                dst ^= table[(src >> lo) & 255]
            filled += take
            g_l = self.mul(g_l, g_l)
        return exp

    def digit_matrix(self) -> np.ndarray:
        """(order, deg_over_prime) int8 matrix of base-p digits per encoding."""
        if self._digmat is None:
            if self.order > _DIGIT_CACHE_BOUND:
                raise FieldTooLarge("digit matrix too large to materialise")
            p, k = self.p, self.deg_over_prime
            a = np.arange(self.order, dtype=np.int64)
            dig = np.empty((self.order, k), dtype=np.int8)
            for i in range(k):
                dig[:, i] = a % p
                a //= p
            self._digmat = dig
        return self._digmat

    def add_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Field addition on arrays of encodings."""
        if self.p == 2:
            return a ^ b
        if self.order <= _DIGIT_CACHE_BOUND:
            dig = self.digit_matrix()
            s = dig[a].astype(np.int16) + dig[b]
            s %= self.p
            powers = (self.p ** np.arange(self.deg_over_prime)).astype(np.int64)
            return s.astype(np.int64).dot(powers)
        out = np.zeros_like(a)
        pw = 1
        for _ in range(self.deg_over_prime):
            da = (a // pw) % self.p
            db = (b // pw) % self.p
            out += ((da + db) % self.p) * pw
            pw *= self.p
        return out

    def __getstate__(self):  # keep contexts picklable without numpy caches
        state = self.__dict__.copy()
        for key in ("_exp", "_log", "_digmat"):
            state[key] = None
        return state


def _mat_pow_mod(mat: np.ndarray, e: int, p: int) -> np.ndarray:
    acc = np.eye(mat.shape[0], dtype=np.int64)
    base = mat % p
    while e:
        if e & 1:
            acc = acc.dot(base) % p
        base = base.dot(base) % p
        e >>= 1
    return acc


class Fq(Context):
    """GF(p^m) presented as GF(p)[x]/(modulus), modulus monic of degree m."""

    def __init__(self, p: int, m: int, modulus: tuple):
        self.p = p
        self.m = m
        self.deg_over_prime = m
        self.modulus = modulus
        self.order = p ** m
        # tail of the reduction rule x^m = -(modulus minus leading term)
        self._red = tuple((-c) % p for c in modulus[:-1])

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def describe(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    # -- digit helpers -------------------------------------------------------

    def decode(self, a: int) -> tuple:
        return self.digits_flat(a)

    def encode(self, coeffs: Iterable[int]) -> int:
        return self.from_digits_flat(coeffs)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        rows = self._add_rows
        if rows is not None:
            return rows[a][b]
        p, out, pw = self.p, 0, 1
        while a or b:
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            out += ((ra + rb) % p) * pw
            pw *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        row = self._neg_row
        if row is not None:
            return row[a]
        p, out, pw = self.p, 0, 1
        while a:
            a, r = divmod(a, p)
            out += ((-r) % p) * pw
            pw *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        rows = self._mul_rows
        if rows is not None:
            return rows[a][b]
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            m = self.order - 1
            return int(self._exp[(int(self._log[a]) + int(self._log[b])) % m])
        return self._mul_slow(a, b)

    def _mul_slow(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p, m = self.p, self.m
        da, db = self.decode(a), self.decode(b)
        prod = [0] * (2 * m - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    if cb:
                        prod[i + j] = (prod[i + j] + ca * cb) % p
        red = self._red
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                base = i - m
                for j, r in enumerate(red):
                    if r:
                        prod[base + j] = (prod[base + j] + c * r) % p
        return self.encode(prod[:m])

    def build_rows(self) -> None:
        """Dense op rows for small fields; a no-op above the row bound.

        Products come from exp/log tables local to this call (the context's
        own tables stay unbuilt), inverses as exp[-k] for exp[k], sums and
        negatives digit by digit; the rows are kept as lists because indexing
        a list is the fastest lookup.
        """
        if self._mul_rows is not None or self.order > _ROW_BOUND:
            return
        n, p = self.order, self.p
        g = self.primitive_element()
        exp = self._exp_by_doubling(g, n - 1) if p == 2 else self._exp_by_matrix(g, n - 1)
        log = np.zeros(n, dtype=np.int64)
        log[exp] = np.arange(n - 1)
        mul = np.zeros((n, n), dtype=np.int64)
        mul[1:, 1:] = np.concatenate([exp, exp])[log[1:, None] + log[None, 1:]]
        inv = np.zeros(n, dtype=np.int64)
        inv[exp] = exp[-np.arange(n - 1)]
        a = np.arange(n, dtype=np.int64)
        add = np.zeros((n, n), dtype=np.int64)
        neg = np.zeros(n, dtype=np.int64)
        pw = 1
        for _ in range(self.m):
            d = a // pw % p
            add += (d[:, None] + d[None, :]) % p * pw
            neg += -d % p * pw
            pw *= p
        self._neg_row = neg.tolist()
        self._add_rows = add.tolist()
        self._mul_rows = mul.tolist()
        self._inv_row = inv.tolist()

    def frobenius(self, a: int, i: int = 1) -> int:
        return self.pow_(a, self.p ** (i % self.m if self.m else 1))

    def __getstate__(self):
        state = super().__getstate__()
        state["_mul_rows"] = None
        state["_add_rows"] = None
        state["_neg_row"] = None
        state["_inv_row"] = None
        return state

    def __reduce__(self):
        return (mk_field, (self.p, self.m))


class Tower(Context):
    """GF(q^n) presented as GF(q)[y]/(ext_modulus) over a declared base GF(q)."""

    def __init__(self, base: Fq, n: int, ext_modulus: tuple):
        self.base = base
        self.n = n
        self.ext_modulus = ext_modulus
        self.p = base.p
        self.q = base.order
        self.deg_over_prime = base.m * n
        self.order = base.order ** n
        self._red = tuple(base.neg(c) for c in ext_modulus[:-1])

    def __repr__(self):
        return f"GF(({self.base.p}^{self.base.m})^{self.n})"

    def describe(self) -> dict:
        d = self.base.describe()
        d["n"] = self.n
        d["extModulus"] = [list(self.base.decode(c)) for c in self.ext_modulus]
        return d

    def decode(self, a: int) -> tuple:
        q, out = self.q, []
        for _ in range(self.n):
            a, r = divmod(a, q)
            out.append(r)
        return tuple(out)

    def encode(self, coeffs: Iterable[int]) -> int:
        acc = 0
        for c in reversed(list(coeffs)):
            acc = acc * self.q + c
        return acc

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        q, badd, out, pw = self.q, self.base.add, 0, 1
        while a or b:
            a, ra = divmod(a, q)
            b, rb = divmod(b, q)
            out += badd(ra, rb) * pw
            pw *= q
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        q, bneg, out, pw = self.q, self.base.neg, 0, 1
        while a:
            a, r = divmod(a, q)
            out += bneg(r) * pw
            pw *= q
        return out

    def mul(self, a: int, b: int) -> int:
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            m = self.order - 1
            return int(self._exp[(int(self._log[a]) + int(self._log[b])) % m])
        return self._mul_slow(a, b)

    def _mul_slow(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.n
        base = self.base
        bmul, badd = base.mul, base.add
        da, db = self.decode(a), self.decode(b)
        prod = [0] * (2 * n - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    if cb:
                        prod[i + j] = badd(prod[i + j], bmul(ca, cb))
        red = self._red
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                off = i - n
                for j, r in enumerate(red):
                    if r:
                        prod[off + j] = badd(prod[off + j], bmul(c, r))
        return self.encode(prod[:n])

    def frobenius(self, a: int, i: int = 1) -> int:
        """The q-power Frobenius x -> x^(q^i) relative to the declared base."""
        return self.pow_(a, self.q ** (i % self.n))

    def orbit(self, a: int) -> set:
        """The q-power conjugates a, a^q, a^(q^2), ... of a over the base."""
        out, cur = {a}, self.frobenius(a)
        while cur != a:
            out.add(cur)
            cur = self.frobenius(cur)
        return out

    def project_base(self, a: int) -> int:
        """Encoding in GF(q) of an element that lies in the base subfield."""
        digits = self.decode(a)
        if any(digits[1:]):
            raise NotASubfield("element does not lie in the base subfield")
        return digits[0]

    def __reduce__(self):
        return (_rebuild_tower, (self.base.p, self.base.m, self.n))


def _rebuild_tower(p: int, m: int, n: int) -> "Tower":
    return mk_tower(mk_field(p, m), n)


# ---------------------------------------------------------------------------
# constructors (interned)

_FIELD_CACHE: dict = {}
_TOWER_CACHE: dict = {}


def mk_field(p: int, m: int) -> Fq:
    """GF(p^m) with the encoding-least monic irreducible modulus."""
    key = (p, m)
    hit = _FIELD_CACHE.get(key)
    if hit is not None:
        return hit
    if m < 1:
        raise DegreeZero("extension degree must be >= 1")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p ** m > max_field_order():
        raise FieldTooLarge(f"{p}^{m} exceeds the configured field bound")
    if m == 1:
        modulus = (0, 1)  # the formal modulus x - 0
    else:
        from .poly import is_irreducible, least_monic
        modulus = least_monic(mk_field(p, 1), m, is_irreducible).coeffs
    ctx = Fq(p, m, modulus)
    if ctx.order <= _ROW_BOUND:
        ctx.build_rows()
    _FIELD_CACHE[key] = ctx
    return ctx


def mk_tower(base: Fq, n: int) -> Tower:
    """GF(q^n) over GF(q) with the encoding-least irreducible ext modulus."""
    key = (base.p, base.m, n)
    hit = _TOWER_CACHE.get(key)
    if hit is not None:
        return hit
    if n < 1:
        raise DegreeZero("tower degree must be >= 1")
    if base.order ** n > max_field_order():
        raise FieldTooLarge(f"{base.order}^{n} exceeds the configured field bound")
    from .poly import is_irreducible, least_monic
    ext = least_monic(base, n, is_irreducible).coeffs
    ctx = Tower(base, n, ext)
    _TOWER_CACHE[key] = ctx
    return ctx


def mk_tower_pmn(p: int, m: int, n: int) -> Tower:
    return mk_tower(mk_field(p, m), n)


# ---------------------------------------------------------------------------
# wrapped elements


class FqElem:
    """A field element bound to its context; thin wrapper over the encoding."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: Context, val: int):
        if not 0 <= val < ctx.order:
            raise ValueError("encoding out of range")
        self.ctx = ctx
        self.val = val

    # coefficient view: flat over GF(p) for fields, base coefficients for towers
    @property
    def coeffs(self):
        if isinstance(self.ctx, Tower):
            return tuple(self.ctx.decode(self.val))
        return self.ctx.decode(self.val)

    def to_json(self):
        if isinstance(self.ctx, Tower):
            return [list(self.ctx.base.decode(c)) for c in self.ctx.decode(self.val)]
        return list(self.ctx.decode(self.val))

    def _coerce(self, other) -> int:
        if isinstance(other, FqElem):
            if other.ctx is not self.ctx:
                raise ContextMismatch(f"{self.ctx!r} vs {other.ctx!r}")
            return other.val
        if isinstance(other, int):
            return other % self.ctx.p if other >= self.ctx.p or other < 0 else other
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        return FqElem(self.ctx, self.ctx.add(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return FqElem(self.ctx, self.ctx.sub(self.val, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        return FqElem(self.ctx, self.ctx.sub(v, self.val))

    def __mul__(self, other):
        v = self._coerce(other)
        return FqElem(self.ctx, self.ctx.mul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        return FqElem(self.ctx, self.ctx.div(self.val, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        return FqElem(self.ctx, self.ctx.div(v, self.val))

    def __neg__(self):
        return FqElem(self.ctx, self.ctx.neg(self.val))

    def __pow__(self, e: int):
        return FqElem(self.ctx, self.ctx.pow_(self.val, e))

    def __eq__(self, other):
        if isinstance(other, FqElem):
            return self.ctx is other.ctx and self.val == other.val
        if isinstance(other, int):
            return self.val == other
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ctx), self.val))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"FqElem({self.ctx!r}, {self.val})"


def elem(ctx: Context, val: int) -> FqElem:
    return FqElem(ctx, val % ctx.order)


def as_int(x) -> int:
    return x.val if isinstance(x, FqElem) else int(x)


# ---------------------------------------------------------------------------
# named field maps


def frobenius(x: FqElem, i: int = 1) -> FqElem:
    """x^(q^i), with q the order of the declared base (p for plain fields)."""
    return FqElem(x.ctx, x.ctx.frobenius(x.val, i))


def trace_map(x: FqElem, target_degree: int = 1) -> FqElem:
    """Relative trace onto the subfield of degree target_degree over GF(p)."""
    ctx = x.ctx
    k = ctx.deg_over_prime
    if target_degree < 1 or k % target_degree:
        raise NotASubfield(f"degree {target_degree} does not divide {k}")
    s = ctx.p ** target_degree
    acc = cur = x.val
    for _ in range(k // target_degree - 1):
        cur = ctx.pow_(cur, s)
        acc = ctx.add(acc, cur)
    return FqElem(ctx, acc)


def norm_map(x: FqElem, target_degree: int = 1) -> FqElem:
    """Relative norm onto the subfield of degree target_degree over GF(p)."""
    ctx = x.ctx
    k = ctx.deg_over_prime
    if target_degree < 1 or k % target_degree:
        raise NotASubfield(f"degree {target_degree} does not divide {k}")
    if x.val == 0:
        return FqElem(ctx, 0)
    s = ctx.p ** target_degree
    return FqElem(ctx, ctx.pow_(x.val, (ctx.order - 1) // (s - 1)))


def primitive_element(ctx: Context) -> FqElem:
    if ctx.order < 3:
        raise FieldError("primitive element needs field size >= 3")
    return FqElem(ctx, ctx.primitive_element())


def root_of_unity(ctx: Context, s: int, extend: bool = False) -> FqElem:
    """A fixed primitive s-th root of unity, gamma^((|F|-1)/s).

    With extend=True and ctx a plain field, the root is returned in the
    splitting tower GF(q^k), k the order of q modulo s.
    """
    if s < 1:
        raise ValueError("s must be positive")
    if s == 1:
        return FqElem(ctx, 1)
    n1 = ctx.order - 1
    if n1 % s == 0:
        g = ctx.primitive_element()
        return FqElem(ctx, ctx.pow_(g, n1 // s))
    if not extend:
        raise NoSuchRoot(f"{s} does not divide {n1}")
    if not isinstance(ctx, Fq):
        raise NoSuchRoot("automatic extension is only supported over plain fields")
    if s % ctx.p == 0:
        raise NoSuchRoot(f"no s-th roots of unity in characteristic {ctx.p}")
    k = ord_mod(ctx.order, s)
    top = mk_tower(ctx, k)
    return root_of_unity(top, s)


def embed(x: FqElem, frm: Context, to: Context) -> FqElem:
    """Subfield embedding along the declared structure (identity on encodings)."""
    if x.ctx is not frm:
        raise ContextMismatch("element does not live in the source context")
    if frm is to:
        return x
    if isinstance(to, Tower) and to.base is frm:
        return FqElem(to, x.val)
    if isinstance(frm, Fq) and frm.m == 1 and frm.p == to.p:
        return FqElem(to, x.val)  # prime-field constants encode identically
    raise NotASubfield(f"{frm!r} is not the declared base of {to!r}")


# ---------------------------------------------------------------------------
# square roots and quadratics


def legendre(ctx: Context, a: int) -> int:
    """1 for nonzero squares, -1 for non-squares, 0 for zero (odd char)."""
    if a == 0:
        return 0
    r = ctx.pow_(a, (ctx.order - 1) // 2)
    return 1 if r == 1 else -1


def sqrt_in(ctx: Context, a: int) -> Optional[int]:
    """A square root of a in ctx, or None; deterministic (least root)."""
    if a == 0:
        return 0
    if ctx.p == 2:
        return ctx.pow_(a, ctx.order // 2)  # inverse Frobenius
    if legendre(ctx, a) != 1:
        return None
    n1 = ctx.order - 1
    if ctx.order % 4 == 3:
        r = ctx.pow_(a, (ctx.order + 1) // 4)
    else:
        # Tonelli-Shanks; the deterministic primitive element is a non-residue
        s, t = 0, n1
        while t % 2 == 0:
            s += 1
            t //= 2
        z = ctx.pow_(ctx.primitive_element(), t)
        r = ctx.pow_(a, (t + 1) // 2)
        c = z
        u = ctx.pow_(a, t)
        m = s
        while u != 1:
            d, i = ctx.mul(u, u), 1
            while d != 1:
                d = ctx.mul(d, d)
                i += 1
            b = ctx.pow_(c, 1 << (m - i - 1))
            r = ctx.mul(r, b)
            c = ctx.mul(b, b)
            u = ctx.mul(u, c)
            m = i
    return min(r, ctx.neg(r))


def abs_trace2(ctx: Context, a: int) -> int:
    """Absolute trace onto GF(2) in characteristic 2, returned as 0 or 1."""
    acc = cur = a
    for _ in range(ctx.deg_over_prime - 1):
        cur = ctx.mul(cur, cur)
        acc = ctx.add(acc, cur)
    return acc


_AS_EPSILON: dict = {}


def artin_schreier_root(ctx: Context, delta: int) -> Optional[int]:
    """Least z with z^2 + z = delta in a char-2 context, or None.

    Solvable exactly when the absolute trace of delta vanishes; solved by the
    half trace for odd extension degree and by the trace-one accumulation
    z = sum_i (eps + ... + eps^(2^i)) delta^(2^(i+1)) otherwise.
    """
    if abs_trace2(ctx, delta) != 0:
        return None
    k = ctx.deg_over_prime
    if k % 2 == 1:
        z = delta
        cur = delta
        for _ in range((k - 1) // 2):
            cur = ctx.mul(cur, cur)
            cur = ctx.mul(cur, cur)
            z = ctx.add(z, cur)
    else:
        eps = _AS_EPSILON.get(id(ctx))
        if eps is None:
            # The trace is GF(2)-linear on the bit encoding, so every encoding
            # below the first trace-one basis vector has trace 0: that basis
            # vector is the least trace-one element.
            eps = next(1 << j for j in range(k) if abs_trace2(ctx, 1 << j) == 1)
            _AS_EPSILON[id(ctx)] = eps
        z = 0
        prefix = eps          # eps + eps^2 + ... + eps^(2^i)
        power = ctx.mul(delta, delta)   # delta^(2^(i+1))
        epow = eps
        for _ in range(k - 1):
            z = ctx.add(z, ctx.mul(prefix, power))
            power = ctx.mul(power, power)
            epow = ctx.mul(epow, epow)
            prefix = ctx.add(prefix, epow)
    assert ctx.add(ctx.mul(z, z), z) == delta
    return min(z, ctx.add(z, 1))


def solve_quadratic(a2: FqElem, a1: FqElem, a0: FqElem) -> list:
    """In-field roots of a2 x^2 + a1 x + a0, sorted by encoding.

    Odd characteristic goes through the discriminant; characteristic 2 with
    a1 != 0 reduces to Artin-Schreier form, and with a1 = 0 to a single
    square root.
    """
    ctx = a2.ctx
    if a1.ctx is not ctx or a0.ctx is not ctx:
        raise ContextMismatch("quadratic coefficients in different contexts")
    if a2.val == 0:
        raise DegenerateLeadingCoefficient("leading coefficient is zero")
    if ctx.p != 2:
        disc = ctx.sub(ctx.mul(a1.val, a1.val),
                       ctx.mul(4 % ctx.p, ctx.mul(a2.val, a0.val)))
        r = sqrt_in(ctx, disc)
        if r is None:
            return []
        inv2a = ctx.inv(ctx.mul(2 % ctx.p, a2.val))
        x1 = ctx.mul(ctx.sub(r, a1.val), inv2a)
        x2 = ctx.mul(ctx.sub(ctx.neg(r), a1.val), inv2a)
        return [FqElem(ctx, v) for v in sorted({x1, x2})]
    if a1.val == 0:
        r = sqrt_in(ctx, ctx.div(a0.val, a2.val))
        return [FqElem(ctx, r)]
    # x = (a1/a2) t turns the equation into t^2 + t = a0 a2 / a1^2
    scale = ctx.div(a1.val, a2.val)
    delta = ctx.div(ctx.mul(a0.val, a2.val), ctx.mul(a1.val, a1.val))
    z = artin_schreier_root(ctx, delta)
    if z is None:
        return []
    roots = sorted({ctx.mul(scale, z), ctx.mul(scale, ctx.add(z, 1))})
    return [FqElem(ctx, v) for v in roots]
