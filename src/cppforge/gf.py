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

Both representations are one polynomial basis over a coefficient context
(GF(p) for a field, the declared base for a tower), and `Context` holds the
one implementation of decode, encode, add, neg, the schoolbook product and
Frobenius.  Their inner loops depend only on whether the coefficient context
is the prime field: then digits are summed inline and reduced mod p,
otherwise each step calls the coefficient context's add and mul.  `Fq` adds
its fast paths in front (prime fields, dense rows, exp/log tables) and
`Tower` its table path.

Contexts are interned, so two independent constructions of the same field
are the same object.  Any context whose order fits the brute-force bound can
lazily build numpy exp/log tables for vectorised full-field evaluation, the
only use of numpy.  The tables are int32: no order reaches HARD_BRUTE_CAP =
2^26 < 2^31, so every index and encoding fits in 4 bytes.  exp is stored in
the coset-row order that `cpp_core._eval_all_sparse` reads, the only copy of
it: gamma^e sits at `Context._exp_index(e)`, which is e itself on a field.
Fields of order up to _ROW_BOUND build exp/log lists at once and derive
dense multiplication, addition, negation and inverse rows.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Callable, Iterable, Optional

if TYPE_CHECKING:
    import numpy as np

DEFAULT_FIELD_BITS = 32
DEFAULT_BRUTE_BOUND = 1 << 24
HARD_BRUTE_CAP = 1 << 26
if HARD_BRUTE_CAP >= 1 << 31:
    raise ImportError("HARD_BRUTE_CAP must stay below 2^31: the exp/log tables are int32")
_ROW_BOUND = 512         # dense op rows for fields up to this order
_BLOCK = 1 << 16         # elements per numpy step of a table build or a brute force


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


def _order_too_large(q: int, n: int) -> bool:
    """Whether q^n, for q >= 2 and n >= 1, exceeds max_field_order().

    Decided from bit lengths where they settle it, since 2^((b-1)·n) <= q^n
    < 2^(b·n) for q of b bits: q^n is formed only when it has at most about
    twice the bits of the bound, never for a huge q or n.
    """
    bits = max_field_order().bit_length() - 1
    b = q.bit_length()
    if (b - 1) * n > bits:
        return True
    return b * n > bits and q ** n > 1 << bits


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..41.

    Exact for n < 3317044064679887385961981 (about 3.3·10^24), the least
    strong pseudoprime to all thirteen bases (Sorenson & Webster 2015);
    above that a composite could pass.  Takes O(log n) modular squarings
    per base, so huge p are cheap to test.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
    """Polynomial-basis arithmetic shared by field and tower contexts.

    An element sum(c_i t^i), i < _k, with c_i in the coefficient context
    _sub is encoded as sum(enc(c_i) _q^i), _q = _sub.order, and products are
    reduced by t^_k = sum(_red[i] t^i).  A prime field is its own _sub.
    """

    p: int
    order: int
    deg_over_prime: int
    _sub: Fq
    _k: int
    _q: int
    _red: tuple

    # exp has _Q rows of length _M = (order - 1)/_Q; _Q = q - 1 on a tower of
    # degree > 1 (set by Tower), else 1
    _Q: int = 1
    _M: int = 0
    # populated lazily
    _exp: Optional[np.ndarray] = None      # gamma^(_Q·s + r) at _M·r + s
    _log: Optional[np.ndarray] = None
    _log_list: Optional[list] = None       # log as a list: Fq.build_rows, goodness_class
    _exp_list: Optional[list] = None       # exp as a list: Fq.build_rows only
    _primitive: Optional[int] = None
    # dense op rows, built by Fq.build_rows for small fields only
    _mul_rows: Optional[list] = None
    _add_rows: Optional[list] = None
    _neg_row: Optional[list] = None
    _inv_row: Optional[list] = None
    # the list-path kernel of poly._axpy, built at its first use; a pickled
    # context is rebuilt by __reduce__ and builds its own
    _axpy: Optional[Callable] = None

    def _set_basis(self, sub: Fq, k: int, modulus: tuple) -> None:
        """Coefficient context, degree and reduction tail of a monic modulus."""
        self._sub, self._k, self._q = sub, k, sub.order
        self._red = tuple(sub.neg(c) for c in modulus[:-1])

    # -- polynomial-basis arithmetic; subclasses supply mul ------------------

    def decode(self, a: int) -> tuple:
        q, out = self._q, []
        for _ in range(self._k):
            a, r = divmod(a, q)
            out.append(r)
        return tuple(out)

    def encode(self, coeffs: Iterable[int]) -> int:
        acc, q = 0, self._q
        for c in reversed(list(coeffs)):
            acc = acc * q + c
        return acc

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        q, out, pw = self._q, 0, 1
        if q == self.p:
            while a or b:
                a, ra = divmod(a, q)
                b, rb = divmod(b, q)
                out += ((ra + rb) % q) * pw
                pw *= q
        else:
            sadd = self._sub.add
            while a or b:
                a, ra = divmod(a, q)
                b, rb = divmod(b, q)
                out += sadd(ra, rb) * pw
                pw *= q
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        q, out, pw = self._q, 0, 1
        if q == self.p:
            while a:
                a, r = divmod(a, q)
                out += ((-r) % q) * pw
                pw *= q
        else:
            sneg = self._sub.neg
            while a:
                a, r = divmod(a, q)
                out += sneg(r) * pw
                pw *= q
        return out

    def _mul_slow(self, a: int, b: int) -> int:
        """Schoolbook product of the coefficient vectors, then reduction."""
        if a == 0 or b == 0:
            return 0
        k, red = self._k, self._red
        da, db = self.decode(a), self.decode(b)
        prod = [0] * (2 * k - 1)
        if self._q == self.p:
            p = self.p
            for i, ca in enumerate(da):
                if ca:
                    for j, cb in enumerate(db):
                        if cb:
                            prod[i + j] = (prod[i + j] + ca * cb) % p
            for i in range(2 * k - 2, k - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    off = i - k
                    for j, r in enumerate(red):
                        if r:
                            prod[off + j] = (prod[off + j] + c * r) % p
        else:
            smul, sadd = self._sub.mul, self._sub.add
            for i, ca in enumerate(da):
                if ca:
                    for j, cb in enumerate(db):
                        if cb:
                            prod[i + j] = sadd(prod[i + j], smul(ca, cb))
            for i in range(2 * k - 2, k - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    off = i - k
                    for j, r in enumerate(red):
                        if r:
                            prod[off + j] = sadd(prod[off + j], smul(c, r))
        return self.encode(prod[:k])

    def frobenius(self, a: int, i: int = 1) -> int:
        """x -> x^(_q^i): the p-power map of a field, the q-power map of a tower."""
        return self.pow_(a, self._q ** (i % self._k))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self._inv_row is not None:
            return self._inv_row[a]
        if self._log is not None:
            m = self.order - 1
            return int(self._exp[self._exp_index(-int(self._log[a]) % m)])
        return self.pow_(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        m = self.order - 1
        if self._exp_list is not None:
            return self._exp_list[self._log_list[a] * (e % m) % m]
        if self._log is not None:
            return int(self._exp[self._exp_index(int(self._log[a]) * (e % m) % m)])
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

    def _exp_index(self, e: int) -> int:
        """Index of gamma^e in exp, for 0 <= e < order - 1 (e itself when _Q = 1)."""
        return e % self._Q * self._M + e // self._Q

    def ensure_tables(self, brute_bound: int = DEFAULT_BRUTE_BOUND) -> None:
        """Build exp/log numpy tables (index <-> encoding of gamma^i) as int32.

        The order is at most HARD_BRUTE_CAP = 2^26 < 2^31 (the module
        refuses to load with a larger cap), so every index and encoding fits
        in int32; both tables are built in it directly, 8 bytes per element.
        Scalar lookups convert to Python ints before any arithmetic on
        indices.  exp is built in coset-row order, rows[r, s] =
        gamma^(_Q·s + r), flattened: row 0 holds the powers of gamma^_Q and
        row r is gamma^r times it.  No numpy step touches more than _BLOCK
        elements besides the tables, so a build holds little over them.
        """
        import numpy as np
        if self._exp is not None:
            return
        n = self.order
        if n > min(brute_bound, HARD_BRUTE_CAP):
            raise FieldTooLarge(f"order {n} exceeds brute-force bound {brute_bound}")
        g = self.primitive_element()
        m = n - 1
        Q, M = self._Q, m // self._Q
        rows = np.empty((Q, M), dtype=np.int32)
        if self.p == 2:
            rows[0, 0] = 1
            self._exp_by_doubling(rows[0], self.pow_(g, Q))
            self._exp_by_doubling(rows, g)
        else:
            self._exp_by_matrix(rows, g)
        # log[rows[r, s]] = Q·s + r, at most _BLOCK entries at a time
        log = np.full(n, -1, dtype=np.int32)
        width, step = min(M, _BLOCK), max(1, _BLOCK // M)
        cols = np.arange(0, Q * width, Q, dtype=np.int32)
        for r in range(0, Q, step):
            for s in range(0, M, width):
                seg = rows[r:r + step, s:s + width]
                first = np.arange(Q * s + r, Q * s + r + len(seg), dtype=np.int32)
                log[seg] = cols[:seg.shape[1]] + first[:, None]
        self._M = M
        self._exp = rows.reshape(m)
        self._log = log

    def _exp_by_matrix(self, rows: np.ndarray, g: int) -> None:
        """rows[r, s] = gamma^(Q·s + r) for the Q rows, through digit matrices.

        Multiplication by gamma is GF(p)-linear on the flat digit vector.
        The digit vectors of row 0 are made a chunk of columns at a time by
        the matrix of gamma^Q, and carried down the rows by that of gamma.
        """
        import numpy as np
        p, k = self.p, self.deg_over_prime
        (Q, M), chunk = rows.shape, min(rows.shape[1], 4096)
        mat = np.zeros((k, k), dtype=np.int64)
        for j in range(k):
            v = self.mul(g, p ** j)
            for i in range(k):
                v, mat[i, j] = divmod(v, p)
        mat_q = _mat_pow_mod(mat, Q, p)
        powers = (p ** np.arange(k)).astype(np.int64)
        block = np.zeros((k, chunk), dtype=np.int64)
        cur = np.zeros(k, dtype=np.int64)
        cur[0] = 1
        for i in range(chunk):
            block[:, i] = cur
            cur = mat_q.dot(cur) % p
        step = _mat_pow_mod(mat_q, chunk, p)
        for lo in range(0, M, chunk):
            cur = block[:, :M - lo]
            for r in range(Q):
                rows[r, lo:lo + chunk] = powers.dot(cur)
                if r + 1 < Q:
                    cur = mat.dot(cur) % p
            if lo + chunk < M:
                block = step.dot(block) % p

    def _exp_by_doubling(self, arr: np.ndarray, c: int) -> None:
        """arr[i] = c^i·arr[0] along the first axis in characteristic 2, arr[0] given.

        Multiplication by c^L is GF(2)-linear on the k-bit encoding, so
        arr[f:f + L] = c^L·arr[f - L:f] is the xor of two lookups: one table
        for the low h = ceil(k/2) bits and one for the high k - h bits (at
        most 2^13 entries each, as k <= 26), each built from the images of
        its bits.  L doubles with the filled prefix f up to _BLOCK elements,
        so every temporary of a step is at most _BLOCK elements.
        """
        import numpy as np
        k, n = self.deg_over_prime, len(arr)
        h = (k + 1) // 2
        cap = max(1, _BLOCK // arr[0].size)
        filled, built = 1, 0
        while filled < n:
            take = min(filled, cap, n - filled)
            if take != built:
                c_l, built, tables = self.pow_(c, take), take, []
                for lo, bits in ((0, h), (h, k - h)):
                    table = np.zeros(1 << bits, dtype=np.int32)
                    for t in range(bits):
                        table[1 << t:2 << t] = table[:1 << t] ^ self.mul(c_l, 1 << (lo + t))
                    tables.append(table)
            src, dst = arr[filled - take:filled], arr[filled:filled + take]
            # every index is in range; a mode other than "raise" writes dst unbuffered
            np.take(tables[0], src & ((1 << h) - 1), out=dst, mode="clip")
            dst ^= tables[1][src >> h]
            filled += take


def _mat_pow_mod(mat: np.ndarray, e: int, p: int) -> np.ndarray:
    import numpy as np
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
        self._set_basis(self if m == 1 else mk_field(p, 1), m, modulus)

    def __repr__(self):
        return f"GF({self.p}^{self.m})" if self.m > 1 else f"GF({self.p})"

    def describe(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    # -- fast paths in front of the polynomial-basis arithmetic --------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        rows = self._add_rows
        if rows is not None:
            return rows[a][b]
        return Context.add(self, a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        row = self._neg_row
        if row is not None:
            return row[a]
        return Context.neg(self, a)

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
            return int(self._exp[self._exp_index((int(self._log[a]) + int(self._log[b])) % m)])
        return self._mul_slow(a, b)

    def build_rows(self) -> None:
        """Dense op rows and exp/log lists for small fields; a no-op above the row bound.

        Lists, because indexing a list is the fastest lookup: exp for the
        primitive element of ensure_tables, products and inverses from exp/log,
        sums digit by digit as a0 + p·A plus b0 + p·B = (a0 + b0) % p + p·(A + B).
        """
        if self._mul_rows is not None or self.order > _ROW_BOUND:
            return
        n, p, g = self.order, self.p, self.primitive_element()
        m = n - 1
        exp = [1] * m
        for i in range(1, m):
            exp[i] = self._mul_slow(exp[i - 1], g)
        log = [-1] * n
        for i, a in enumerate(exp):
            log[a] = i
        digit = [[(a + b) % p for b in range(p)] for a in range(p)]
        add = digit
        for _ in range(self.m - 1):
            add = [[c + p * t for t in add[A] for c in digit[a0]]
                   for A in range(len(add)) for a0 in range(p)]
        self._neg_row = [row.index(0) for row in add]
        self._add_rows = add
        self._mul_rows = [[0] * n] + [[0] + [exp[(la + lb) % m] for lb in log[1:]]
                                      for la in log[1:]]
        self._inv_row = [0] + [exp[-la % m] for la in log[1:]]
        self._exp_list, self._log_list = exp, log

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
        self._set_basis(base, n, ext_modulus)
        if n > 1:
            self._Q = self.q - 1

    def __repr__(self):
        return f"GF(({self.base.p}^{self.base.m})^{self.n})"

    def describe(self) -> dict:
        d = self.base.describe()
        d["n"] = self.n
        d["extModulus"] = [list(self.base.decode(c)) for c in self.ext_modulus]
        return d

    def mul(self, a: int, b: int) -> int:
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            m = self.order - 1
            return int(self._exp[self._exp_index((int(self._log[a]) + int(self._log[b])) % m)])
        return self._mul_slow(a, b)

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
        return (mk_tower, (self.base, self.n))


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
    if p < 2:
        raise NotPrime(f"{p} is not prime")
    if _order_too_large(p, m):
        raise FieldTooLarge(f"{p}^{m} exceeds the configured field bound")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
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
    if _order_too_large(base.order, n):
        raise FieldTooLarge(f"{base.order}^{n} exceeds the configured field bound")
    from .poly import is_irreducible, least_monic
    ext = least_monic(base, n, is_irreducible).coeffs
    ctx = Tower(base, n, ext)
    _TOWER_CACHE[key] = ctx
    return ctx


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
