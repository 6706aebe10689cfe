"""Complete permutation monomials over a tower via good permutation polynomials.

For the tower GF(q^n) the reduced exponent is d = (q^n - 1)/(q - 1) + 1, and
b^(-1) x^d is a complete permutation monomial exactly when the conjugates of b
over GF(q) are the roots of v_g(x) = (g(-x) - g(0))/(-x) for a suitable
degree-(n+1) permutation polynomial g over GF(q) whose roots of v_g form a
single Frobenius orbit; such g are called good.  This module provides:

* v_g and the goodness report: the gate conditions first, then the
  single-orbit test, read off the first part of the lazy distinct-degree
  split of the radical of v_g (g is good iff that part is the whole
  radical);
* the goodness class key: g up to h(x) = c g(c' x) and the Frobenius on its
  coefficients, which keep the verdict, so a scan runs goodness once per
  class in each chunk of items (one chunk per process);
* brute-force permutation / complete-permutation oracles over the whole
  field: the units are laid out in rows by the cosets of the units of the
  base field, the order in which the int32 exp table is stored, so each term
  of b^(-1) x^d + x is a rotation of one of its rows.  The values are made a
  block of at most _BLOCK elements at a time and scattered into a bool
  cover of the field before the next is made; the map permutes the field
  iff the cover is full.  Nothing but the exp/log tables is kept;
* the CPM verdict of a witness b, the only one the package gives: the gate
  (`gate`) that gcd(d, q^n - 1) = 1 and a polynomial G over GF(q) permutes
  GF(q), evaluated over GF(q) alone, and `criterion_verdict`, the gate on
  G_b(t) = t·prod_i (t + b^(q^i)).  The brute force `is_cpp_monomial`
  decides nothing; callers run it only to cross-check the gate;
* the witness elements b of a good g: one root of the radical of v_g located
  in the tower, the rest its Frobenius orbit, all labelled by the gate on g,
  since G_b = g/lc(g) for every root b of v_g;
* the scaling normalisation h(x) = c g(c' x) + e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np

from .gf import (
    Context,
    ContextMismatch,
    DEFAULT_BRUTE_BOUND,
    FieldError,
    FieldTooLarge,
    FqElem,
    HARD_BRUTE_CAP,
    Tower,
    _BLOCK,
    as_int,
    mk_tower,
)
from .poly import (
    ConstantPolynomial,
    Poly,
    char_poly_of,
    one_root,
    orbit_parts,
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


class OrbitSizeMismatch(FieldError):
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


def _cuts(shifts: list, w: int, M: int):
    """The pieces [lo, hi) of [0, w) inside which no (x + t) mod M wraps, x in shifts.

    Yields (lo, hi, starts), starts[i] = (shifts[i] + lo) mod M: on the
    piece, position t reads src[starts[i] + t - lo] of a row of length M.
    Each shift cuts [0, w) at most once, since w <= M.
    """
    lo = 0
    for hi in sorted({min(M - x, w) for x in shifts} | {w}):
        if hi > lo:
            yield lo, hi, [(x + lo) % M for x in shifts]
            lo = hi


def _eval_blocks(ctx: Context, terms: dict, brute_bound: int):
    """Values of sum(c_j x^j) at the units of ctx, a block of coset rows at a time.

    Let m = |F| - 1, Q = q - 1 on a tower GF(q^n) with n > 1 and Q = 1 on a
    field (a tower of degree 1 is one; Q = q - 1 would leave rows of length
    1), and M = m/Q.  Every unit is gamma^(Q·s + r) for one r < Q and s < M,
    and the exp table holds it at rows[r, s] (`Context.ensure_tables`).
    The columns are cut into segments of W = min(M, _BLOCK), and a block is
    R = max(1, _BLOCK // M) rows (at most Q) of one segment, so it has at
    most _BLOCK elements however long the rows are.  Yields the blocks
    segment by segment, each segment's in row order: a block vals that
    starts at row lo and column c holds the value at gamma^(Q·(c + s) + lo + i)
    in vals[i, s]; it is one buffer, overwritten by the next.  For a term
    c x^j let (s0, r0) = divmod((j·r + log c) mod m, Q); since
    j·Q·s = Q·(j·s mod M) (mod m), row r of the term is
    rows[r0][(j·s + s0) mod M].  When j = 1 (mod M), as for both terms of
    b^(-1) x^d + x with d = M + 1, that is rows[r0] rotated by s0: in the
    segment at c, at most two slices, cut where c + s0 + s reaches M
    (`_cuts`).  Other j gather inside the row.

    In characteristic 2 each row of a block is written once: the first two
    rotations are xored straight into it by one ufunc per piece between
    their cuts (a lone one is copied), later terms are xored in, and c0
    once per block when it is nonzero.  For odd p the k base-p digits of c0
    and the terms are summed per block, reduced mod p and folded into the
    values by Horner.  With P = p^h, h = ceil(k/2), e = (e mod P) + P·(e div P)
    has the digits of e mod P, then those of e div P: two rows of `half`, the
    digits of 0 .. P - 1, built per call, each summed into one of two
    (R, W, h) planes of the least unsigned dtype that holds the sum.  For
    k = 1 e is its own digit (one int64 plane, no table).  Besides the
    exp/log tables, a call holds `half` and these buffers alone.
    """
    import numpy as np
    # ensure_tables returns at once where the tables exist, whatever the bound
    if ctx.order > brute_bound:
        raise FieldTooLarge(f"|F| = {ctx.order} exceeds brute bound {brute_bound}")
    ctx.ensure_tables(brute_bound)
    m, Q, M = ctx.order - 1, ctx._Q, ctx._M
    rows, log = ctx._exp.reshape(Q, M), ctx._log
    R, W = min(Q, max(1, _BLOCK // M)), min(M, _BLOCK)
    c0 = terms.get(0, 0)

    # per term: s0 and r0 per row, and j mod M unless a rotation
    r_all = np.arange(Q, dtype=np.int64)
    rotations, gathers = [], []
    for j, c in terms.items():
        if j >= 1 and c:
            s0, r0 = np.divmod((j % m * r_all + int(log[c])) % m, Q)
            if (j - 1) % M == 0:
                rotations.append((s0.tolist(), r0.tolist()))
            else:
                gathers.append((j % M, s0.tolist(), r0.tolist()))

    # numpy casts an index array of any other dtype to intp before it scatters
    buf = np.empty((R, W), dtype=np.intp)
    if ctx.p != 2:
        p, k = ctx.p, ctx.deg_over_prime
        h = (k + 1) // 2
        P = p ** h
        if k > 1:
            # the top digit of e // P is 0 for odd k
            half = (np.arange(P)[:, None] // p ** np.arange(h) % p).astype(
                np.min_scalar_type(p - 1))
            parts = (lambda e: half.take(e % P, axis=0), lambda e: half.take(e // P, axis=0))
            # each digit sums c0's and one per term, each below p
            dtype = np.min_scalar_type((len(terms) + 1) * (p - 1))
        else:
            parts, dtype = (lambda e: e[:, None],), np.int64
        acc = np.empty((len(parts), R, W, h), dtype=dtype)
        c0_digits = np.stack([part(np.array([c0])) for part in parts])[:, None]

        def add_digits(i, start, hi, e):
            # one part at a time, so a term holds one lookup
            for plane, part in zip(acc, parts):
                plane[i, start:hi] += part(e)
    for c in range(0, M, W):
        w = min(W, M - c)
        # the in-row index j·s mod M of each gather, over this segment
        idxs = [np.arange(c, c + w, dtype=np.int64) * jm % M for jm, _, _ in gathers]
        for lo in range(0, Q, R):
            nr = min(R, Q - lo)
            vals = buf[:nr, :w]
            if ctx.p == 2:
                for i in range(nr):
                    r, row = lo + i, vals[i]
                    rot = [(rows[r0s[r]], (s0s[r] + c) % M) for s0s, r0s in rotations]
                    if len(rot) > 1:
                        (A, a), (B, b) = rot[:2]
                        for start, hi, (ia, ib) in _cuts([a, b], w, M):
                            np.bitwise_xor(A[ia:ia + hi - start], B[ib:ib + hi - start],
                                           out=row[start:hi])
                    elif rot:
                        (A, a), = rot
                        for start, hi, (ia,) in _cuts([a], w, M):
                            row[start:hi] = A[ia:ia + hi - start]
                    else:
                        row[:] = 0
                    for src, x in rot[2:]:
                        for start, hi, (ia,) in _cuts([x], w, M):
                            row[start:hi] ^= src[ia:ia + hi - start]
                    for idx, (_, s0s, r0s) in zip(idxs, gathers):
                        row ^= rows[r0s[r]].take(idx + s0s[r], mode="wrap")
                if c0:
                    vals ^= c0
            else:
                digs = acc[:, :nr, :w]
                digs[:] = c0_digits
                for i in range(nr):
                    r = lo + i
                    for s0s, r0s in rotations:
                        src = rows[r0s[r]]
                        for start, hi, (ia,) in _cuts([(s0s[r] + c) % M], w, M):
                            add_digits(i, start, hi, src[ia:ia + hi - start])
                    for idx, (_, s0s, r0s) in zip(idxs, gathers):
                        add_digits(i, 0, w, rows[r0s[r]].take(idx + s0s[r], mode="wrap"))
                digs %= p
                # digit i of the values is column i % h of plane i // h
                vals[:] = digs[(k - 1) // h, :, :, (k - 1) % h]
                for i in range(k - 2, -1, -1):
                    vals *= p
                    vals += digs[i // h, :, :, i % h]
            yield vals


def _eval_all_sparse(ctx: Context, terms: dict, brute_bound: int) -> np.ndarray:
    """The cover of sum(c_j x^j) over ctx: cover[y] says whether some x maps to y.

    The map is a permutation exactly when the cover is all True, as it has
    as many slots as inputs.  The value at 0 is c0; the units are evaluated
    by `_eval_blocks` and each block is scattered into the cover before the
    next is made, so a call holds one bool per element and one block.
    """
    import numpy as np
    cover = np.zeros(ctx.order, dtype=bool)
    for vals in _eval_blocks(ctx, terms, brute_bound):
        cover[vals] = True
    cover[terms.get(0, 0)] = True
    return cover


def is_permutation(f: Poly, ctx: Optional[Context] = None,
                   brute_bound: int = DEFAULT_BRUTE_BOUND) -> bool:
    """Exhaustive bijectivity test of the evaluation map over ctx."""
    ctx = ctx or f.ctx
    lifted = f.lift(ctx)
    terms = {j: c for j, c in enumerate(lifted.coeffs) if c}
    return bool(_eval_all_sparse(ctx, terms, brute_bound).all())


def is_cpp_poly(f: Poly, ctx: Optional[Context] = None) -> bool:
    """Whether both f and f + x permute ctx."""
    ctx = ctx or f.ctx
    if not is_permutation(f, ctx):
        return False
    return is_permutation(f + Poly.x(f.ctx), ctx)


def cpp_exponent(tower: Tower) -> int:
    return (tower.order - 1) // (tower.q - 1) + 1


def is_cpp_monomial(b, tower: Tower) -> bool:
    """Exhaustively check that b^(-1) x^d is a complete permutation monomial.

    d is the reduced exponent (q^n - 1)/(q - 1) + 1.  True iff
    gcd(d, q^n - 1) = 1 and x -> b^(-1) x^d + x is injective on the tower.
    Past DEFAULT_BRUTE_BOUND, raises FieldTooLarge after the gcd.
    """
    bval = as_int(b)
    if isinstance(b, FqElem) and b.ctx is not tower:
        raise ContextMismatch("witness lives in a different context")
    if bval == 0:
        raise ZeroCoefficient("witness coefficient must be nonzero")
    d = cpp_exponent(tower)
    if math.gcd(d, tower.order - 1) != 1:
        return False
    binv = tower.inv(bval)
    return bool(_eval_all_sparse(tower, {d: binv, 1: 1}, DEFAULT_BRUTE_BOUND).all())


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


def goodness(g: Poly) -> GoodnessReport:
    """Gate conditions plus the single-Frobenius-orbit test on v_g.

    Good means g(0) = 0, g'(0) != 0, and the distinct roots of v_g form one
    orbit under x -> x^q (equivalently the radical of v_g is irreducible over
    the coefficient field).  The gates come first, before any squarefree or
    Frobenius work.  The orbit test reads only the first part (d, part) of
    the lazy distinct-degree split of the radical (`orbit_parts`): g is good
    iff d = deg(radical), so the part is the radical itself; otherwise the
    reason is RootInBaseField for d = 1 and MultipleOrbits for d > 1.  v_g is
    never factored completely.
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


# coefficient fields up to this order get exp/log tables for goodness_class
_CLASS_TABLE_BOUND = 1 << 16


def goodness_class(g: Poly) -> tuple:
    """A hashable key shared by g, every h = c·g(c'x) and their Frobenius images.

    For c, c' in GF(q)*, v_h(x) = c·c'·v_g(c'x), so each irreducible factor
    of v_g maps to one of v_h of the same degree; also h(0) = c·g(0) and
    h'(0) = c·c'·g'(0).  For sigma: a -> a^p on the coefficients,
    v_(g^sigma) = (v_g)^sigma, and sigma maps irreducibles to irreducibles
    of the same degree.  So goodness() gives g and h the same is_good and
    reason, and equal keys imply equal verdicts.

    The key is (deg g, vector), the vector one fixed member of the class:
    with g made monic, the discrete logs l_j of its lower coefficients (-1
    for a zero one).  Scaling by c' = gamma^t sends l_j to
    l_j - (D - j)·t mod (q - 1); the least such vector over t is found by
    narrowing a coset of t one coefficient at a time, and the key takes the
    least of it over the Frobenius powers l -> p·l.  When the coefficient
    field is too large for tables the key is (deg g, coefficient tuple):
    the exact polynomial, one entry longer than any log vector, so it never
    equals one.
    """
    ctx, coeffs = g.ctx, g.coeffs
    D = len(coeffs) - 1
    if D < 1:
        return (D, coeffs)
    if ctx._log_list is None:
        try:
            ctx.ensure_tables(_CLASS_TABLE_BOUND)
        except FieldTooLarge:
            return (D, coeffs)
        ctx._log_list = ctx._log.tolist()
    logs, N, p = ctx._log_list, ctx.order - 1, ctx.p
    lead = logs[coeffs[-1]]
    vec = [(logs[c] - lead) % N if c else -1 for c in coeffs[:-1]]
    best = _least_scaling(vec, D, N)
    for _ in range(ctx.deg_over_prime - 1):
        vec = [l * p % N if l >= 0 else -1 for l in vec]
        best = min(best, _least_scaling(vec, D, N))
    return (D, tuple(best))


def _least_scaling(vec: list, D: int, N: int) -> list:
    """Least over t mod N of the vector l_j - (D - j)·t mod N (-1 kept).

    The t that reach the least vector so far form a coset t0 + s·Z of a
    subgroup, s dividing N.  Over that coset the next coordinate
    l - a·t0 - a·s·k takes the values congruent to l - a·t0 modulo
    G = gcd(a·s, N); the least is (l - a·t0) mod G, reached for k in one
    class modulo N/G, which leaves the coset t0 + s·k0 + (s·N/G)·Z.
    """
    t0, s = 0, 1
    for j, l in enumerate(vec):
        if s == N:
            break
        if l < 0:
            continue
        a = D - j
        G = math.gcd(a * s, N)
        rhs = (l - a * t0) % N
        rhs -= rhs % G
        if G < N:
            k0 = rhs // G * pow(a * s // G, -1, N // G) % (N // G)
            t0 = (t0 + s * k0) % N
        s = s * N // G
    return [(l - (D - j) * t0) % N if l >= 0 else -1 for j, l in enumerate(vec)]


# ---------------------------------------------------------------------------
# witnesses


VERIFIED_PERMUTATION = "Permutation"
VERIFIED_CRITERION = "CriterionOnly"


def gate(g: Poly, tower: Tower) -> tuple:
    """The CPM verdict that g over GF(q) gives its witnesses in the tower: (rule, passed).

    A CPM b^(-1) x^d must itself permute the tower, and x^d permutes
    GF(q^n) iff gcd(d, q^n - 1) = 1; so a larger gcd fails every b, decided
    by that permutation test of x^d (VERIFIED_PERMUTATION, False).
    Otherwise (VERIFIED_PERMUTATION): with N(x) = x^((q^n-1)/(q-1)),
    b^(-1) x^d + x = x·(1 + N(x)/b) permutes the tower iff x·N(1 + x/b)
    permutes GF(q) (the x·h(x^s) criterion; Park–Lee 2001, Zieve 2009),
    that is iff G_b(t) = t·prod_i (t + b^(q^i)) does.
    For a good g of degree n + 1 and any root b of v_g, G_b = g/lc(g):
    g(0) = 0 gives g(t) = t·v_g(-t), and v_g = c·f^(n/s) with f the minimal
    polynomial of b, of degree s, so v_g(x) = c·prod_(i<n) (x - b^(q^i)) and
    g(t) = (-1)^n·c·G_b(t).  So the verdict is whether g permutes GF(q),
    the same for every root of v_g.

    It is also the same for every g of one `goodness_class`: h = c·g(c'x)
    for c, c' in GF(q)* permutes GF(q) iff g does, as x -> c'x and y -> c·y
    are bijections; so does g^tau for the coefficient Frobenius
    tau: a -> a^p, as g^tau = tau∘g∘tau^(-1); and the gcd involves only the
    tower.  g is evaluated up to HARD_BRUTE_CAP, the table cap of GF(q), in
    either characteristic; past it (only for n = 1 or a raised field bound)
    the verdict is (VERIFIED_CRITERION, None).  No tower element is
    enumerated.
    """
    if math.gcd(cpp_exponent(tower), tower.order - 1) != 1:
        return VERIFIED_PERMUTATION, False
    try:
        return VERIFIED_PERMUTATION, is_permutation(g, brute_bound=HARD_BRUTE_CAP)
    except FieldTooLarge:
        return VERIFIED_CRITERION, None


def criterion_verdict(b: int, tower: Tower) -> tuple:
    """Whether b^(-1) x^d is a CPM of the tower, decided over GF(q): (rule, passed).

    The `gate` on G_b(t) = t·prod_i (t + b^(q^i)), whose lower coefficients
    are `char_poly_of(b)`.
    """
    sym = char_poly_of(FqElem(tower, b), tower)
    return gate(Poly(tower.base, [0] + [a.val for a in reversed(sym)]), tower)


@dataclass(frozen=True)
class CppWitness:
    tower: Tower
    d: int
    b: int                      # encoding in the tower
    family: str = ""
    params: dict = field(default_factory=dict)
    verified: str = VERIFIED_CRITERION
    passed: Optional[bool] = None

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


def witness_from_json(obj: dict) -> CppWitness:
    from .gf import mk_field
    if not isinstance(obj, dict):
        raise ValueError(f"witness record {obj!r} is not an object")
    for key in ("p", "m", "n", "d"):
        if type(obj[key]) is not int:
            raise ValueError(f"witness {key} {obj[key]!r} is not an int")
    mod, ext = obj["modulus"], obj["extModulus"]
    if not (isinstance(mod, list) and all(type(c) is int for c in mod)
            and isinstance(ext, list) and all(isinstance(c, list) for c in ext)
            and all(type(x) is int for c in ext for x in c)):
        raise ValueError("witness moduli are not lists of ints")
    base = mk_field(obj["p"], obj["m"])
    if list(base.modulus) != list(obj["modulus"]):
        raise FieldError("field modulus does not match deterministic reconstruction")
    tower = mk_tower(base, obj["n"])
    ext = [list(base.decode(c)) for c in tower.ext_modulus]
    if ext != [list(x) for x in obj["extModulus"]]:
        raise FieldError("tower modulus does not match deterministic reconstruction")
    coords, n, m, p = obj["b"], tower.n, base.m, base.p
    if not (isinstance(coords, list) and len(coords) == n
            and all(isinstance(c, list) and len(c) == m for c in coords)
            and all(isinstance(x, int) and 0 <= x < p for c in coords for x in c)):
        raise ValueError(f"witness b {coords!r} is not {n} coordinates of {m} digits in [0, {p})")
    b = tower.encode(base.encode(c) for c in coords)
    if b == 0:
        raise ValueError("witness b is zero")
    return CppWitness(tower, obj["d"], b, obj.get("family", ""),
                      obj.get("params", {}), obj.get("verified", VERIFIED_CRITERION),
                      obj.get("passed"))


def witnesses_from_good(g: Poly, tower: Tower, family: str = "",
                        params: Optional[dict] = None,
                        report: Optional[GoodnessReport] = None) -> list:
    """One witness per distinct root of v_g, located inside the tower and
    labelled by the gate on g.

    The correspondence holds only for deg g = n + 1 over GF(q) and the tower
    GF(q^n).  The radical of v_g, irreducible for a good g, has some degree
    s; the roots live in GF(q^s), which lies inside GF(q^n) when s
    divides n.  For a good g of degree n + 1, s divides n automatically, since
    v_g = c f^(n/s).

    The roots of the irreducible radical are one Frobenius orbit, so one root
    rho is located (`one_root`) and the witnesses are its orbit under
    sigma(x) = x^q, sorted by encoding.  Every root b has G_b = g/lc(g), so
    `gate(g, tower)` is the rule and verdict of each witness, and of every
    witness of g's `goodness_class`; a scan brute-forces one witness per
    class as a cross-check.

    Raises, checked in this order: NotGood when g is not good,
    OrbitSizeDoesNotDivideN when s does not divide n, DegreeNotNPlusOne
    when deg g != n + 1, and OrbitSizeMismatch when the orbit of rho does
    not have s elements.
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
    orbit = tower.orbit(one_root(rep.radical, tower).val)
    if len(orbit) != s:
        raise OrbitSizeMismatch(f"root orbit has {len(orbit)} elements, not {s}")
    verdict = gate(g, tower)
    params = dict(params or {})
    return [CppWitness(tower, d, b, family, params, *verdict) for b in sorted(orbit)]


def scalar_class_count(witnesses: list) -> int:
    """Number of witness classes up to multiplication by base-field units.

    GF(q) sits in the tower as the constants, so c·b for c in GF(q)* is
    b with each coordinate multiplied by c in GF(q).  Dividing b by its
    first nonzero coordinate gives the one member of its class whose first
    nonzero coordinate is 1.
    """
    classes = set()
    for w in witnesses:
        base, coords = w.tower.base, w.tower.decode(w.b)
        inv = base.inv(next((x for x in coords if x), 1))
        classes.add(w.tower.encode([base.mul(inv, x) for x in coords]))
    return len(classes)


# ---------------------------------------------------------------------------
# scaling equivalence


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
