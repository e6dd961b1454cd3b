"""Group descriptors: the invariant factors of N and the closed forms.

The monodromy group of a tuple is N semidirect C_k, where N is the column
span of the circulant over Z/nZ, that is the ideal that the associated
polynomial a(x) = a_0 + a_1 x + ... + a_{k-1} x^{k-1} generates in
(Z/nZ)[x]/(x^k - 1).  With d_i the integer SNF divisors of the circulant,
delta_i = n / gcd(d_i, n) gives N as the direct sum of C_{delta_i}; dropped
trivial factors leave the canonical descending divisibility chain that
descriptors compare by.

``deltas_of`` settles the gcds one prime power p^e of n at a time.  At
e = 1 the p-part is read off one polynomial gcd over F_p.  At e >= 2 the
ring splits along the factors Phi_d(x^(p^s)) of x^k - 1, k = p^s m with p
not dividing m and d | m.  Block d = 1 is always the circulant of a folded
mod x^(p^s) - 1, and at p^s = 1 block d = 2 is a(-1) in Z/p^e; gcds over
F_p find the other d > 1 blocks where a(x) is a unit, and only the rest
are eliminated mod p^e, each from a's multiplication matrix of rank
phi(d) p^s.  The modular elimination of the whole circulant stays the
reference the tests hold every route to.
"""

from dataclasses import dataclass, field
from functools import cache
from math import gcd, prod
from typing import Optional

from . import oracle
from .errors import PreconditionFailed
from .exactla import invariant_factors_mod
from .numtheory import prime_factorization
from .polyfp import _gcd_coeffs, _trim, xk_minus_1
from .polygon import PolygonTuple, validate

DEFAULT_ACTION_CAP = 10_000


@dataclass(frozen=True)
class GroupDescriptor:
    """Isomorphism data (n, k, deltas) of a group N semidirect C_k.

    deltas are the invariant factors of N, each > 1, each dividing the
    previous.  ``trivial_action`` is True/False only when certified by the
    oracle's shift check; descriptors compare and hash on (n, k, deltas).
    """

    n: int
    k: int
    deltas: tuple
    trivial_action: Optional[bool] = field(default=None, compare=False)

    @property
    def order(self) -> int:
        return self.k * prod(self.deltas)

    def pretty(self) -> str:
        inner = " x ".join(f"C{d}" for d in self.deltas) or "C1"
        return f"({inner}) : C{self.k}"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "k": self.k,
                "deltas": list(self.deltas), "order": self.order}


def _canonical_deltas(raw) -> tuple:
    # from a list, not a generator: see PolygonTuple.residues
    out = tuple([d for d in raw if d > 1])
    for a, b in zip(out, out[1:]):
        if a % b:
            raise AssertionError(f"delta chain broken: {out}")
    return out


@cache
def _cyclotomic(d: int) -> tuple:
    """Integer coefficients of Phi_d, lowest first: x^d - 1 divided exactly
    by Phi_j for each proper divisor j of d, in place (each Phi_j is monic).
    """
    q = [-1] + [0] * (d - 1) + [1]
    for j in range(1, d):
        if d % j == 0:
            f = _cyclotomic(j)
            r = len(f) - 1
            for i in range(len(q) - 1, r - 1, -1):
                for t in range(r):
                    q[i - r + t] -= q[i] * f[t]
            q = q[r:]
    return tuple(q)


def _mult_rows(a, g: list, q: int) -> list:
    """Rows x^j a(x) mod g(x) over Z/q, j < deg g, for monic g."""
    r = [0] * (len(g) - 1)
    for c in reversed(a):
        r = [(x - r[-1] * y) % q for x, y in zip([c] + r[:-1], g)]
    rows = [r]
    while len(rows) < len(g) - 1:
        r = [(x - r[-1] * y) % q for x, y in zip([0] + r[:-1], g)]
        rows.append(r)
    return rows


def _local_by_blocks(t: PolygonTuple, p: int, e: int) -> list:
    """gcd(d_i, p^e) for the circulant's SNF divisors d_i, ascending like
    ``exactla._local_divisors``; see ``deltas_of`` for the routes."""
    k, a, q = t.k, t.entries, p**e
    if e == 1:
        # from a list, not a generator: see PolygonTuple.residues
        g = len(_gcd_coeffs(p, xk_minus_1(k, p).coeffs,
                            _trim(tuple([x % p for x in a])))) - 1
        return [1] * (k - g) + [p] * g
    ps = 1
    while k % (ps * p) == 0:
        ps *= p
    m = k // ps
    if ps == 1:
        out, am = [gcd(sum(a), q)], a
    else:
        # rotations of the fold: its circulant up to row order
        f = [sum(a[i::ps]) for i in range(ps)]
        out = list(invariant_factors_mod([f[j:] + f[:j] for j in range(ps)], q))
        am = [sum(a[i::m]) for i in range(m)]
    am_p = _trim(tuple([x % p for x in am]))
    if m > 1 and len(_gcd_coeffs(p, (1,) * m, am_p)) > 1:
        for d in [d for d in range(2, m + 1) if m % d == 0]:
            if d == 2 and ps == 1:
                # (Z/p^e)[x]/(x + 1) is Z/p^e, where a is a(-1)
                out.append(gcd(sum(a[::2]) - sum(a[1::2]), q))
                continue
            phi = _cyclotomic(d)
            if len(_gcd_coeffs(p, phi, am_p)) > 1:
                g = [0] * ((len(phi) - 1) * ps + 1)
                g[::ps] = phi
                out += invariant_factors_mod(_mult_rows(a, g, q), q)
    # the unit blocks give the ones
    return [1] * (k - len(out)) + sorted(out)


def deltas_of(t: PolygonTuple) -> tuple:
    """Invariant factors of the tuple's N.

    delta_i = n / gcd(d_i, n) where d_i are the integer SNF divisors of the
    circulant.  Each prime power p^e exactly dividing n contributes
    gcd(d_i, p^e), the invariant factors of the ideal (a) in
    R = (Z/p^e)[x]/(x^k - 1):

    - e = 1: F_p[x]/(x^k - 1) is a principal ideal ring, so (a) = (g) with
      g = gcd(x^k - 1, a mod p), an F_p-space of dimension k - deg g.  The
      local divisors are k - deg g ones and deg g copies of p, also when
      p divides k, and a = 0 mod p gives g = x^k - 1.
    - e >= 2: write k = p^s m with p not dividing m.  Over Z, x^k - 1 is
      the product of the G_d = Phi_d(x^(p^s)) over d | m, and mod p
      G_d = Phi_d^(p^s) with the Phi_d pairwise coprime, since x^m - 1 is
      squarefree mod p.  So R is the direct sum of the blocks
      (Z/p^e)[x]/(G_d), of rank phi(d) p^s, with no Hensel lifting, and
      the local divisors are the union of the blocks' divisors.  Block
      d = 1, (Z/p^e)[x]/(x^(p^s) - 1), is always reduced as the p^s x p^s
      circulant of the fold a'_i = sum of a_j over j = i mod p^s, which at
      p^s = 1 is just gcd(a(1), p^e).  Likewise at p^s = 1 block d = 2,
      (Z/p^e)[x]/(x + 1), is Z/p^e with a read as a(-1), so it gives
      gcd(a(-1), p^e), which is 1 unless p divides a(-1).  On any other
      block d > 1, a is a unit exactly when gcd(Phi_d, a mod p) = 1 over
      F_p, and the block gives ones.  One gcd of 1 + x + ... + x^(m-1) =
      prod_{d > 1} Phi_d with a mod (x^m - 1, p) tests every d > 1 block
      at once; only when it is not 1 are the d > 1 blocks tested one by
      one, and each non-unit block is reduced by ``invariant_factors_mod``
      on a's multiplication matrix mod G_d.

    Every route is held to ``invariant_factors_mod`` of the full circulant,
    the local elimination that agrees with the integer SNF.
    """
    n = t.modulus
    out = [1] * t.k
    for p, e in prime_factorization(n).items():
        out = [x * y for x, y in zip(out, _local_by_blocks(t, p, e))]
    return _canonical_deltas([n // d for d in out])


def group_of(t: PolygonTuple) -> GroupDescriptor:
    """Descriptor of the tuple's monodromy group.

    The conjugation action is certified by enumerating the span and checking
    the cyclic shift, but only when the span is at most ``DEFAULT_ACTION_CAP``
    elements; above that the flag stays None.
    """
    deltas = deltas_of(t)
    trivial = None
    if prod(deltas) <= DEFAULT_ACTION_CAP:
        trivial = oracle.span_shift_is_trivial(t)
    return GroupDescriptor(t.modulus, t.k, deltas, trivial)


def triangle_closed_form(a0: int, a1: int, a2: int, n: int) -> GroupDescriptor:
    """(C_n x C_{n/alpha}) : C_3 with alpha = gcd(n, a0*a2 - a1^2).

    The equivalent form gcd(n, a0*a1 - a2^2) agrees whenever the entries sum
    to 0 mod n; the minor-based variant is the one implemented.
    """
    validate([a0, a1, a2], n, "algebraic")
    return GroupDescriptor(n, 3, _triangle_deltas(a0, a1, a2, n))


def _triangle_deltas(a0: int, a1: int, a2: int, n: int) -> tuple:
    # canonical deltas of an algebraic triangle, which the caller vouches for
    alpha = gcd(n, a0 * a2 - a1 * a1)
    return _canonical_deltas((n, n // alpha))


def quadrilateral_closed_form(a0: int, a1: int, a2: int, a3: int,
                              n: int) -> GroupDescriptor:
    """(C_n x C_{n/d2} x C_{n/d3}) : C_4 from the 2x2 minors of the folded
    circulant.

    With a3~ = -a0-a1-a2, d2 is the gcd of the six distinct 2x2 minors and
    n.  The 3x3 block determinant equals -(a0+a2)((a0+a1)^2+(a1+a2)^2) and
    is exactly divisible by the integer minor gcd, giving d3; when d2 = n,
    d3 = n too.
    """
    validate([a0, a1, a2, a3], n, "algebraic")
    return GroupDescriptor(n, 4, _quadrilateral_deltas(a0, a1, a2, a3, n))


def _quadrilateral_deltas(a0: int, a1: int, a2: int, a3: int, n: int) -> tuple:
    # canonical deltas of an algebraic quadrilateral, which the caller
    # vouches for; a3 enters only through a3 = -a0-a1-a2 mod n
    b3 = -a0 - a1 - a2
    g2 = gcd(a0 * a2 - b3 * b3, a0 * a1 - a2 * b3, a0 * a0 - a2 * a2,
             a1 * b3 - a2 * a2, a0 * b3 - a1 * a2, a0 * a2 - a1 * a1)
    d2 = gcd(g2, n)
    if d2 == n:
        d3 = n
    else:
        det3 = -(a0 + a2) * ((a0 + a1) ** 2 + (a1 + a2) ** 2)
        d3 = gcd(det3 // g2, n)
    return _canonical_deltas((n, n // d2, n // d3))


def regular_kgon(k: int) -> GroupDescriptor:
    """Descriptor of the regular k-gon: C_{k/gcd(k,2)} x C_k, action trivial.

    Odd k: all entries k-2, modulus k.  Even k: all entries (k-2)/2,
    modulus k/2.  Both facts are asserted against the general route.
    """
    if k < 3:
        raise PreconditionFailed(f"need k >= 3, got {k}")
    if k % 2:
        t = validate([k - 2] * k, k, "geometric")
    else:
        t = validate([(k - 2) // 2] * k, k // 2, "geometric")
    desc = group_of(t)
    expected = k // gcd(k, 2)
    if desc.deltas != (expected,) or desc.trivial_action is not True:
        raise AssertionError(f"regular {k}-gon route disagreement: {desc}")
    return desc


def merge_invariant_factors(*chains) -> tuple:
    """Invariant factors of the direct sum of cyclic groups of the given
    orders: per prime, exponents re-sort descending and re-zip by rank."""
    exps = {}
    for chain in chains:
        for d in chain:
            for p, e in prime_factorization(d).items():
                exps.setdefault(p, []).append(e)
    for p in exps:
        exps[p].sort(reverse=True)
    width = max((len(v) for v in exps.values()), default=0)
    out = []
    for rank in range(width):
        f = 1
        for p, es in exps.items():
            if rank < len(es):
                f *= p ** es[rank]
        if f > 1:
            out.append(f)
    return tuple(out)
