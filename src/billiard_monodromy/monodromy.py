"""Group descriptors: the invariant factors of N and the closed forms.

The monodromy group of a tuple is N semidirect C_k, where N is the column
span of the circulant over Z/nZ, that is the ideal that the associated
polynomial a(x) = a_0 + a_1 x + ... + a_{k-1} x^{k-1} generates in
(Z/nZ)[x]/(x^k - 1).  With d_i the integer SNF divisors of the circulant,
delta_i = n / gcd(d_i, n) gives N as the direct sum of C_{delta_i}; dropped
trivial factors leave the canonical descending divisibility chain that
descriptors compare by.

``deltas_of`` settles the gcds one prime power p^e of n at a time.  Two
routes read the p-part off a single polynomial gcd over F_p; the prime
powers neither route settles go to one modular elimination of the
circulant, which is also the reference the tests hold the gcd routes to.
"""

from dataclasses import dataclass, field
from math import gcd, prod
from typing import Optional

from . import oracle
from .errors import PreconditionFailed
from .exactla import circulant, invariant_factors_mod
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


def _local_by_gcd(t: PolygonTuple, p: int, e: int):
    """gcd(d_i, p^e) for the circulant's SNF divisors d_i, ascending like
    ``exactla._local_divisors``, or None when no gcd over F_p settles them.
    """
    k = t.k
    # from a list, not a generator: see PolygonTuple.residues
    a = _trim(tuple([x % p for x in t.entries]))
    if e == 1:
        g = len(_gcd_coeffs(p, xk_minus_1(k, p).coeffs, a)) - 1
        return [1] * (k - g) + [p] * g
    a1 = sum(t.entries)
    # x - 1 divides 1 + x + ... + x^{k-1} mod p iff p | k, and a iff p | a(1)
    if k % p == 0 and a1 % p == 0 or len(_gcd_coeffs(p, (1,) * k, a)) > 1:
        return None
    return [1] * (k - 1) + [gcd(a1, p**e)]


def deltas_of(t: PolygonTuple) -> tuple:
    """Invariant factors of the tuple's N.

    delta_i = n / gcd(d_i, n) where d_i are the integer SNF divisors of the
    circulant.  Each prime power p^e exactly dividing n contributes
    gcd(d_i, p^e), the invariant factors of the ideal (a) in
    (Z/p^e)[x]/(x^k - 1), found by the first route that applies:

    - e = 1: F_p[x]/(x^k - 1) is a principal ideal ring, so (a) = (g) with
      g = gcd(x^k - 1, a mod p), an F_p-space of dimension k - deg g.  The
      local divisors are k - deg g ones and deg g copies of p, also when
      p divides k, and a = 0 mod p gives g = x^k - 1.
    - e >= 2 and gcd(1 + x + ... + x^{k-1}, a mod p) = 1: if p does not
      divide k, x^k - 1 = (x - 1) * Phi with coprime factors that
      Hensel-lift, so the ring splits as Z/p^e times (Z/p^e)[x]/(Phi), a is
      a unit in the second factor and a(1) in the first.  If p divides k,
      x - 1 divides Phi mod p, so the gcd is 1 only when a(1) is nonzero
      mod p and a is a unit outright.  Either way the local divisors are
      k - 1 ones and gcd(a(1), p^e), which is p^e for a validated tuple.
      When p | k and p | a(1), x - 1 divides both, so the gcd is skipped.
    - otherwise p^e joins the one call of ``invariant_factors_mod`` on the
      product of the unsettled prime powers, the local prime-power
      elimination that agrees with the full integer SNF but cannot blow up.
    """
    n = t.modulus
    out = [1] * t.k
    rest = 1
    for p, e in prime_factorization(n).items():
        local = _local_by_gcd(t, p, e)
        if local is None:
            rest *= p**e
        else:
            out = [x * y for x, y in zip(out, local)]
    if rest > 1:
        out = [x * y for x, y in
               zip(out, invariant_factors_mod(circulant(t), rest))]
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
        trivial = oracle.span_shift_is_trivial(t, cap=DEFAULT_ACTION_CAP + 1)
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
