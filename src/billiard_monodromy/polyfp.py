"""Polynomial arithmetic over F_p.

Polynomials are dense coefficient tuples, index = degree, no trailing zeros
(the empty tuple is the zero polynomial).  This carries the associated
polynomial f(x) = a_0 + a_1 x + ... + a_{k-1} x^{k-1} of a tuple, the gcd
machinery against x^k - 1, the full factorization of x^k - 1, and the
zero-gap toolkit used by the witness constructions.

x^k - 1 is factored in polynomial time.  With p not dividing m, the
factors of x^m - 1 whose degree divides d multiply to x^gcd(m, p^d - 1) - 1,
as F_{p^d}^* is cyclic of order p^d - 1 (Lidl-Niederreiter, Finite Fields,
Thm 2.47), so exact divisions give the product of the degree-d factors.
That is split by gcds with seeded random combinations of the cyclotomic
coset sums, which span Berlekamp's subalgebra (Berlekamp 1970,
Cantor-Zassenhaus 1981).

The Euclid of ``_gcd_coeffs`` runs on packed lanes: each polynomial is
one int with a lane per coefficient, each quotient term one multiply-add,
and each remainder is reduced mod p in every lane at once by Barrett's
method (Barrett 1986).
"""

import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import (
    BothZero,
    CapExceeded,
    DegreeTooLarge,
    ModulusNotPrime,
    NotEnoughAlphas,
    PDividesK,
    PreconditionFailed,
    ZeroPolynomial,
)
from .numtheory import is_prime, prime_factorization
from .polygon import PolygonTuple

# random combinations one equal-degree split may try, each on every piece
# left.  One parts two given factors with probability at least 4/9, so two
# stay together through 100 with probability under (5/9)^100 < 3e-26; for
# k <= 60 and p < 200 no split needs more than 15
SPLIT_ATTEMPT_CAP = 100

# largest k whose x^k - 1 is factored: the equal-degree split's schoolbook
# modular powers cost about k^2 log p each, and over every k <= 128 with
# p = 1000003, 10^18 + 9 and 1000000000000006849 the slowest, 101 and 127
# with the last p, took 1.2 to 2.0 s on a shared 2-vCPU host
FACTOR_K_CAP = 128

# factorizations of x^k - 1 kept, least recently used dropped first; well
# above the 266 (k, p) pairs the classify benchmark revisits, so those hit
FACTOR_CACHE_SIZE = 1024

@dataclass(frozen=True)
class FpPoly:
    """A polynomial over F_p: ``coeffs[i]`` is the coefficient of x^i."""

    p: int
    coeffs: tuple

    @classmethod
    def make(cls, p: int, coeffs) -> "FpPoly":
        # from a list, not a generator: see PolygonTuple.residues
        return cls(p, _trim(tuple([int(c) % p for c in coeffs])))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def __str__(self):
        if self.is_zero:
            return f"0 (mod {self.p})"
        terms = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{e}" if c == 1 else f"{c}*x^{e}")
        return "+".join(terms) + f" (mod {self.p})"


def _trim(coeffs: tuple) -> tuple:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _sub(p, a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(tuple(out))


def _mul(p, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(tuple(out))


def _divmod(p, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv % p
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                a[i + j] = (a[i + j] - c * cb) % p
    return _trim(tuple(q)), _trim(tuple(a))


def _gcd_coeffs(p, a, b):
    """Monic gcd of two coefficient tuples, not both zero, by Euclid.

    Each polynomial is held as one int, coefficient i in bits
    [w*i, w*i + w), and a is reduced by b one quotient term at a time:
    with c = lead(a) / lead(b) mod p and P holding p in every lane
    of b, a += (c * (P - b)) << (w*i) clears the leading coefficient mod p
    in one multiply-add, and no lane borrows because P - b has lanes in
    (0, p].  A finished remainder has every lane reduced at once: Barrett's
    estimate t = ((x * m) >> s) & MQ per lane, with m = floor(2^s / p),
    leaves x - t*p in [0, 2p), and a guard bit marks the lanes that still
    need one subtraction of p (as in ``oracle._span_codes``).

    Lane bound, with L the longer input's length: a lane starts below p,
    and each of at most L quotient terms adds c * (p - b_j) <= (p - 1) p,
    so it stays below (L + 1) p^2 < 2^(s-1) for s = 2 bits(p) +
    bits(L + 1) + 1.  For x < 2^s, x/p - 1 < x*m / 2^s <= x/p, which
    gives the [0, 2p) range.  x*m < 2^(s-1+bits(m)) and w = s + bits(m) + 1,
    so the lane products do not overlap; after the shift by s a lane's
    quotient fills its low bits(m) bits, below the s low bits of the next
    lane's product that land in its top, and MQ keeps its low w - s bits.
    """
    size = max(len(a), len(b))
    s = 2 * p.bit_length() + (size + 1).bit_length() + 1
    m = (1 << s) // p
    w = s + m.bit_length() + 1
    field = (1 << w) - 1
    ones = ((1 << (w * size)) - 1) // field
    full = p * ones
    quot = ((1 << (w - s)) - 1) * ones
    top = w - 1
    guard = ones << top
    offset = ((1 << top) - p) * ones
    A = B = 0
    for x in reversed(a):
        A = A << w | x % p
    for x in reversed(b):
        B = B << w | x % p
    while B:
        db = (B.bit_length() - 1) // w
        inv = pow(B >> (w * db), -1, p)
        diff = (full & ((1 << (w * db + w)) - 1)) - B
        for i in range((A.bit_length() - 1) // w - db, -1, -1):
            c = (A >> (w * (i + db)) & field) * inv % p
            if c:
                A += c * diff << (w * i)
        A -= ((A * m >> s) & quot) * p
        A -= (((A + offset) & guard) >> top) * p
        A, B = B, A
    lanes = [A >> (w * i) & field for i in range((A.bit_length() - 1) // w + 1)]
    inv = pow(lanes[-1], -1, p)
    return tuple([c * inv % p for c in lanes])


def _pow_mod(p, base, e, mod):
    result = (1,)
    base = _divmod(p, base, mod)[1]
    while e:
        if e & 1:
            result = _divmod(p, _mul(p, result, base), mod)[1]
        base = _divmod(p, _mul(p, base, base), mod)[1]
        e >>= 1
    return result


def mul(f: FpPoly, g: FpPoly) -> FpPoly:
    if f.p != g.p:
        raise PreconditionFailed("mixed moduli")
    return FpPoly(f.p, _mul(f.p, f.coeffs, g.coeffs))


def xk_minus_1(k: int, p: int) -> FpPoly:
    coeffs = [0] * (k + 1)
    coeffs[0] = p - 1
    coeffs[k] = 1
    return FpPoly(p, _trim(tuple(coeffs)))


def from_tuple(t: PolygonTuple, p: int) -> FpPoly:
    """The associated polynomial of a tuple modulo the prime p: coefficient
    of x^i is a_i mod p."""
    if t.modulus != p or not is_prime(p):
        raise ModulusNotPrime(f"tuple modulus {t.modulus} must be the prime p={p}")
    return FpPoly.make(p, t.entries)


def gcd_poly(f: FpPoly, g: FpPoly) -> FpPoly:
    """Monic gcd by the Euclidean algorithm."""
    if f.p != g.p:
        raise PreconditionFailed("mixed moduli")
    if f.is_zero and g.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    return FpPoly(f.p, _gcd_coeffs(f.p, f.coeffs, g.coeffs))


def w_function(f: FpPoly) -> int:
    """Longest run of consecutive zero coefficients below the leading one."""
    if f.is_zero:
        raise ZeroPolynomial("w is undefined for the zero polynomial")
    best = run = 0
    for c in f.coeffs[:-1]:
        run = 0 if c else run + 1
        if run > best:
            best = run
    return best


def rotate(f: FpPoly, k: int) -> FpPoly:
    """x*f mod x^k - 1: the k coefficients of f rotated up one place, the
    coefficient of x^(k-1) moving to x^0; preserves gcd with x^k - 1."""
    if f.degree > k - 1:
        raise DegreeTooLarge(f"deg f = {f.degree} exceeds k-1 = {k - 1}")
    if k < 1:
        raise PreconditionFailed(f"k must be positive, got {k}")
    c = f.coeffs
    return FpPoly(f.p, _trim(c[-1:] + c[:-1] if len(c) == k else (0,) + c))


def element_of_order(p: int, r: int) -> int:
    """An element of order r in F_p^*, for r dividing p - 1: the first
    x^((p-1)/r), x = 1, 2, ..., of no smaller order, so only r is factored
    and F_p is not scanned past that x.  At r = p - 1 it is x itself, the
    smallest primitive root mod p."""
    primes = prime_factorization(r)
    for x in range(1, p):
        z = pow(x, (p - 1) // r, p)
        if all(pow(z, r // q, p) != 1 for q in primes):
            return z
    raise ArithmeticError(f"no element of order {r} mod {p}")


def _roots_of_unity(p, r):
    # the z in F_p with z^r = 1, ascending, for r dividing p - 1: the powers
    # of an element of order r
    z = element_of_order(p, r)
    return sorted([pow(z, i, p) for i in range(r)])


def _cosets(m, p):
    # the orbits of j -> p*j on Z/m (p not dividing m), by least element
    seen = [False] * m
    out = []
    for j in range(m):
        orbit = []
        while not seen[j]:
            seen[j] = True
            orbit.append(j)
            j = j * p % m
        if orbit:
            out.append(orbit)
    return out


def _equal_degree_split(p, g, d, m):
    # g divides x^m - 1, squarefree, every irreducible factor of degree d
    if d == 1:
        # g is the product of the linear factors, x^r - 1 with r = deg g
        return [(-z % p, 1) for z in _roots_of_unity(p, len(g) - 1)]
    # h = sum of c_C * h_C over the cosets C, h_C = sum of x^i for i in C:
    # h^p = h mod x^m - 1, so h is a constant of F_p mod each factor, and
    # the h_C together tell the factors apart.  The gcd of a piece f with
    # h^((p-1)/2) - 1 (with h for p = 2) splits f when that polynomial
    # vanishes mod some of its factors and not mod others
    cosets = _cosets(m, p)
    rng = random.Random(0)
    pieces = [g]
    attempts = 0
    while len(pieces) < (len(g) - 1) // d:
        if attempts == SPLIT_ATTEMPT_CAP:
            raise CapExceeded(
                f"splitting the degree-{d} factors of x^{m} - 1 over F_{p} "
                f"exceeded SPLIT_ATTEMPT_CAP={SPLIT_ATTEMPT_CAP} random "
                f"attempts", partial=attempts)
        attempts += 1
        h = [0] * m
        for orbit in cosets:
            c = rng.randrange(p)
            for j in orbit:
                h[j] = c
        split = []
        for f in pieces:
            a = f
            if len(f) - 1 > d:
                r = _divmod(p, h, f)[1]
                if p > 2:
                    r = _sub(p, _pow_mod(p, r, (p - 1) // 2, f), (1,))
                a = _gcd_coeffs(p, f, r)
            split += [a, _divmod(p, f, a)[0]] if 1 < len(a) < len(f) else [f]
        pieces = split
    return pieces


def _factor_squarefree_xm1(m, p):
    # x^m - 1 with p not dividing m: each degree-d piece by the gcd identity
    # of the module docstring, then split by the coset sums
    pieces = {}
    found = []
    for d in sorted({len(orbit) for orbit in _cosets(m, p)}):
        g = xk_minus_1(gcd(m, pow(p, d, m) - 1), p).coeffs
        for e, h in pieces.items():
            if d % e == 0:
                g = _divmod(p, g, h)[0]
        pieces[d] = g
        found.extend(_equal_degree_split(p, g, d, m))
    return found


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _factor_xk_minus_1_cached(k, p):
    e = 0
    m = k
    while m % p == 0:
        m //= p
        e += 1
    base = _factor_squarefree_xm1(m, p)
    mult = p**e
    # from a list, not a generator: see PolygonTuple.residues
    return tuple([(FpPoly(p, c), mult)
                  for c in sorted(base, key=lambda c: (len(c), c))])


def factor_xk_minus_1(k: int, p: int) -> list:
    """Complete factorization of x^k - 1 over F_p as (monic irreducible,
    multiplicity) pairs, sorted by degree then coefficients.

    When p divides k, x^k - 1 = (x^m - 1)^(p^e) with k = m * p^e, so the
    squarefree part is factored and every multiplicity is p^e.  CapExceeded
    when k is above FACTOR_K_CAP.
    """
    if k < 1:
        raise PreconditionFailed(f"k must be positive, got {k}")
    if not is_prime(p):
        raise ModulusNotPrime(f"{p} is not prime")
    if k > FACTOR_K_CAP:
        raise CapExceeded(
            f"factoring x^{k} - 1 over F_{p} exceeds FACTOR_K_CAP={FACTOR_K_CAP}")
    return list(_factor_xk_minus_1_cached(k, p))


def coset_degrees(k: int, p: int) -> tuple:
    """Orbit sizes of j -> p*j on Z/kZ, sorted; these are the degrees of the
    irreducible factors of x^k - 1 when p does not divide k."""
    if k % p == 0:
        raise PDividesK(f"p={p} divides k={k}")
    return tuple(sorted([len(orbit) for orbit in _cosets(k, p)]))


def close_zero_gap(f: FpPoly, forbidden=frozenset()):
    """Multiply by (x - alpha) so the longest zero run shrinks by one.

    alpha is the smallest nonzero element outside ``forbidden`` that differs
    from every ratio a_{j-1}/a_j of consecutive coefficients; for such alpha
    the product satisfies w(f*(x - alpha)) = max(w(f) - 1, 0).  alpha is
    that ratio for some j iff a_{j-1} + (p - alpha)*a_j = 0 with a_j != 0,
    so each alpha is tested on those pairs, without inverses.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot close gaps of the zero polynomial")
    c = f.coeffs
    if c[0] == 0:
        raise PreconditionFailed("constant term must be nonzero")
    p = f.p
    pairs = [(a, b) for a, b in zip(c, c[1:]) if b]
    target = max(w_function(f) - 1, 0)
    for alpha in range(1, p):
        m = p - alpha
        if alpha in forbidden or not all((a + m * b) % p for a, b in pairs):
            continue
        # f * (x - alpha) in one pass
        out = [m * c[0] % p] + [(a + m * b) % p for a, b in zip(c, c[1:])] + [c[-1] % p]
        out = FpPoly(p, tuple(out))
        if w_function(out) != target:
            raise AssertionError("zero-gap reduction identity violated")
        return alpha, out
    raise NotEnoughAlphas(
        f"no eligible alpha in F_{p} outside {len(forbidden)} forbidden values")
