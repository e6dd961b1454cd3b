"""Classification and witness construction.

Calculus operations (CRT combination, projection, lifting) move tuples
between moduli and gon counts while tracking their groups exactly.  On top
of those sit the prime-modulus classification with explicit witnesses, the
complete triangle classification for every modulus, and the prime-power
covering decision procedure for composite moduli.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import gcd, prod
from typing import Optional

from .errors import (
    BadFactorization,
    CapExceeded,
    DNotAchievable,
    InternalVerificationFailed,
    LengthMismatch,
    ModuliNotCoprime,
    ModulusNotPrime,
    NotMultiple,
    NTooSmall,
    PreconditionFailed,
)
from .monodromy import (
    GroupDescriptor,
    _quadrilateral_deltas,
    _triangle_deltas,
    deltas_of,
)
from .numtheory import crt_pair, is_prime, prime_factorization
from .polygon import (
    PolygonTuple,
    # unused here, but perfbench/tracing.py patches construct.enumerate_algebraic
    enumerate_algebraic,
    find_geometric_associate,
    pad_to_geometric,
    validate,
)
from . import polyfp
from .polyfp import FpPoly, close_zero_gap, factor_xk_minus_1, w_function, xk_minus_1

DEFAULT_PRIME_POWER_CAP = 1_000_000

# divisors of n plus CRT roots that classify_triangles may list: the product
# over q^e || n of (1 + sum over j <= e of max(1, #roots mod q^j)); ten
# primes 1 mod 3 need 3^10 = 59,049
TRIANGLE_ROOT_CAP = 100_000


# ---- calculus of algebraic tuples ----

def combine_crt(t1: PolygonTuple, t2: PolygonTuple) -> PolygonTuple:
    """Entrywise CRT lift of two same-length tuples with coprime moduli;
    the result's group is the direct product of the inputs' N parts."""
    if t1.k != t2.k:
        raise LengthMismatch(f"k mismatch: {t1.k} vs {t2.k}")
    n1, n2 = t1.modulus, t2.modulus
    if n1 < 2 or n2 < 2:
        raise PreconditionFailed("moduli must be at least 2")
    if gcd(n1, n2) != 1:
        raise ModuliNotCoprime(f"gcd({n1}, {n2}) != 1")
    entries = [crt_pair(a, n1, b, n2)
               for a, b in zip(t1.residues(), t2.residues())]
    return validate(entries, n1 * n2, "algebraic")


def project(t: PolygonTuple, n1: int) -> PolygonTuple:
    """Entrywise reduction mod a proper factor n1 of the modulus."""
    n = t.modulus
    if n1 <= 1 or n % n1 != 0 or n // n1 <= 1:
        raise BadFactorization(f"{n1} is not a proper factor of {n}")
    return validate([a % n1 for a in t.entries], n1, "algebraic")


def lift(t: PolygonTuple, ell: int) -> PolygonTuple:
    """Repeat the entry pattern ell/k times: same N, rotation order ell."""
    if ell % t.k != 0:
        raise NotMultiple(f"{ell} is not a multiple of k={t.k}")
    if ell < 1:
        raise PreconditionFailed(f"ell must be positive, got {ell}")
    return validate(t.residues() * (ell // t.k), t.modulus, "algebraic")


def combine_coprime_k(t1: PolygonTuple, t2: PolygonTuple) -> PolygonTuple:
    """Lift both tuples to k*ell entries and CRT them; for coprime k, ell
    the result's group is the direct product of the two groups."""
    if gcd(t1.k, t2.k) != 1:
        raise PreconditionFailed(f"gcd(k, ell) must be 1, got {t1.k}, {t2.k}")
    m = t1.k * t2.k
    return combine_crt(lift(t1, m), lift(t2, m))


# ---- prime-modulus classification ----

def achievable_d_set(k: int, p: int) -> set:
    """All gcd degrees d realizable by algebraic k-tuples mod p: sums of
    degrees over proper subsets of the irreducible factors of x^k - 1 that
    contain x - 1.  The full set is excluded since it would force the zero
    tuple.

    With p not dividing k the factor degrees are the p-cyclotomic coset
    sizes mod k, and the orbit {0} is the factor x - 1.  This is the
    coset-degree route the tests hold the entry points' factor table to.
    """
    if not is_prime(p):
        raise ModulusNotPrime(f"{p} is not prime")
    degs = polyfp.coset_degrees(k, p)[1:]
    # checked after coset_degrees so that p | k, k = 0 included, raises
    # PDividesK first
    if k < 1:
        raise PreconditionFailed(f"k must be positive, got {k}")
    sums = {0}
    for d in degs:
        sums |= {s + d for s in sums}
    sums.discard(sum(degs))
    return {1 + s for s in sums}


def _reach(rest, bound):
    # reach[i] holds the (size, degree sum) pairs rest[i:] can make with sum
    # at most bound (every degree is positive, so each such pair is found)
    reach = [{(0, 0)}]
    for f in reversed(rest):
        below = reach[-1]
        reach.append(below | {(r + 1, s + f.degree) for r, s in below if s + f.degree <= bound})
    reach.reverse()
    return reach


def _subset_with_degree(rest, reach, target):
    # lexicographically first index subset (by size, then order) hitting
    # target: the greedy pick takes the smallest index that can complete and
    # reads only pairs with sum at most target, so one table serves each one
    size = min((r for r, s in reach[0] if s == target), default=None)
    if size is None:
        return None
    chosen, i = [], 0
    while size:
        while (size - 1, target - rest[i].degree) not in reach[i + 1]:
            i += 1
        chosen.append(rest[i])
        size, target, i = size - 1, target - rest[i].degree, i + 1
    return chosen


def _divisor_table(k: int, p: int):
    # for a prime p > k >= 3: x - 1, the other factors of x^k - 1, their reach
    # table up to k - 2, which drops the full set (sum k - 1), and the achievable d
    if not is_prime(p) or not p > k or k < 3:
        raise PreconditionFailed(f"need prime p > k >= 3, got k={k}, p={p}")
    one = FpPoly(p, (p - 1, 1))
    rest = [f for f, _ in factor_xk_minus_1(k, p) if f.coeffs != one.coeffs]
    reach = _reach(rest, k - 2)
    return (one, rest, reach), {1 + s for _, s in reach[0]}


def _generic_divisor(table, d: int):
    # a degree-d divisor g of x^k - 1 containing x-1, and the roots of
    # (x^k-1)/g; x^k - 1 is squarefree, so those are the roots of the linear
    # factors left out of g
    one, rest, reach = table
    chosen = _subset_with_degree(rest, reach, d - 1)
    if chosen is None:
        raise AssertionError("achievable d with no matching factor subset")
    forbidden = frozenset([-f.coeffs[0] % one.p for f in rest
                           if f.degree == 1 and f not in chosen])
    return reduce(polyfp.mul, chosen, one), forbidden


def _witness_poly_generic(k: int, d: int, table) -> FpPoly:
    # p > k+1: close the zero gaps of the divisor g with linear factors
    # whose roots avoid (x^k-1)/g
    f, forbidden = _generic_divisor(table, d)
    for _ in range(k - 1 - d):
        _, f = close_zero_gap(f, forbidden)
    return f


def _witness_poly_divisor_case(k: int, p: int, d: int) -> FpPoly:
    # d | k, d < k, p > k: (x^d - 1)^(k/d - 1) * (x^{d-1} + ... + 1) has
    # degree k-1, every coefficient nonzero, and gcd x^d - 1
    base = xk_minus_1(d, p)
    f = FpPoly(p, (1,))
    for _ in range(k // d - 1):
        f = polyfp.mul(f, base)
    return polyfp.mul(f, FpPoly(p, (1,) * d))


def _witness_poly_small_d(k: int, p: int, d: int) -> FpPoly:
    # p = k+1, d < k/2: grow (x-1)^(k/2-d) by d-1 distinct linear factors
    # keeping every coefficient nonzero, then multiply by the rootless
    # binomial x^{k/2} - a with a the smallest generator of the unit group
    a = polyfp.element_of_order(p, p - 1)
    g = FpPoly(p, (1,))
    minus_one = FpPoly(p, (p - 1, 1))
    for _ in range(k // 2 - d):
        g = polyfp.mul(g, minus_one)
    used = {1}
    for _ in range(d - 1):
        alpha, g = close_zero_gap(g, frozenset(used))
        used.add(alpha)
    half = [0] * (k // 2 + 1)
    half[0] = -a % p
    half[k // 2] = 1
    return polyfp.mul(g, FpPoly(p, tuple(half)))


def _witness_poly_large_d(k: int, p: int, d: int) -> FpPoly:
    # p = k+1, d > k/2: start from d - k/2 distinct roots of x^{k/2} - 1
    # (including 1), close gaps with roots drawn from S union T, then
    # multiply by x^{k/2} + 1 whose root set S completes the degree-d gcd
    half = k // 2
    S = {x for x in range(1, p) if pow(x, half, p) == p - 1}
    T = [1]
    for x in range(2, p):
        if len(T) == d - half:
            break
        if x not in S:
            T.append(x)
    g = FpPoly(p, (1,))
    for alpha in T:
        g = polyfp.mul(g, FpPoly(p, (-alpha % p, 1)))
    forbidden = frozenset(set(range(1, p)) - S - set(T))
    for _ in range(k - d - 1):
        _, g = close_zero_gap(g, forbidden)
    plus = [0] * (half + 1)
    plus[0] = 1
    plus[half] = 1
    return polyfp.mul(g, FpPoly(p, tuple(plus)))


def construct_prime_case(k: int, p: int, d: int) -> PolygonTuple:
    """A geometric k-tuple mod p whose group is C_p^{k-d} : C_k.

    For p > k+1 the zero-gap procedure works for every achievable d; at
    p = k+1 the divisor, small-d and large-d constructions cover the line.
    The output is re-verified through the general SNF route before being
    returned.  CapExceeded, before d is checked, when k is above
    polyfp.FACTOR_K_CAP.
    """
    table, ach = _divisor_table(k, p)
    if d not in ach:
        raise DNotAchievable(f"d={d} is not an achievable gcd degree for k={k}, p={p}")
    return _construct(k, p, d, table)


def _construct(k: int, p: int, d: int, table) -> PolygonTuple:
    # construct_prime_case for an achievable d and its (k, p) table
    if p > k + 1:
        f = _witness_poly_generic(k, d, table)
    elif k % d == 0 and d < k:
        f = _witness_poly_divisor_case(k, p, d)
    elif d < k / 2:
        f = _witness_poly_small_d(k, p, d)
    else:
        f = _witness_poly_large_d(k, p, d)
    if f.degree != k - 1 or w_function(f) != 0:
        raise InternalVerificationFailed(f"witness polynomial malformed: {f}")
    raw = validate(f.coeffs, p, "algebraic")
    witness = pad_to_geometric(raw) or find_geometric_associate(raw)
    if witness is None or deltas_of(witness) != (p,) * (k - d):
        raise InternalVerificationFailed(
            f"witness for (k={k}, p={p}, d={d}) failed re-verification")
    return witness


@dataclass(frozen=True)
class ClassificationReport:
    """Achievable groups with verified witnesses, plus the exclusions and
    the rule that rules each one out."""

    parameters: dict
    achievable: list
    witnesses: dict
    excluded: list

    def to_json_dict(self) -> dict:
        return {
            "parameters": dict(self.parameters),
            "achievable": [
                {"group": g.to_json_dict(),
                 "witness": self.witnesses[g].to_json_dict()}
                for g in self.achievable
            ],
            "excluded": [
                {"group": g.to_json_dict(), "rule": rule}
                for g, rule in self.excluded
            ],
        }


def classify_prime(k: int, p: int) -> ClassificationReport:
    """Every monodromy group of geometric k-tuples mod a prime p > k,
    each with a constructed witness; excluded d values cite the
    factor-degree subset-sum rule.  CapExceeded when k is above
    polyfp.FACTOR_K_CAP."""
    table, ach = _divisor_table(k, p)
    achievable = []
    witnesses = {}
    excluded = []
    for d in range(1, k):
        desc = GroupDescriptor(p, k, (p,) * (k - d))
        if d in ach:
            achievable.append(desc)
            witnesses[desc] = _construct(k, p, d, table)
        else:
            excluded.append((desc, "factor-degree-subset-sum"))
    return ClassificationReport(
        parameters={"k": k, "p": p}, achievable=achievable,
        witnesses=witnesses, excluded=excluded)


def _alpha_admissible(alpha: int) -> bool:
    # alpha = 3^i * product of primes = 1 mod 3, with i at most 1
    return all(q % 3 == 1 or (q, e) == (3, 1) for q, e in prime_factorization(alpha).items())


def _cube_roots(q: int, j: int) -> list:
    # the roots of t^2 + t + 1 mod q^j: none mod 2 or 9, so none mod their
    # powers; for q > 3 the cube roots of unity w != 1 mod q, which exist
    # iff -3 is a square (Euler's criterion), each lifted to w^(q^(j-1)),
    # which is w mod q and cubes to 1 mod q^j
    if q <= 3:
        m = q ** min(j, 2)
        return [t for t in range(m) if (t * t + t + 1) % m == 0]
    if pow(-3 % q, (q - 1) // 2, q) != 1:
        return []
    return sorted(pow(w, q ** (j - 1), q**j)
                  for w in polyfp._roots_of_unity(q, 3)[1:])


def classify_triangles(n: int) -> ClassificationReport:
    """All triangle groups (C_n x C_{n/alpha}) : C_3 for a modulus n.

    A geometric triangle [a0, a1, a2] has alpha = gcd(n, a0*a2 - a1^2),
    and a0*a2 - a1^2 = -(a0^2 + a0*a1 + a1^2) mod n.  As gcd(a0, a1, n)
    = 1, a prime q | n dividing that form does not divide a1, so q^j
    divides it iff a0/a1 is a root of t^2 + t + 1 mod q^j: alpha occurs
    only if there is a root mod each prime power q^j exactly dividing it.
    The row a0 = 1, where the form is 1 + a1 + a1^2, realizes each such
    alpha: by CRT some a1 < n is a root mod alpha but, for each q^j
    exactly dividing alpha (j >= 0) with q^(j+1) | n, not mod q^(j+1).
    The row comes first in lexicographic order, so the witness is its
    least such a1: the least r + i*alpha, over the CRT combinations r of
    the roots, of that gcd.

    Whether alpha occurs must agree with the admissibility rule (alpha =
    3^i * primes that are 1 mod 3, i <= 1), or InternalVerificationFailed
    is raised.  CapExceeded, before any divisor is listed, when the
    divisors of n and the CRT roots exceed TRIANGLE_ROOT_CAP.
    """
    if n < 3:
        raise NTooSmall(f"need n >= 3, got {n}")
    if n == 3:
        only = GroupDescriptor(3, 3, (3,))
        return ClassificationReport(
            parameters={"n": 3},
            achievable=[only],
            witnesses={only: validate([1, 1, 1], 3, "geometric")},
            excluded=[(GroupDescriptor(3, 3, (3, 3)), "single-triangle-modulus")])
    # per prime q | n, each q^j | n (j >= 0) with the roots mod q^j
    by_prime = [[(1, [0])] + [(q**j, _cube_roots(q, j)) for j in range(1, e + 1)]
                for q, e in prime_factorization(n).items()]
    work = prod(sum(max(1, len(rs)) for _, rs in powers) for powers in by_prime)
    if work > TRIANGLE_ROOT_CAP:
        raise CapExceeded(
            f"classifying triangles mod {n} lists {work} divisors and roots, "
            f"over TRIANGLE_ROOT_CAP={TRIANGLE_ROOT_CAP}")
    achievable, witnesses, excluded = [], {}, []
    for alpha, parts in sorted((prod(g for g, _ in parts), parts) for parts in product(*by_prime)):
        desc = GroupDescriptor(n, 3, tuple([d for d in (n, n // alpha) if d > 1]))
        missing = [g for g, rs in parts if not rs]
        if _alpha_admissible(alpha) == bool(missing):
            raise InternalVerificationFailed(
                f"triangle classification mismatch at n={n}: the rule disagrees on "
                f"alpha={alpha}, whose prime powers without a root of t^2 + t + 1 "
                f"are {missing}")
        if missing:
            excluded.append((desc, "norm-form-admissibility"))
            continue
        # the CRT basis element for g (1 mod g, 0 mod alpha/g) makes each
        # combined root one multiply-add; g = 1 contributes nothing
        combined = [0]
        for g, rs in parts:
            if g > 1:
                basis = alpha // g * pow(alpha // g, -1, g)
                combined = [c + r * basis for c in combined for r in rs]
        combined = sorted(c % alpha for c in combined)
        a1 = next(a for i in range(n // alpha + 1) for r in combined
                  if 1 <= (a := r + i * alpha) <= n - 2 and gcd(n, 1 + a + a * a) == alpha)
        achievable.append(desc)
        witnesses[desc] = validate([1, a1, n - 1 - a1], n, "geometric")
    return ClassificationReport(
        parameters={"n": n}, achievable=achievable,
        witnesses=witnesses, excluded=excluded)


# ---- composite moduli ----

@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of the prime-power covering decision."""

    feasible: bool
    witness: Optional[PolygonTuple] = None
    failing_modulus: Optional[int] = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "failing_modulus": self.failing_modulus,
            "detail": self.detail,
        }


def _associate_representatives(k: int, p: int, e: int):
    # the algebraic k-tuples mod q = p^e whose first nonzero entry, after i
    # leading zeros, is a power p^v < q: every unit orbit's lexicographic
    # minimum is one of them.  Lexicographic for each i; the last entry is
    # forced by the sum, and a tuple led by p^v, v >= 1, may still share p
    q = p**e
    for i in range(k - 1):
        for v in range(e):
            lead = (0,) * i + (p**v,)
            for tail in product(range(q), repeat=k - 2 - i):
                entries = lead + tail
                entries += (-sum(entries) % q,)
                if v and gcd(*entries, q) != 1:
                    continue
                yield PolygonTuple(entries, q)


def composite_feasible(k: int, n: int, deltas,
                       per_prime_cap: int = DEFAULT_PRIME_POWER_CAP) -> FeasibilityResult:
    """Decide whether some geometric k-tuple mod n has N with the given
    invariant factors.

    Per prime power q dividing n, the algebraic k-tuples mod q achieving
    N/qN are searched in lexicographic order, and the first one with each
    zero-coordinate pattern is kept; the target is feasible exactly when
    one tuple per prime power can be chosen so every coordinate is nonzero
    somewhere, in which case the CRT combination has a geometric associate
    that is returned as a verified witness.

    Only associate-class representatives are searched.  Scaling by a unit
    mod q keeps the zero pattern and the ideal N, so a unit orbit lies
    wholly inside or outside the tuples kept for a pattern, and the first
    of those is the lexicographic minimum of its orbit.  That minimum has
    as its first nonzero entry that entry's gcd with q, a power of p
    below q, so only tuples led by such a power are built: about q^(k-2)
    instead of q^(k-1) at a prime q.  ``per_prime_cap`` is compared with
    q^k, not with that count: CapExceeded when q^k exceeds it.

    The local groups of the candidates come from the triangle and
    quadrilateral closed forms for k = 3 and 4, and from ``deltas_of`` for
    other k.  The witness is always re-verified by ``deltas_of``.
    """
    deltas = [int(d) for d in deltas]
    if k < 3:
        raise PreconditionFailed(f"need k >= 3, got {k}")
    for d in deltas:
        if d < 1:
            raise PreconditionFailed(f"target factor {d} is not positive")
    # from a list, not a generator: see PolygonTuple.residues
    deltas = tuple([d for d in deltas if d > 1])
    if not deltas:
        raise PreconditionFailed("target invariant factors must be nontrivial")
    for d in deltas:
        if n % d != 0:
            raise PreconditionFailed(f"target factor {d} does not divide n={n}")
    for a, b in zip(deltas, deltas[1:]):
        if a % b != 0:
            raise PreconditionFailed(f"targets {deltas} are not a divisibility chain")
    if n < 2:
        raise PreconditionFailed(f"need n >= 2, got {n}")

    closed_form = {3: _triangle_deltas, 4: _quadrilateral_deltas}.get(k)
    patterns_by_q = {}
    for p, e in sorted(prime_factorization(n).items()):
        q = p**e
        if q**k > per_prime_cap:
            raise CapExceeded(
                f"prime power {q}: q^k = {q**k} exceeds the cap {per_prime_cap}")
        target = tuple([x for x in (gcd(d, q) for d in deltas) if x > 1])
        found = {}
        for cand in _associate_representatives(k, p, e):
            local = (closed_form(*cand.entries, q) if closed_form
                     else deltas_of(cand))
            if local == target:
                pattern = frozenset(
                    i for i, a in enumerate(cand.entries) if a == 0)
                found.setdefault(pattern, cand)
        if not found:
            return FeasibilityResult(
                feasible=False, failing_modulus=q,
                detail=f"no algebraic {k}-tuple mod {q} achieves N/{q}N "
                       f"= {target or '(trivial)'}")
        patterns_by_q[q] = found

    qs = sorted(patterns_by_q)
    memo = {}

    def search(idx, uncovered):
        if idx == len(qs):
            return [] if not uncovered else None
        key = (idx, uncovered)
        if key in memo:
            return memo[key]
        result = None
        for pattern in sorted(patterns_by_q[qs[idx]], key=sorted):
            rest = search(idx + 1, uncovered & pattern)
            if rest is not None:
                result = [pattern] + rest
                break
        memo[key] = result
        return result

    choice = search(0, frozenset(range(k)))
    if choice is None:
        return FeasibilityResult(
            feasible=False,
            detail="every combination of achieving tuples leaves some "
                   "coordinate zero at all prime powers")
    parts = [patterns_by_q[q][pat] for q, pat in zip(qs, choice)]
    combined = reduce(combine_crt, parts)
    witness = pad_to_geometric(combined) or find_geometric_associate(combined)
    if witness is None or deltas_of(witness) != deltas:
        raise InternalVerificationFailed(
            f"covering witness for (k={k}, n={n}, {deltas}) failed re-verification")
    return FeasibilityResult(feasible=True, witness=witness,
                             detail="witness verified by the SNF route")
