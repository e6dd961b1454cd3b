"""Ground truth by brute force.

Edges of the dessin are the pairs (m, i) in C_n x C_k, flattened to the
index m*k + i.  sigma0 rotates an edge about its black vertex, sigma1 about
its white vertex; the subgroup generated by the pair products sigma0^x
sigma1^x acts by translations on the first coordinate, and its vectors are
enumerated directly as the additive span of the circulant columns.  Nothing
here touches the exact linear algebra module, so the two routes to the
group structure stay independent.

Permutations are stored as bytes when n*k <= 256 (composition is then a
single ``bytes.translate``) and as tuples otherwise.
"""

from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import NamedTuple

from .errors import CapExceeded
from .numtheory import divisors, prime_factorization
from .polygon import PolygonTuple

DEFAULT_SPAN_CAP = 100_000
DEFAULT_GROUP_CAP = 1_000_000


class EdgeLabel(NamedTuple):
    m: int
    i: int


def edge_index(label: EdgeLabel, k: int) -> int:
    return label.m * k + label.i


def edge_label(index: int, k: int) -> EdgeLabel:
    return EdgeLabel(index // k, index % k)


@dataclass(frozen=True)
class PermutationPair:
    """sigma0, sigma1 as permutations of the n*k edge indices."""

    n: int
    k: int
    sigma0: tuple
    sigma1: tuple


@dataclass(frozen=True)
class AbelianInvariants:
    order: int
    factors: tuple


def build_permutations(t: PolygonTuple) -> PermutationPair:
    """sigma0: (m, i) -> (m, i+1);  sigma1: (m, i) -> (m - a_{i-1}, i-1)."""
    n, k = t.modulus, t.k
    a = t.residues()
    sigma0 = [0] * (n * k)
    sigma1 = [0] * (n * k)
    for m in range(n):
        for i in range(k):
            sigma0[m * k + i] = m * k + (i + 1) % k
            sigma1[m * k + i] = ((m - a[(i - 1) % k]) % n) * k + (i - 1) % k
    return PermutationPair(n, k, tuple(sigma0), tuple(sigma1))


# ---- permutation plumbing ----

def _pack(perm, size):
    return bytes(perm) if size <= 256 else tuple(perm)


def _identity(size):
    return bytes(range(size)) if size <= 256 else tuple(range(size))


def _mul(a, b):
    """The composite a . b: apply b first, then a."""
    if isinstance(a, bytes):
        return b.translate(a + bytes(256 - len(a)))
    # from a list, not a generator: see PolygonTuple.residues
    return tuple([a[x] for x in b])


def _inverse(a):
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return bytes(out) if isinstance(a, bytes) else tuple(out)


def _power(a, e):
    out = _identity(len(a))
    for _ in range(e):
        out = _mul(a, out)
    return out


def _closure(generators, size, cap):
    """All products of the generators, by breadth-first multiplication."""
    seen = {_identity(size)}
    frontier = list(seen)
    if isinstance(generators[0], bytes):
        tables = [g + bytes(256 - size) for g in generators]
        while frontier:
            nxt = []
            for g in frontier:
                for tb in tables:
                    h = g.translate(tb)
                    if h not in seen:
                        if len(seen) >= cap:
                            raise CapExceeded(
                                f"group closure exceeded cap {cap}",
                                partial=len(seen))
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return seen
    while frontier:
        nxt = []
        for g in frontier:
            for gen in generators:
                # from a list, not a generator: see PolygonTuple.residues
                h = tuple([gen[x] for x in g])
                if h not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(
                            f"group closure exceeded cap {cap}",
                            partial=len(seen))
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def _packed_pair(pp):
    size = pp.n * pp.k
    return _pack(pp.sigma0, size), _pack(pp.sigma1, size), size


def group_order(pp: PermutationPair, cap: int = DEFAULT_GROUP_CAP) -> int:
    """Size of <sigma0, sigma1>, or CapExceeded with the partial count."""
    s0, s1, size = _packed_pair(pp)
    return len(_closure([s0, s1], size, cap))


# ---- the translation subgroup as vectors ----

def span_vectors(t: PolygonTuple, cap: int = DEFAULT_SPAN_CAP) -> set:
    """Additive closure of the circulant columns inside (Z/nZ)^k."""
    n, k = t.modulus, t.k
    a = t.residues()
    # from a list, not a generator: see PolygonTuple.residues
    cols = [tuple([a[(i - j) % k] for i in range(k)]) for j in range(k)]
    zero = (0,) * k
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for col in cols:
                w = tuple([(x + y) % n for x, y in zip(v, col)])
                if w not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(
                            f"span closure exceeded cap {cap}",
                            partial=len(seen))
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def span_invariants(t: PolygonTuple, cap: int = DEFAULT_SPAN_CAP) -> AbelianInvariants:
    """Invariant factors of the span, recovered from annihilator counts.

    For each divisor m of n the number of span elements killed by m is
    prod_i gcd(m, delta_i); reading those counts at the prime powers
    dividing n pins down the p-adic exponent multisets, which re-zip into
    the invariant factor chain.  No matrix reduction is involved.
    """
    vecs = span_vectors(t, cap)
    n = t.modulus
    tally = Counter()
    for v in vecs:
        o = 1
        for x in v:
            o = lcm(o, n // gcd(x, n))
        tally[o] += 1
    counts = {m: sum(c for o, c in tally.items() if m % o == 0)
              for m in divisors(n)}
    exponents = {}
    for p, emax in prime_factorization(n).items():
        prev = 0
        per_rank = []
        for e in range(1, emax + 1):
            cur = counts[p**e]
            ce = 0
            while cur % p == 0 and cur > 1:
                cur //= p
                ce += 1
            per_rank.append(ce - prev)
            prev = ce
        exponents[p] = per_rank
    width = max((per[0] for per in exponents.values() if per), default=0)
    factors = []
    for rank in range(width):
        f = 1
        for p, per_rank in exponents.items():
            f *= p ** sum(1 for cnt in per_rank if cnt > rank)
        if f > 1:
            factors.append(f)
    factors = tuple(factors)
    if prod(factors) != len(vecs):
        raise AssertionError("annihilator counts inconsistent with span size")
    return AbelianInvariants(order=len(vecs), factors=factors)


def span_shift_is_trivial(t: PolygonTuple, cap: int = DEFAULT_SPAN_CAP) -> bool:
    """Whether the cyclic coordinate shift fixes every span vector."""
    return all(v[-1:] + v[:-1] == v for v in span_vectors(t, cap))


# ---- structural checks ----

@dataclass(frozen=True)
class StructureReport:
    """Pass/fail per structural clause, checked on explicit permutations."""

    n: int
    k: int
    group_order: int
    translation_order: int
    action_trivial: bool
    clauses: dict

    @property
    def passed(self) -> bool:
        return all(self.clauses.values())

    @property
    def failures(self) -> list:
        return [name for name, ok in self.clauses.items() if not ok]


def check_structure(t: PolygonTuple,
                    span_cap: int = DEFAULT_SPAN_CAP,
                    group_cap: int = DEFAULT_GROUP_CAP) -> StructureReport:
    """Verify the semidirect decomposition clause by clause.

    - pair_powers_commute: the products sigma0^x sigma1^x commute pairwise.
    - translations_by_vectors: each generated element shifts first
      coordinates by a fixed vector, independent of m.
    - second_coordinate_subgroup: that subgroup is exactly the set of group
      elements fixing every second coordinate.
    - normal / trivial_intersection / product_covers_group: N is normal,
      meets <sigma0> trivially, and N * <sigma0> is the whole group.
    - order_is_k_times_n: |G| = k * |N|.
    - conjugation_is_cyclic_shift: conjugating by sigma0 rotates the
      translation vectors by one coordinate.
    """
    pp = build_permutations(t)
    n, k = pp.n, pp.k
    s0, s1, size = _packed_pair(pp)
    ident = _identity(size)

    G = _closure([s0, s1], size, group_cap)

    pair_gens = []
    for x in range(1, k):
        pair_gens.append(_mul(_power(s0, x), _power(s1, x)))
    commute = all(_mul(a, b) == _mul(b, a)
                  for i, a in enumerate(pair_gens)
                  for b in pair_gens[i + 1:])

    # the translation subgroup is the span, so the span cap governs it
    N = _closure(pair_gens, size, span_cap) if pair_gens else {ident}

    # g fixes every second coordinate iff g[x] = x (mod k) for all x
    if isinstance(ident, bytes):
        coord = bytes(x % k for x in range(size)) + bytes(256 - size)
        pattern = ident.translate(coord)
        fixes = lambda g: g.translate(coord) == pattern
    else:
        fixes = lambda g: all(y % k == x % k for x, y in enumerate(g))
    stabilizer = {g for g in G if fixes(g)}
    fixed_subgroup_ok = stabilizer == N

    s0_inv, s1_inv = _inverse(s0), _inverse(s1)
    normal_ok = all(
        _mul(g, _mul(h, gi)) in N
        for g, gi in ((s0, s0_inv), (s1, s1_inv))
        for h in N)

    rot_powers = [_power(s0, j) for j in range(k)]
    intersection_ok = all(r not in N for r in rot_powers[1:])

    product = {_mul(h, r) for h in N for r in rot_powers}
    product_ok = product == G

    order_ok = len(G) == k * len(N)

    # translation vectors and the conjugation action
    vectors = {}
    translations_ok = True
    for h in N:
        # from a list, not a generator: see PolygonTuple.residues
        v = tuple([h[i] // k for i in range(k)])
        if any(h[m * k + i] != ((m + v[i]) % n) * k + i
               for m in range(n) for i in range(k)):
            translations_ok = False
            break
        vectors[h] = v
    shift_ok = translations_ok
    action_trivial = True
    if translations_ok:
        for h, v in vectors.items():
            conj = _mul(s0, _mul(h, s0_inv))
            rotated = v[-1:] + v[:-1]
            if conj not in vectors or vectors[conj] != rotated:
                shift_ok = False
                break
            if rotated != v:
                action_trivial = False

    return StructureReport(
        n=n,
        k=k,
        group_order=len(G),
        translation_order=len(N),
        action_trivial=action_trivial,
        clauses={
            "pair_powers_commute": commute,
            "translations_by_vectors": translations_ok,
            "second_coordinate_subgroup": fixed_subgroup_ok,
            "normal": normal_ok,
            "trivial_intersection": intersection_ok,
            "product_covers_group": product_ok,
            "order_is_k_times_n": order_ok,
            "conjugation_is_cyclic_shift": shift_ok,
        },
    )
