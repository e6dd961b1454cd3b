"""Ground truth by brute force.

Edges of the dessin are the pairs (m, i) in C_n x C_k, flattened to the
index m*k + i.  sigma0 rotates an edge about its black vertex, sigma1 about
its white vertex; the subgroup generated by the pair products sigma0^x
sigma1^x acts by translations on the first coordinate, and its vectors are
enumerated directly as the additive span of the circulant columns.  Nothing
here touches the exact linear algebra module, so the two routes to the
group structure stay independent.

The span is one bytes blob of fixed-size records, one per vector, each a
fixed-width field per coordinate.  Read as one int, the blob takes a vector
added to every record, mod n, in a handful of big-int operations (SIMD
within a register).  The span is built one column at a time, as the union
of the cosets of the span so far, and each coset is made by doubling: the
records so far, plus a multiple of the column.  This is still a
brute-force enumeration: every element is built and inspected, and no
matrix is reduced and no gcd of polynomials taken, so its answers stay an
independent check.

A permutation is stored in one of three encodings, chosen once per pair
by ``_packed_pair``; each element is still built, hashed and inspected.
a . b is ``_compose(_table(a), b)``, a prepared once per left factor.
- bytes when n*k <= 256: a . b is one ``b.translate`` through a's
  256-entry table.
- fibre blocks when 8 <= n <= 256, k <= 256 and sigma0 and sigma1 each
  carry every fibre {(m, i) : m in C_n} onto one fibre, as then every
  product does: (F, B_0, ..., B_{k-1}), F[i] the fibre that fibre i goes
  to and B_i[m] the first coordinate of the image of (m, i).  a . b is
  k + 1 translates: b's F and each B_i through a's F and block F[i], a's
  blocks picked once per head F.  When a's blocks are all the identity,
  as in sigma0's powers, a . b keeps b's blocks.  g fixes every second
  coordinate iff its F is the identity, and commutes with (m, i) ->
  (m + 1, i) iff each of its blocks turns C_n.
- tuples otherwise: a . b is an ``itemgetter`` over b applied to a.

A group is closed coset by coset (Dimino's algorithm): each new generator
extends the group H found so far by whole left cosets x . H, which are
disjoint, so the element cap is met exactly, a coset at a time.  Only the
coset representatives are tested for membership; every element is still
built and hashed, about once.  G is closed over the pair products
sigma0^x sigma1^x and then sigma0, so N comes first and the last cosets
are sigma0^j . N.

``check_structure`` enumerates G and N, but decides the clauses over N on
N's generators and N * <sigma0> = G by a coset count, each exact by one of
the subgroup lemmas (i)-(iv) its docstring names.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import repeat, starmap
from math import gcd, prod
from operator import itemgetter
import struct
from typing import NamedTuple

from .errors import CapExceeded
from .numtheory import prime_factorization
from .polygon import PolygonTuple

DEFAULT_SPAN_CAP = 100_000
DEFAULT_GROUP_CAP = 1_000_000
# A closure element stores n*k entries, so an element cap alone does not
# bound memory: 10^6 tuples of 3000 entries are 24 GB.  Each closure keeps
# at most this many entries (160 MB of tuple slots, less in bytes or fibre
# blocks), and fewer elements than its cap when they are long.
CLOSURE_ENTRY_BUDGET = 20_000_000

# struct codes of the packed field widths that decode at C speed
_STRUCT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}
# its first n bytes are the identity block of C_n
_BYTE_RANGE = bytes(range(256))


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

def _fibres(values, n, k):
    """values (n*k flat entries) as fibre blocks, or None when it splits a
    fibre, when k > 256, or unless 8 <= n <= 256: below 8 a block outweighs
    its n 8-byte tuple slots and composes no faster."""
    if not 8 <= n <= 256 or k > 256:
        return None
    heads, blocks = [], []
    for i in range(k):
        column = values[i::k]
        seconds = {y % k for y in column}
        if len(seconds) > 1:
            return None
        heads += seconds
        blocks.append(bytes([y // k for y in column]))
    return (bytes(heads), *blocks)


def _packed_pair(pp):
    """sigma0 and sigma1 in the oracle's encoding, and n*k."""
    n, k = pp.n, pp.k
    if n * k <= 256:
        return bytes(pp.sigma0), bytes(pp.sigma1), n * k
    pair = [_fibres(s, n, k) for s in (pp.sigma0, pp.sigma1)]
    if None in pair:
        pair = tuple(pp.sigma0), tuple(pp.sigma1)
    return (*pair, n * k)


def _fibred(a):
    return type(a) is tuple and type(a[0]) is bytes


def _like(a, values):
    """values (n*k flat entries) in the encoding of the permutation a."""
    if _fibred(a):
        return _fibres(values, len(values) // (len(a) - 1), len(a) - 1)
    return bytes(values) if isinstance(a, bytes) else tuple(values)


def _identity(a):
    if _fibred(a):
        return tuple([_identity(x) for x in a])
    return _like(a, range(len(a)))


class _FibreTable(dict):
    """A fibre element a as a left factor: the tables of its F and blocks,
    whether every block is the identity, and, built on first use, under
    each head F of a right factor those of a's F and blocks F[0], F[1]..."""

    __slots__ = ("tables", "shared")

    def __init__(self, a):
        self.tables = [_table(x) for x in a]
        self.shared = all(map(_BYTE_RANGE.startswith, a[1:]))

    def __missing__(self, head):
        tables = self.tables
        picked = self[head] = [tables[0], *[tables[1 + f] for f in head]]
        return picked


def _table(a):
    """a, prepared once as the left factor of many composites.

    A bytes permutation becomes its 256-entry ``translate`` table, and so
    does each bytes of a fibre element (``_FibreTable``); a tuple is its
    own table.
    """
    if type(a) is bytes:
        return a + bytes(256 - len(a))
    return _FibreTable(a) if _fibred(a) else a


def _compose(t, b):
    """a . b, where t = _table(a): apply b first, then a."""
    if type(b) is bytes:
        return b.translate(t)
    if type(t) is tuple:
        return itemgetter(*b)(t)
    if t.shared:
        return (b[0].translate(t.tables[0]),) + b[1:]
    # (m, i) goes by b to (B_i[m], F[i]), then by a's block F[i]
    return (*map(bytes.translate, b, t[b[0]]),)


def _vector(h, k):
    """The first coordinates of h(0, i), i < k: h's translation vector."""
    if _fibred(h):
        return tuple([b[0] for b in h[1:]])
    return tuple([y // k for y in h[:k]])


def _fixes_seconds(g, coord, coord_table):
    """Whether g fixes every second coordinate: coord . g == coord, where
    coord[x] = x mod k; on fibre blocks, whether g's F is coord's, the
    identity."""
    if _fibred(g):
        return g[0] == coord[0]
    return _compose(coord_table, g) == coord


def _commutes_with_shift(h, h_table, shift, shift_table, wheel):
    """Whether h commutes with shift: (m, i) -> (m + 1, i).  On fibre
    blocks, whether each B_i is wheel[B_i[0]:B_i[0] + n], wheel = C_n * 2."""
    if _fibred(h):
        n = len(h[1])
        return all(b == wheel[b[0]:b[0] + n] for b in h[1:])
    return _compose(h_table, shift) == _compose(shift_table, h)


def _mul(a, b):
    """The composite a . b: apply b first, then a."""
    return _compose(_table(a), b)


def _inverse(a):
    if _fibred(a):
        # block i of a, inverted, is block F[i] of the inverse
        back = _inverse(a[0])
        return (back, *[_inverse(a[1 + i]) for i in back])
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return _like(a, out)


def _powers(a, e):
    """[a^0, ..., a^(e-1)], each the one before times a."""
    out = [_identity(a)]
    table = _table(a)
    for _ in range(1, e):
        out.append(_compose(table, out[-1]))
    return out


def _closure(generators, size, cap, name="group"):
    """All products of the generators, by Dimino's coset enumeration (G.
    Butler, Fundamental Algorithms for Permutation Groups, LNCS 559, 1991).

    The powers of the first generator come first.  Then each generator g
    not yet found extends the group H found so far: the coset
    representatives r, starting with the identity, are left-multiplied by
    every generator kept so far, and a product x outside the set opens the
    left coset x . H, |H| composites.  Distinct left cosets of H are
    disjoint, so each adds |H| new elements, and the set is closed once
    every representative is walked.  Only representatives are tested for
    membership; every element is still built and hashed, about once.

    ``name`` says which cap governs the closure in the CapExceeded message.
    The element cap is lowered, once, to the elements of ``size`` entries
    that CLOSURE_ENTRY_BUDGET holds, and the message then names the budget.
    A coset is refused before it is built when it would take the set past
    that limit, so the closure raises exactly when the group has more than
    max(limit, 1) elements, with that many as the partial count.
    """
    limit = min(cap, CLOSURE_ENTRY_BUDGET // size)

    def admit(count):
        if count > limit:
            raise CapExceeded(
                f"{name} closure exceeded cap {cap}" if limit == cap else
                f"{name} closure exceeded CLOSURE_ENTRY_BUDGET="
                f"{CLOSURE_ENTRY_BUDGET} stored permutation entries"
                f" ({limit} elements of {size} entries)",
                partial=max(limit, 1))

    ident = _identity(generators[0])
    tables = [_table(generators[0])]
    seen = {ident}
    h = _compose(tables[0], ident)
    while h != ident:
        admit(len(seen) + 1)
        seen.add(h)
        h = _compose(tables[0], h)
    for g in generators[1:]:
        if g in seen:
            continue
        tables.append(_table(g))
        H = list(seen)
        reps = [ident]
        for r in reps:
            for table in tables:
                x = _compose(table, r)
                if x not in seen:
                    admit(len(seen) + len(H))
                    reps.append(x)
                    seen.update(map(_compose, repeat(_table(x)), H))
    return seen


def check_group_cap(t: PolygonTuple, cap: int = DEFAULT_GROUP_CAP) -> None:
    """CapExceeded, before any permutation is built, when the orbit of edge
    (0, 0) alone outgrows the group cap.

    sigma0 reaches every second coordinate, and the first coordinates
    reached are the multiples of g = gcd(a_0, ..., a_{k-1}, n), so the
    orbit holds k * n / g edges, and |G| is at least that.
    """
    n = t.modulus
    if t.k * n // gcd(n, *t.entries) > cap:
        raise CapExceeded(f"group closure exceeded cap {cap}")


def _group_generators(s0, s1, k):
    """[sigma0 sigma1, ..., sigma0^(k-1) sigma1^(k-1), sigma0], k >= 2.

    The first generates sigma1 = sigma0^-1 (sigma0 sigma1) together with
    the last, so the list generates <sigma0, sigma1>, whatever the pair.
    Its order sets the cost of ``_closure``: the pair products close N
    first, a large subgroup, and the last step adds the cosets
    sigma0^j . N, whose representatives are powers of sigma0 (on fibre
    blocks, left factors with identity blocks).  The pair products alone
    are N's generators.
    """
    rot_powers, s1_powers = _powers(s0, k), _powers(s1, k)
    return [*map(_mul, rot_powers[1:], s1_powers[1:]), s0]


def group_order(pp: PermutationPair, cap: int = DEFAULT_GROUP_CAP) -> int:
    """Size of <sigma0, sigma1>, or CapExceeded with the partial count."""
    s0, s1, size = _packed_pair(pp)
    return len(_closure(_group_generators(s0, s1, pp.k), size, cap))


# ---- the translation subgroup as vectors ----

def _field_width(n):
    """Bits per packed coordinate: a sum of two residues plus a guard bit.

    8, 16, 32 or 64 when n <= 2^62, so that ``struct`` decodes a code.
    """
    need = (2 * n - 2).bit_length() + 1
    return next((w for w in (8, 16, 32, 64) if need <= w), need)


def _record_bytes(w, k):
    """Bytes per record of k w-bit fields: 1, 2, 4 or 8 when they hold
    w*k bits, else the bytes that do."""
    return next((b for b in (1, 2, 4, 8) if w * k <= 8 * b), -(-w * k // 8))


def _each_record(rb, count):
    """The int with a 1 in the lowest bit of each of count rb-byte records:
    v times it repeats the record v count times."""
    return int.from_bytes((1).to_bytes(rb, "little") * count, "little")


def _holds(blob, record):
    """Whether ``record`` is one of the blob's records, by aligned find."""
    rb = len(record)
    i = blob.find(record)
    while i > 0 and i % rb:
        i = blob.find(record, i + 1)
    return i >= 0


def _span_codes(t: PolygonTuple, cap: int):
    """The span as a blob of packed records, the field width w and the
    record size rb in bytes.

    Record j is bytes [rb*j, rb*j + rb) of the blob, and coordinate i of
    its vector is bits [w*i, w*i + w) of it, little-endian; any bits above
    w*k are zero.  Read as one int, the blob adds a vector c to every
    record at once: s = blob + c repeated; s + offset sets the guard bit of
    every field holding a sum >= n, and n is taken off exactly those
    fields.  The span grows one column c at a time: with S the span of the
    earlier columns and t the least t >= 1 with t*c in S, the new span is
    the disjoint union of the cosets S + r*c for r < t.  Those cosets are
    built by doubling: the records of cosets 0..m-1, plus m*c, are cosets
    m..2m-1.
    """
    n, k = t.modulus, t.k
    w = _field_width(n)
    rb = _record_bytes(w, k)
    ones = sum(1 << (w * i) for i in range(k))
    guard = ones << (w - 1)
    offset = ((1 << (w - 1)) - n) * ones
    mask = (1 << (w * k)) - 1
    residues = t.residues()
    a = sum(x << (w * i) for i, x in enumerate(residues))

    def plus(x, c, each=1):
        # x plus c in every record, mod n per field; each = _each_record(...)
        # for as many records as x holds
        s = x + c * each
        return s - (((s + offset * each) & (guard * each)) >> (w - 1)) * n

    limit = max(cap, 1)
    x, count = 0, 1
    for j in range(k):
        # column j is a, rotated by j coordinates
        c = ((a << (w * j)) & mask) | (a >> (w * (k - j)))
        if count == 1:
            # S = {0}, so t is the order of c, which every column shares
            cosets = n // gcd(n, *residues)
        else:
            span = x.to_bytes(rb * count, "little")
            step, cosets = c, 1
            while (count * cosets <= limit
                   and not _holds(span, step.to_bytes(rb, "little"))):
                cosets += 1
                step = plus(step, c)
        if count * cosets > limit:
            raise CapExceeded(f"span closure exceeded cap {cap}",
                              partial=limit)
        total = count * cosets
        while count < total:
            part = min(count, total - count)
            low = x if part == count else x & ((1 << (8 * rb * part)) - 1)
            x |= plus(low, c, _each_record(rb, part)) << (8 * rb * count)
            count += part
            c = plus(c, c)
    return x.to_bytes(rb * count, "little"), w, rb


def _vectors(blob, k, w, rb):
    """The blob's records, each as the tuple of its k coordinates."""
    if w > 64:
        # such a span holds at least n > 2^62 elements when its tuple is
        # valid, so this is reached only by hand-built tuples
        field = (1 << w) - 1
        return (tuple([v >> (w * i) & field for i in range(k)])
                for v in (int.from_bytes(blob[j:j + rb], "little")
                          for j in range(0, len(blob), rb)))
    return struct.Struct(
        f"<{k}{_STRUCT_CODES[w]}{rb - k * w // 8}x").iter_unpack(blob)


def span_vectors(t: PolygonTuple, cap: int = DEFAULT_SPAN_CAP) -> set:
    """Additive closure of the circulant columns inside (Z/nZ)^k.

    Every element is enumerated, as a packed record (see ``_span_codes``),
    and decoded to a k-tuple.  CapExceeded when the span has more than
    ``cap`` elements.
    """
    blob, w, rb = _span_codes(t, cap)
    return set(_vectors(blob, t.k, w, rb))


def span_invariants(t: PolygonTuple, cap: int = DEFAULT_SPAN_CAP) -> AbelianInvariants:
    """Invariant factors of the span, recovered from annihilator counts.

    Every span element is enumerated and its order n / gcd(n, v_0, ...,
    v_{k-1}) tallied.  For each prime power p^j dividing n, the elements
    killed by p^j number p^s(j), and exactly s(j) - s(j-1) invariant
    factors have p-adic exponent at least j; so, largest factor first, the
    first s(j) - s(j-1) factors each take one more p.  No matrix reduction
    is involved.
    """
    blob, w, rb = _span_codes(t, cap)
    n = t.modulus
    count = len(blob) // rb
    # the cosets are disjoint by construction; the set checks it
    vectors = set(_vectors(blob, t.k, w, rb))
    if len(vectors) != count:
        raise AssertionError("span records repeat")
    # gcd(v) of each vector at C speed; the few distinct gcds g then give
    # the orders n / gcd(n, g)
    tally = Counter()
    for g, c in Counter(starmap(gcd, vectors)).items():
        tally[n // gcd(n, g)] += c
    factors = []
    for p, e in prime_factorization(n).items():
        prev = 0
        for j in range(1, e + 1):
            killed = sum(c for o, c in tally.items() if p**j % o == 0)
            s = 0
            while killed % p == 0 and killed > 1:
                killed //= p
                s += 1
            factors += [1] * (s - prev - len(factors))
            for i in range(s - prev):
                factors[i] *= p
            prev = s
    factors = tuple(factors)
    if prod(factors) != count:
        raise AssertionError("annihilator counts inconsistent with span size")
    return AbelianInvariants(order=count, factors=factors)


def span_shift_is_trivial(t: PolygonTuple, cap: int = DEFAULT_SPAN_CAP) -> bool:
    """Whether the cyclic coordinate shift fixes every span vector.

    The blob is compared, as one int, with every record rotated by one
    coordinate.
    """
    blob, w, rb = _span_codes(t, cap)
    each = _each_record(rb, len(blob) // rb)
    first = (1 << w) - 1
    rest = ((1 << (w * t.k)) - 1) ^ first
    x = int.from_bytes(blob, "little")
    return (((x << w) & rest * each)
            | ((x >> (w * (t.k - 1))) & first * each)) == x


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
      Normality is checked by sigma0 alone: with g = sigma0 sigma1 in N,
      sigma1 h sigma1^-1 = sigma0^-1 (g h g^-1) sigma0 then lies in N.
    - order_is_k_times_n: |G| = k * |N|.
    - conjugation_is_cyclic_shift: conjugating by sigma0 rotates the
      translation vectors by one coordinate.

    G, N and the stabilizer scan over G are enumerated in full.  The
    clauses over N are decided on N's generators sigma0^x sigma1^x, each
    exactly, by a standard subgroup lemma:
    (i) conjugation by sigma0 is an automorphism, so it maps N into N iff
        it maps each generator into N (normal);
    (ii) the elements fixing every second coordinate, and those commuting
        with (m, i) -> (m + 1, i), are subgroups, so N lies in both iff its
        generators do (translations_by_vectors);
    (iii) on translations, h -> v(h) is a homomorphism, so conjugation
        rotates every vector, and every vector is rotation-invariant
        (action_trivial), iff that holds on the generators;
    (iv) N * {sigma0^j : j < k} is the union of d0 distinct right cosets of
        N, d0 the least d >= 1 with sigma0^d in N (d0 divides k), and lies
        in G, so it is G iff |N| * d0 = |G| (product_covers_group).
    When a generator's conjugate leaves N, action_trivial stops at the
    first such generator, in the order x = 1, ..., k - 1.
    """
    check_group_cap(t, group_cap)
    pp = build_permutations(t)
    n, k = pp.n, pp.k
    s0, s1, size = _packed_pair(pp)

    generators = _group_generators(s0, s1, k)
    G = _closure(generators, size, group_cap)

    pair_gens, rot_powers = generators[:-1], _powers(s0, k)
    commute = all(_mul(a, b) == _mul(b, a)
                  for i, a in enumerate(pair_gens)
                  for b in pair_gens[i + 1:])

    # the translation subgroup is the span, so the span cap governs it
    N = _closure(pair_gens, size, span_cap, "span")

    # g fixes every second coordinate iff coord . g == coord, where
    # coord[x] = x mod k
    coord = _like(s0, [x % k for x in range(size)])
    coord_table = _table(coord)
    stabilizer = {g for g in G if _fixes_seconds(g, coord, coord_table)}
    fixed_subgroup_ok = stabilizer == N

    # d0 (lemma iv) is k when sigma0^j is in N for no 0 < j < k
    d0 = next((d for d in range(1, k) if rot_powers[d] in N), k)
    intersection_ok = d0 == k
    product_ok = len(N) * d0 == len(G)
    order_ok = len(G) == k * len(N)

    # the clauses over N are read off its generators (lemmas i-iii), each
    # prepared as a left factor once
    s0_table, s0_inv = _table(s0), _inverse(s0)
    # h is a translation iff it fixes every second coordinate and commutes
    # with shift: (m, i) -> (m + 1, i)
    shift = _like(s0, [(x + k) % size for x in range(size)])
    # wheel is read on fibre blocks only, where n <= 256
    shift_table, wheel = _table(shift), _BYTE_RANGE[:n] * 2
    normal_ok = translations_ok = shift_ok = action_trivial = True
    for h in pair_gens:
        h_table = _table(h)
        conj = _compose(s0_table, _compose(h_table, s0_inv))   # s0 h s0^-1
        conj_in_n = conj in N
        # sigma0 alone decides normality while pair_gens[0] = sigma0 sigma1
        # generates N: sigma1 = sigma0^-1 pair_gens[0], and N is a group
        normal_ok = normal_ok and conj_in_n
        if translations_ok:
            translations_ok = h in stabilizer and _commutes_with_shift(
                h, h_table, shift, shift_table, wheel)
        if shift_ok:
            v = _vector(h, k)
            rotated = v[-1:] + v[:-1]
            if not conj_in_n or _vector(conj, k) != rotated:
                shift_ok = False
            elif rotated != v:
                action_trivial = False
    # the conjugation clause reads translation vectors, so it needs them
    if not translations_ok:
        shift_ok = False
        action_trivial = True

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
