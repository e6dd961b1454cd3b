import operator
import random
import struct
from collections import Counter
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from billiard_monodromy import (
    build_permutations,
    check_structure,
    group_order,
    oracle,
    quadrilateral_closed_form,
    triangle_closed_form,
    span_invariants,
    span_vectors,
    validate,
)
from billiard_monodromy import EdgeLabel
from billiard_monodromy.errors import CapExceeded
from billiard_monodromy.monodromy import (DEFAULT_ACTION_CAP, deltas_of,
                                          group_of)
from billiard_monodromy.numtheory import divisors
from billiard_monodromy.polygon import PolygonTuple, enumerate_geometric
from billiard_monodromy.oracle import (
    _closure,
    _commutes_with_shift,
    _compose,
    _fibred,
    _fixes_seconds,
    _identity,
    _inverse,
    _like,
    _mul,
    _packed_pair,
    _powers,
    _table,
    span_shift_is_trivial,
    PermutationPair,
    edge_index,
    edge_label,
)
from conftest import random_algebraic


def edge(m, i, k):
    return edge_index(EdgeLabel(m, i), k)


def _power(a, e):
    """a^e built from the identity, one composite at a time: the reference
    for check_structure's running products (``_powers``)."""
    out = _identity(a)
    for _ in range(e):
        out = _mul(a, out)
    return out


def test_edge_labels_biject():
    for k, n in ((3, 4), (5, 7)):
        seen = {edge_index(EdgeLabel(m, i), k) for m in range(n) for i in range(k)}
        assert seen == set(range(n * k))
        assert all(edge_label(x, k) == divmod(x, k) for x in range(n * k))


class TestBuildPermutations:
    def test_white_rotation_equilateral(self):
        pp = build_permutations(validate([1, 1, 1], 3))
        # (0,0) -> (0 - a_2, 2) = (2, 2)
        assert pp.sigma1[edge(0, 0, 3)] == edge(2, 2, 3)

    def test_black_rotation_wraps(self):
        pp = build_permutations(validate([2, 2, 2, 4], 5))
        for m in range(5):
            assert pp.sigma0[edge(m, 3, 4)] == edge(m, 0, 4)

    def test_white_rotation_quadrilateral(self):
        pp = build_permutations(validate([2, 2, 2, 4], 5))
        # (0,0) -> (-a_3, 3) = (1, 3)
        assert pp.sigma1[edge(0, 0, 4)] == edge(1, 3, 4)

    def test_orders_divide_k(self):
        rng = random.Random(61)
        for _ in range(50):
            t = random_algebraic(rng, k_lo=2, k_hi=6, n_lo=2, n_hi=12)
            s0, s1, _ = _packed_pair(build_permutations(t))
            assert _power(s0, t.k) == _identity(s0)
            assert _power(s1, t.k) == _identity(s0)
            for s in (s0, s1):
                assert _powers(s, t.k) == [_power(s, j) for j in range(t.k)]

    def test_pair_power_closed_form(self):
        # sigma0^x sigma1^x sends (m, i) to (m - sum_{j=i-x}^{i-1} a_j, i)
        rng = random.Random(67)
        for _ in range(30):
            t = random_algebraic(rng, k_lo=2, k_hi=6, n_lo=2, n_hi=10)
            n, k = t.modulus, t.k
            a = t.residues()
            pp = build_permutations(t)
            s0, s1, _ = _packed_pair(pp)
            for x in range(1, k):
                g = _mul(_power(s0, x), _power(s1, x))
                for m in range(n):
                    for i in range(k):
                        drop = sum(a[j % k] for j in range(i - x, i))
                        assert g[edge(m, i, k)] == edge((m - drop) % n, i, k)


class TestGroupOrder:
    @pytest.mark.parametrize("entries,n,expected", [
        ([1, 1, 1], 3, 9),
        ([2, 2, 2, 4], 5, 500),
        ([1, 2, 4], 7, 21),
        ([3, 4, 3, 4], 7, 28),
    ])
    def test_examples(self, entries, n, expected):
        assert group_order(build_permutations(validate(entries, n))) == expected

    def test_cap_carries_partial(self):
        pp = build_permutations(validate([2, 2, 2, 4], 5))
        with pytest.raises(CapExceeded) as exc:
            group_order(pp, cap=10)
        assert exc.value.partial == 10


class TestGroupCap:
    def test_orbit_of_edge_zero_bounds_the_group(self):
        # slow route: the orbit of edge (0, 0) by breadth-first search, on
        # hand-built tuples too, whose gcd(entries, n) may exceed 1
        rng = random.Random(131)
        for _ in range(300):
            k, n = rng.randint(2, 5), rng.randint(1, 12)
            if n**k > 20000:
                continue
            step = rng.randint(1, 3)
            t = PolygonTuple(tuple(step * rng.randrange(n) % n for _ in range(k)), n)
            pp = build_permutations(t)
            orbit, frontier = {0}, [0]
            while frontier:
                x = frontier.pop()
                for y in (pp.sigma0[x], pp.sigma1[x]):
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            bound = k * n // gcd(n, *t.entries)
            assert len(orbit) == bound, t
            size = group_order(pp)
            assert size >= bound, t
            oracle.check_group_cap(t, size)
            with pytest.raises(CapExceeded,
                               match=f"^group closure exceeded cap {bound - 1}$"):
                oracle.check_group_cap(t, bound - 1)

    def test_check_structure_refuses_before_building(self, monkeypatch):
        def spy(t):
            raise AssertionError("build_permutations called")

        monkeypatch.setattr(oracle, "build_permutations", spy)
        n = 10**18 + 3
        with pytest.raises(CapExceeded, match="^group closure exceeded cap 1000000$"):
            check_structure(validate([1, 1, n - 2], n))


class TestSpanInvariants:
    def test_worked_example(self):
        inv = span_invariants(validate([2, 2, 2, 4], 5))
        assert inv.order == 125 and inv.factors == (5, 5, 5)

    def test_regular_pentagon(self):
        inv = span_invariants(validate([3] * 5, 5, "geometric"))
        assert inv.factors == (5,)

    def test_single_factor_example(self):
        inv = span_invariants(validate([1, 2, 4, 3], 5))
        assert inv.order == 5 and inv.factors == (5,)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            span_invariants(validate([2, 2, 2, 4], 5), cap=50)

    def test_matches_snf_route(self):
        rng = random.Random(71)
        for _ in range(120):
            t = random_algebraic(rng, k_lo=2, k_hi=5, n_lo=2, n_hi=12)
            if t.modulus ** t.k > 30000:
                continue
            assert span_invariants(t).factors == deltas_of(t)

    def test_matches_snf_route_at_deep_prime_powers(self):
        # moduli whose spans hold 2^4 and 3^3 and above, where a prime
        # spreads over several exponents across the factors; entries that
        # are multiples of small divisors of n keep many spans inside 20000,
        # and each factor chain is checked on at most three tuples
        rng = random.Random(1616)
        seen = Counter()
        for n in (16, 27, 32, 64, 72, 81, 144, 243):
            for k in (2, 3, 4):
                for _ in range(300):
                    entries = [rng.randrange(n) * rng.choice((1, 2, 3, 4, 8, 9)) % n
                               for _ in range(k - 1)]
                    entries.append(-sum(entries) % n)
                    if gcd(*entries, n) != 1:
                        continue
                    t = validate(entries, n)
                    deltas = deltas_of(t)
                    if prod(deltas) > 20000 or seen[deltas] == 3:
                        continue
                    assert span_invariants(t).factors == deltas
                    seen[deltas] += 1
        for chain in ((64, 32, 8), (27, 9, 9), (144, 18, 2), (243, 81)):
            assert chain in seen


def _span_bfs(t, cap=oracle.DEFAULT_SPAN_CAP):
    """The span by breadth-first search over k-tuples: the slow route that
    the packed coset-by-coset enumeration replaced, kept as its reference."""
    n, k = t.modulus, t.k
    a = t.residues()
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


def _outcome(f, *args):
    try:
        return f(*args)
    except CapExceeded as e:
        return ("cap", str(e), e.partial)


CENSUS_CELLS = ((3, 60), (3, 96), (4, 18), (4, 24), (5, 7), (5, 11), (6, 5), (6, 7))


class TestSpanEnumeration:
    def test_matches_bfs_on_census_cells(self):
        # every tuple of the eight cells would be 579M span elements, so a
        # seeded sample per cell, under group_of's action cap
        rng = random.Random(89)
        cap = DEFAULT_ACTION_CAP + 1
        for k, n in CENSUS_CELLS:
            cell = list(enumerate_geometric(k, n))
            for t in rng.sample(cell, 6):
                expected = _outcome(_span_bfs, t, cap)
                assert _outcome(span_vectors, t, cap) == expected, t
                shift = (expected if isinstance(expected, tuple) else
                         all(v[-1:] + v[:-1] == v for v in expected))
                assert _outcome(span_shift_is_trivial, t, cap) == shift, t

    @pytest.mark.parametrize("n, width", [(2, 8), (64, 8), (65, 16),
                                          (16384, 16), (16385, 32),
                                          (2**30, 32), (2**30 + 1, 64),
                                          (2**62, 64), (2**62 + 1, 65)])
    def test_field_width(self, n, width):
        assert oracle._field_width(n) == width

    @pytest.mark.parametrize("n", [64, 65, 16384, 16385])
    def test_field_width_boundaries(self, n):
        rng = random.Random(n)
        for _ in range(3):
            t = random_algebraic(rng, k_lo=2, k_hi=2, n_lo=n, n_hi=n)
            assert span_vectors(t) == _span_bfs(t)
        for _ in range(3):
            t = random_algebraic(rng, k_lo=3, k_hi=3, n_lo=n, n_hi=n)
            assert _outcome(span_vectors, t, 3000) == _outcome(_span_bfs, t, 3000)

    def test_many_coordinates(self):
        rng = random.Random(97)
        for _ in range(30):
            t = random_algebraic(rng, k_lo=7, k_hi=12, n_lo=2, n_hi=5)
            assert _outcome(span_vectors, t, 5000) == _outcome(_span_bfs, t, 5000)

    def test_fields_wider_than_64_bits(self):
        # a hand-built tuple: a valid one has at least n > 2^62 span elements
        t = PolygonTuple((2**63, 2**63), 2**64)
        assert span_vectors(t) == _span_bfs(t) == {(0, 0), (2**63, 2**63)}
        assert span_shift_is_trivial(t)

    def test_cap_edges(self):
        t = validate([2, 2, 2, 4], 5)
        size = len(_span_bfs(t))
        assert span_vectors(t, cap=size) == _span_bfs(t, cap=size)
        for cap in (size - 1, 1, 0, -1):
            expected = _outcome(_span_bfs, t, cap)
            assert expected == ("cap", f"span closure exceeded cap {cap}",
                                max(cap, 1))
            for f in (span_vectors, span_invariants, span_shift_is_trivial):
                assert _outcome(f, t, cap) == expected, (f, cap)


def _span_codes_reference(t, cap):
    """The span as a set of packed codes, and the field width w: the
    set-based coset union that the record blob replaced, kept as its
    reference.  One packed addition and one set insert per element."""
    n, k = t.modulus, t.k
    w = oracle._field_width(n)
    ones = sum(1 << (w * i) for i in range(k))
    guard = ones << (w - 1)
    offset = ((1 << (w - 1)) - n) * ones
    mask = (1 << (w * k)) - 1
    a = sum(x << (w * i) for i, x in enumerate(t.residues()))
    limit = max(cap, 1)
    span = {0}
    for j in range(k):
        # column j is a, rotated by j coordinates
        c = ((a << (w * j)) & mask) | (a >> (w * (k - j)))
        step, cosets = c, 1
        while step not in span:
            cosets += 1
            if len(span) * cosets > limit:
                raise CapExceeded(f"span closure exceeded cap {cap}",
                                  partial=limit)
            step = (s := step + c) - (((s + offset) & guard) >> (w - 1)) * n
        coset = list(span)
        for _ in range(cosets - 1):
            coset = [(s := x + c) - (((s + offset) & guard) >> (w - 1)) * n
                     for x in coset]
            span.update(coset)
    return span, w


def _decoder_reference(k, w):
    """code -> the tuple of its k coordinates."""
    if w > 64:
        field = (1 << w) - 1
        return lambda v: tuple([v >> (w * i) & field for i in range(k)])
    unpack = struct.Struct(f"<{k}{oracle._STRUCT_CODES[w]}").unpack
    size = k * w // 8
    return lambda v: unpack(v.to_bytes(size, "little"))


def _reference_span(t, cap):
    codes, w = _span_codes_reference(t, cap)
    return set(map(_decoder_reference(t.k, w), codes))


def _record_grid():
    """Seeded tuples over every field width and record size.

    (n, k) pairs give w = 8, 16, 32 and 64, and records of 1, 2, 4 and 8
    bytes and of 9, 10, 12, 16 and 24.  Entries are multiples of n // d
    for a divisor d of n: d = n gives any entries, and d^k up to about
    3000 keeps the span under the cap.  Each pair also gets a tuple whose
    residues are all equal.
    """
    rng = random.Random(1919)
    pairs = [(n, k) for n in (2, 7, 64) for k in (1, 2, 3, 5, 9)]
    pairs += [(n, k) for n in (65, 1000, 16384) for k in (2, 3, 5)]
    pairs += [(n, k) for n in (16385, 2**30, 2**30 + 1, 2**62)
              for k in (2, 3)]
    out = []
    for n, k in pairs:
        small = [d for d in divisors(n) if d**k <= 3000] + [n]
        for _ in range(6):
            d = rng.choice(small)
            out.append(PolygonTuple(
                tuple(n // d * rng.randrange(d) for _ in range(k)), n))
        out.append(PolygonTuple((rng.randrange(n),) * k, n))
    return out


class TestSpanRecords:
    """The record blob against the set-based enumeration it replaced."""

    def test_grid_covers_widths_and_record_sizes(self):
        shapes = set()
        for t in _record_grid():
            w = oracle._field_width(t.modulus)
            shapes.add((w, oracle._record_bytes(w, t.k)))
        assert {w for w, _ in shapes} == {8, 16, 32, 64}
        assert {rb for _, rb in shapes} == {1, 2, 4, 8, 9, 10, 12, 16, 24}

    def test_matches_reference(self):
        admitted = 0
        for t in _record_grid():
            expected = _outcome(_reference_span, t, 3000)
            assert _outcome(span_vectors, t, 3000) == expected, t
            if isinstance(expected, tuple):
                continue
            admitted += 1
            size = len(expected)
            for cap in (size, size - 1):
                want = _outcome(_reference_span, t, cap)
                assert _outcome(span_vectors, t, cap) == want, (t, cap)
                shift = (want if isinstance(want, tuple) else
                         all(v[-1:] + v[:-1] == v for v in want))
                assert _outcome(span_shift_is_trivial, t, cap) == shift, (t, cap)
                inv = _outcome(span_invariants, t, cap)
                if isinstance(want, tuple):
                    assert inv == want, (t, cap)
                    continue
                # the elements that d kills number prod gcd(d, f) over the
                # invariant factors f, for every d | n
                assert inv.order == size
                for d in divisors(t.modulus):
                    killed = sum(1 for v in want
                                 if all(d * x % t.modulus == 0 for x in v))
                    assert killed == prod(gcd(d, f) for f in inv.factors), (t, d)
            if len(set(t.residues())) == 1:
                assert span_shift_is_trivial(t, size)
        assert admitted >= 150


@st.composite
def small_algebraic(draw, k_max=5, n_max=10):
    k = draw(st.integers(2, k_max))
    n = draw(st.integers(2, n_max))
    entries = draw(st.lists(st.integers(0, n - 1), min_size=k - 1,
                            max_size=k - 1))
    entries.append(-sum(entries) % n)
    assume(any(entries) and gcd(*entries, n) == 1)
    return validate(entries, n, "algebraic")


class TestSpanProperties:
    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(small_algebraic())
    def test_invariants_match_deltas(self, t):
        assert span_invariants(t).factors == deltas_of(t)

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(small_algebraic())
    def test_shift_is_trivial_iff_residues_equal(self, t):
        assert span_shift_is_trivial(t) == (len(set(t.residues())) == 1)

    @settings(derandomize=True, deadline=None, max_examples=25, database=None)
    @given(small_algebraic(k_max=4, n_max=7))
    def test_structure_translation_order(self, t):
        assert check_structure(t).translation_order == span_invariants(t).order


class TestCheckStructure:
    def test_equilateral(self):
        rep = check_structure(validate([1, 1, 1], 3))
        assert rep.passed and rep.action_trivial
        assert rep.group_order == 9 and rep.translation_order == 3

    def test_worked_quadrilateral(self):
        rep = check_structure(validate([2, 2, 2, 4], 5))
        assert rep.passed and not rep.action_trivial
        assert rep.failures == []

    def test_lifted_two_gon(self):
        rep = check_structure(validate([3, 4, 3, 4], 7))
        assert rep.passed
        assert rep.group_order == 28 and rep.translation_order == 7

    def test_group_factors_through_span(self):
        rng = random.Random(73)
        for _ in range(40):
            t = random_algebraic(rng, k_lo=2, k_hi=5, n_lo=2, n_hi=8)
            rep = check_structure(t)
            assert rep.passed
            assert rep.group_order == t.k * rep.translation_order
            assert rep.translation_order == span_invariants(t).order


def test_stabilizer_count_equals_span_order():
    rng = random.Random(79)
    for _ in range(30):
        t = random_algebraic(rng, k_lo=2, k_hi=4, n_lo=2, n_hi=8)
        pp = build_permutations(t)
        s0, s1, size = _packed_pair(pp)
        G = _closure([s0, s1], size, 10**6)
        k = t.k
        fixing = sum(1 for g in G
                     if all(y % k == x % k for x, y in enumerate(g)))
        assert fixing == len(span_vectors(t))


def test_group_order_is_k_times_span_order():
    rng = random.Random(83)
    for _ in range(60):
        t = random_algebraic(rng, k_lo=2, k_hi=5, n_lo=2, n_hi=10)
        if t.modulus ** t.k > 20000:
            continue
        inv = span_invariants(t)
        assert group_order(build_permutations(t)) == t.k * inv.order
        assert inv.order == prod(inv.factors)


# ---- broken permutation pairs ----

def _swap_s1(pp):
    s1 = list(pp.sigma1)
    s1[0], s1[1] = s1[1], s1[0]
    return pp.sigma0, tuple(s1)


def _s1_is_s0(pp):
    return pp.sigma0, pp.sigma0


def _s0_transposition(pp):
    s0 = list(range(len(pp.sigma0)))
    s0[0], s0[1] = 1, 0
    return tuple(s0), pp.sigma1


def _square_s1(pp):
    return pp.sigma0, tuple([pp.sigma1[x] for x in pp.sigma1])


def _square_s0(pp):
    return tuple([pp.sigma0[x] for x in pp.sigma0]), pp.sigma1


MUTATIONS = {"swap_s1": _swap_s1, "s1_is_s0": _s1_is_s0,
             "s0_transposition": _s0_transposition,
             "square_s1": _square_s1, "square_s0": _square_s0}

CLAUSES = ("pair_powers_commute", "translations_by_vectors",
           "second_coordinate_subgroup", "normal", "trivial_intersection",
           "product_covers_group", "order_is_k_times_n",
           "conjugation_is_cyclic_shift")


def _break(monkeypatch, mutation):
    """Make check_structure see the pair that ``mutation`` makes of the
    true one."""
    real = build_permutations

    def broken(t):
        pp = real(t)
        return PermutationPair(pp.n, pp.k, *MUTATIONS[mutation](pp))

    monkeypatch.setattr(oracle, "build_permutations", broken)


# mutation, entries, n, |G|, |N|, the clauses that fail
BROKEN_REPORTS = [
    ("swap_s1", [1, 1, 1], 3, 162, 162,
     {"pair_powers_commute", "translations_by_vectors",
      "second_coordinate_subgroup", "trivial_intersection",
      "order_is_k_times_n", "conjugation_is_cyclic_shift"}),
    ("swap_s1", [1, 2], 3, 48, 6,
     {"translations_by_vectors", "second_coordinate_subgroup", "normal",
      "product_covers_group", "order_is_k_times_n",
      "conjugation_is_cyclic_shift"}),
    ("s1_is_s0", [1, 1, 1], 3, 3, 3,
     {"translations_by_vectors", "second_coordinate_subgroup",
      "trivial_intersection", "order_is_k_times_n",
      "conjugation_is_cyclic_shift"}),
    ("s1_is_s0", [2, 2, 2, 4], 5, 4, 2,
     {"translations_by_vectors", "second_coordinate_subgroup",
      "trivial_intersection", "order_is_k_times_n",
      "conjugation_is_cyclic_shift"}),
    ("s0_transposition", [1, 1, 1], 3, 24, 24,
     {"pair_powers_commute", "translations_by_vectors",
      "second_coordinate_subgroup", "trivial_intersection",
      "order_is_k_times_n", "conjugation_is_cyclic_shift"}),
    ("s0_transposition", [1, 2], 3, 8, 4,
     {"translations_by_vectors", "second_coordinate_subgroup",
      "conjugation_is_cyclic_shift"}),
    ("square_s1", [1, 1, 1], 3, 9, 3,
     {"translations_by_vectors", "second_coordinate_subgroup",
      "conjugation_is_cyclic_shift"}),
    ("square_s1", [2, 2, 2, 4], 5, 100, 100,
     {"pair_powers_commute", "translations_by_vectors",
      "second_coordinate_subgroup", "trivial_intersection",
      "order_is_k_times_n", "conjugation_is_cyclic_shift"}),
    ("square_s0", [1, 1, 1], 3, 9, 3,
     {"translations_by_vectors", "second_coordinate_subgroup",
      "conjugation_is_cyclic_shift"}),
    ("square_s0", [2, 2, 2, 4], 5, 100, 100,
     {"pair_powers_commute", "translations_by_vectors",
      "second_coordinate_subgroup", "trivial_intersection",
      "order_is_k_times_n", "conjugation_is_cyclic_shift"}),
]


class TestBrokenPairs:
    @pytest.mark.parametrize("mutation,entries,n,order,n_order,failing",
                             BROKEN_REPORTS)
    def test_report(self, monkeypatch, mutation, entries, n, order, n_order,
                    failing):
        _break(monkeypatch, mutation)
        rep = check_structure(validate(entries, n))
        assert (rep.n, rep.k) == (n, len(entries))
        assert (rep.group_order, rep.translation_order) == (order, n_order)
        # without translations there is no action to call non-trivial
        assert rep.action_trivial
        assert list(rep.clauses) == list(CLAUSES)
        assert rep.clauses == {c: c not in failing for c in CLAUSES}

    def test_every_clause_fails_somewhere(self):
        failed = set().union(*(row[-1] for row in BROKEN_REPORTS))
        assert failed == set(CLAUSES)
        assert {row[0] for row in BROKEN_REPORTS} == set(MUTATIONS)


# ---- the bytes, fibre and tuple encodings ----

# n*k > 256 with n <= 256: the oracle stores per-fibre blocks; the closed
# forms (and the SNF route for k = 17) say what it must find
ABOVE_THRESHOLD = [
    ([26, 27, 33], 86),
    ([53, 59, 60], 86),
    ([4, 61, 4, 61], 65),
    ([57, 51, 8, 14], 65),
    ([53, 13, 53, 13], 66),
    ([1] * 17, 17),
]

# the mutations that send one fibre into two, so their pairs stay tuples
FIBRE_SPLITTING = {"swap_s1", "s0_transposition"}


def _tuple_pair(pp):
    return tuple(pp.sigma0), tuple(pp.sigma1), pp.n * pp.k


def _force_tuples(monkeypatch):
    monkeypatch.setattr(oracle, "_packed_pair", _tuple_pair)


def _decode(a, n, k):
    """a, in any encoding, as the tuple of the images of the n*k edges."""
    if _fibred(a):
        return tuple([a[1 + i][m] * k + a[0][i]
                      for m in range(n) for i in range(k)])
    return tuple(a)


def _both_encodings(t):
    """The pair in the oracle's own encoding, and forced to tuples."""
    pp = build_permutations(t)
    return _packed_pair(pp)[:2], _tuple_pair(pp)[:2]


def _one_root_short(rng, k):
    """A tuple with n*k > 256, n <= 256 and |N| = n: the coefficients of
    c * prod (x - z^j) over the k-th roots of unity z^j mod a prime n, all
    but one z^j != 1, so the span is one eigenline of the rotation."""
    n = rng.choice([p for p in range(256 // k + 1, 257)
                    if p % k == 1 and all(p % d for d in range(2, p))])
    z = next(z for z in (pow(g, (n - 1) // k, n) for g in range(2, n))
             if all(pow(z, d, n) != 1 for d in range(1, k)))
    skip = rng.randrange(1, k)
    coeffs = [rng.randrange(1, n)]
    for j in range(k):
        if j != skip:
            root = pow(z, j, n)
            coeffs = [(hi - root * lo) % n
                      for hi, lo in zip([0] + coeffs, coeffs + [0])]
    return validate(coeffs, n)


def _large_tuples(seed):
    """Seeded tuples above the bytes threshold: two for each k = 2..5
    (|G| = k*n <= 1280), and the ABOVE_THRESHOLD rows."""
    rng = random.Random(seed)
    return ([_one_root_short(rng, k) for k in range(2, 6) for _ in range(2)]
            + [validate(entries, n) for entries, n in ABOVE_THRESHOLD])


class TestEncodings:
    """Every pair runs in the oracle's own encoding (bytes at n*k <= 256,
    per-fibre blocks above) and forced to tuples, and the two must agree."""

    def test_closures_and_composites_agree(self):
        rng = random.Random(89)
        small = [random_algebraic(rng, k_lo=2, k_hi=5, n_lo=2, n_hi=12)
                 for _ in range(30)]
        small = [t for t in small if t.k * prod(deltas_of(t)) <= 3000]
        for t in small + _large_tuples(89):
            n, k = t.modulus, t.k
            packed, plain = _both_encodings(t)
            G = _closure(list(packed), n * k, 10**6)
            assert all(isinstance(g, bytes) == (n * k <= 256) for g in G)
            assert all(_fibred(g) == (n * k > 256) for g in G)
            G_plain = _closure(list(plain), n * k, 10**6)
            assert all(isinstance(g[0], int) for g in G_plain)
            assert {_decode(g, n, k) for g in G} == G_plain
            sample = rng.sample(sorted(G), min(len(G), 12))
            rot_powers = _powers(packed[0], k)
            # every block of a power of sigma0 is the identity; the sample
            # runs twice, so each table meets every head again
            for a in sample + rot_powers:
                a_plain = _decode(a, n, k)
                assert _decode(_inverse(a), n, k) == _inverse(a_plain)
                table, plain_table = _table(a), _table(a_plain)
                for b in sample + sample:
                    b_plain = _decode(b, n, k)
                    want = tuple([a_plain[y] for y in b_plain])
                    ab = _compose(table, b)
                    assert _decode(ab, n, k) == want
                    assert _compose(plain_table, b_plain) == want
                    if _fibred(a) and table.shared:
                        assert all(map(operator.is_, ab[1:], b[1:]))
                if _fibred(a):
                    # one pick of a's blocks per head of a right factor
                    assert table.shared == (a in rot_powers)
                    assert set(table) == (set() if table.shared
                                          else {b[0] for b in sample})

    # (entries, n, |G|): one pair of bytes, one of fibre blocks
    CAPPED = [([2, 2, 2, 4], 5, 500), ([4, 61, 4, 61], 65, 260)]

    def test_caps_agree(self):
        for entries, n, _ in self.CAPPED:
            packed, plain = _both_encodings(validate(entries, n))
            for gens in (packed, plain):
                with pytest.raises(CapExceeded) as exc:
                    _closure(list(gens), n * len(entries), 99, "span")
                assert str(exc.value) == "span closure exceeded cap 99"
                assert exc.value.partial == 99

    def test_entry_budget_lowers_the_cap(self, monkeypatch):
        for entries, n, order in self.CAPPED:
            size = n * len(entries)
            # a budget of 99 elements and less than one more admits 99
            budget = size * 100 - 1
            monkeypatch.setattr(oracle, "CLOSURE_ENTRY_BUDGET", budget)
            packed, plain = _both_encodings(validate(entries, n))
            for gens in (packed, plain):
                with pytest.raises(CapExceeded) as exc:
                    _closure(list(gens), size, 10**6, "span")
                assert str(exc.value) == (
                    f"span closure exceeded CLOSURE_ENTRY_BUDGET={budget} "
                    f"stored permutation entries (99 elements of {size} "
                    "entries)")
                assert exc.value.partial == 99
                # a cap under the budget keeps its own message
                with pytest.raises(CapExceeded) as exc:
                    _closure(list(gens), size, 50, "span")
                assert str(exc.value) == "span closure exceeded cap 50"
                assert exc.value.partial == 50
            # |G| fits a budget of exactly |G| elements
            monkeypatch.setattr(oracle, "CLOSURE_ENTRY_BUDGET", size * order)
            for gens in (packed, plain):
                assert len(_closure(list(gens), size, 10**6)) == order

    @pytest.mark.parametrize("mutation", [None, *MUTATIONS])
    def test_reports_agree(self, monkeypatch, mutation):
        # the stabilizer, product, translation and conjugation clauses,
        # |G| and the span and group caps all read the same on either
        # encoding (test_broken_pairs_above_the_threshold breaks the
        # fibre-block pairs)
        if mutation:
            _break(monkeypatch, mutation)
        rng = random.Random(97)
        tuples = [random_algebraic(rng, k_lo=2, k_hi=4, n_lo=2, n_hi=4)
                  for _ in range(12)]
        if mutation is None:
            tuples += _large_tuples(97)
        own = _outcomes(tuples)
        _force_tuples(monkeypatch)
        assert _outcomes(tuples) == own

    @pytest.mark.parametrize(
        "mutation", [None, *sorted(set(MUTATIONS) - FIBRE_SPLITTING)])
    def test_clause_reads_match_composites(self, mutation):
        # on fibre blocks, "g fixes every second coordinate" is read off F
        # and "g commutes with the shift" off the blocks; both must say what
        # the coord and shift composites say, on G and on x . G, where x
        # negates both coordinates (a head that fixes fibre 0 but is not
        # the identity) or swaps first coordinates n - 2 and n - 1 in fibre
        # k - 1 (a last block that turns C_n only in part)
        seen = set()
        for entries, n in ABOVE_THRESHOLD:
            k, size = len(entries), n * len(entries)
            pp = build_permutations(validate(entries, n))
            if mutation:
                pp = PermutationPair(n, k, *MUTATIONS[mutation](pp))
            s0, s1, _ = _packed_pair(pp)
            assert _fibred(s0) and _fibred(s1)
            coord = _like(s0, [x % k for x in range(size)])
            shift = _like(s0, [(x + k) % size for x in range(size)])
            swap = {n - 2: n - 1, n - 1: n - 2}
            extras = [_like(s0, [(-(x // k) % n) * k + (-x % k)
                                 for x in range(size)]),
                      _like(s0, [x if x % k < k - 1 else
                                 swap.get(x // k, x // k) * k + x % k
                                 for x in range(size)])]
            extras = [_table(x) for x in extras]
            coord_table, shift_table = _table(coord), _table(shift)
            wheel = bytes(range(n)) * 2
            for g in _closure([s0, s1], size, 20_000):
                for h in [g, *[_compose(x, g) for x in extras]]:
                    h_table = _table(h)
                    fixes = _compose(coord_table, h) == coord
                    commutes = (_compose(h_table, shift)
                                == _compose(shift_table, h))
                    assert _fixes_seconds(h, coord, coord_table) == fixes
                    assert _commutes_with_shift(
                        h, h_table, shift, shift_table, wheel) == commutes
                    seen.add((fixes, commutes))
        assert seen == {(True, True), (True, False), (False, True),
                        (False, False)}

    def test_budget_messages_agree(self, monkeypatch):
        # 200 elements of 289 entries: the budget stops the larger closures
        monkeypatch.setattr(oracle, "CLOSURE_ENTRY_BUDGET", 200 * 289)
        tuples = _large_tuples(97)
        own = _outcomes(tuples)
        assert any("CLOSURE_ENTRY_BUDGET" in str(o) for o in own)
        _force_tuples(monkeypatch)
        assert _outcomes(tuples) == own


def _outcomes(tuples, caps=({"group_cap": 20_000},
                            {"group_cap": 20_000, "span_cap": 10},
                            {"group_cap": 50})):
    """check_structure's report under each of ``caps`` and group_order,
    for each tuple, or the CapExceeded message and partial count."""
    out = []
    for t in tuples:
        calls = [lambda c=c: check_structure(t, **c) for c in caps]
        calls.append(lambda: group_order(oracle.build_permutations(t), 20_000))
        for call in calls:
            try:
                out.append(call())
            except CapExceeded as e:
                out.append((str(e), e.partial))
    return out


@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_broken_pairs_above_the_threshold(monkeypatch, mutation):
    # fibre-keeping mutations read the clauses off fibre blocks; the two
    # that split a fibre fall back to tuples, and both match forced tuples
    _break(monkeypatch, mutation)
    tuples = [validate(entries, n) for entries, n in ABOVE_THRESHOLD[2:]]
    for t in tuples:
        packed, _, _ = _packed_pair(oracle.build_permutations(t))
        assert _fibred(packed) == (mutation not in FIBRE_SPLITTING)
    own = _outcomes(tuples, caps=({"group_cap": 20_000},))
    # swap_s1 makes a group past the cap from every row
    assert (any(isinstance(o, oracle.StructureReport) for o in own)
            or mutation == "swap_s1")
    _force_tuples(monkeypatch)
    assert _outcomes(tuples, caps=({"group_cap": 20_000},)) == own


# ---- the closure by cosets against breadth-first search ----

def _closure_bfs(generators, size, cap, name="group"):
    """All products of the generators, by breadth-first multiplication: the
    route the coset enumeration replaced, kept as its reference."""
    limit = min(cap, oracle.CLOSURE_ENTRY_BUDGET // size)
    seen = {_identity(generators[0])}
    frontier = list(seen)
    tables = [_table(g) for g in generators]
    while frontier:
        nxt = []
        for g in frontier:
            for table in tables:
                h = _compose(table, g)
                # one hash per product: a tuple does not cache its hash
                count = len(seen)
                seen.add(h)
                if len(seen) > count:
                    if count >= limit:
                        raise CapExceeded(
                            f"{name} closure exceeded cap {cap}"
                            if limit == cap else
                            f"{name} closure exceeded CLOSURE_ENTRY_BUDGET="
                            f"{oracle.CLOSURE_ENTRY_BUDGET} stored permutation "
                            f"entries ({limit} elements of {size} entries)",
                            partial=count)
                    nxt.append(h)
        frontier = nxt
    return seen


def _capped_pairs(mutation=None):
    """Each CAPPED pair, broken by ``mutation``, in the oracle's own encoding
    (bytes, or fibre blocks unless the mutation splits a fibre) and forced
    to tuples: (s0, s1, k, size, |G| of the true pair)."""
    for entries, n, order in TestEncodings.CAPPED:
        pp = build_permutations(validate(entries, n))
        if mutation:
            pp = PermutationPair(n, pp.k, *MUTATIONS[mutation](pp))
        for s0, s1, size in (_packed_pair(pp), _tuple_pair(pp)):
            yield s0, s1, pp.k, size, order


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_closure_matches_bfs(mutation):
    # the coset enumeration finds the set the breadth-first search finds,
    # whatever the generator order, with the identity or a repeat among
    # them, or the same message and partial count when the group outgrows
    # the cap, as swap_s1's groups do
    encodings = set()
    for s0, s1, k, size, _ in _capped_pairs(mutation):
        encodings.add("fibre" if _fibred(s0) else type(s0).__name__)
        for gens in ([s0, s1], [s1, s0], oracle._group_generators(s0, s1, k),
                     [_identity(s0), s1, s0, s1]):
            assert (_outcome(_closure, gens, size, 2000)
                    == _outcome(_closure_bfs, gens, size, 2000))
    assert encodings == ({"bytes", "tuple"} if mutation in FIBRE_SPLITTING
                         else {"bytes", "fibre", "tuple"})


def test_closure_caps_match_bfs(monkeypatch):
    # at every cap up to |G| + 1, and under a lowered entry budget, the
    # closure stops at the same count as the breadth-first search
    for s0, s1, k, size, order in _capped_pairs():
        for gens in ([s0, s1], oracle._group_generators(s0, s1, k)):
            outcomes = [_outcome(_closure, gens, size, cap, "span")
                        for cap in range(1, order + 2)]
            assert outcomes == [_outcome(_closure_bfs, gens, size, cap, "span")
                                for cap in range(1, order + 2)]
            assert outcomes[-2] == outcomes[-1] != outcomes[-3]
            for budget in (size - 1, size, size * 7 + 3, size * order):
                monkeypatch.setattr(oracle, "CLOSURE_ENTRY_BUDGET", budget)
                assert (_outcome(_closure, gens, size, 10**6)
                        == _outcome(_closure_bfs, gens, size, 10**6))
            monkeypatch.undo()


def _normal_halves(s0, s1, k, size):
    """Whether conjugating by sigma0, and by sigma1, maps every element of N
    into N, with N the closure of the pair generators sigma0^x sigma1^x."""
    rot_powers, s1_powers = _powers(s0, k), _powers(s1, k)
    pair_gens = [_mul(a, b) for a, b in zip(rot_powers[1:], s1_powers[1:])]
    N = _closure(pair_gens, size, 20_000, "span")
    return tuple([all(_mul(s, _mul(h, _inverse(s))) in N for h in N)
                  for s in (s0, s1)])


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_sigma1_normality_follows_from_sigma0(monkeypatch, mutation):
    # check_structure's "normal" conjugates by sigma0 alone; the sigma1 half
    # it leaves out is the reference, and on every pair, broken or not, and
    # every encoding it holds wherever the sigma0 half does
    if mutation:
        _break(monkeypatch, mutation)
    rng = random.Random(101)
    tuples = [random_algebraic(rng, k_lo=2, k_hi=4, n_lo=2, n_hi=6)
              for _ in range(12)]
    tuples += [validate(entries, n) for entries, n in ABOVE_THRESHOLD]
    encodings, seen = set(), set()
    for forced in (False, True):
        with monkeypatch.context() as m:
            if forced:
                m.setattr(oracle, "_packed_pair", _tuple_pair)
            for t in tuples:
                s0, s1, size = oracle._packed_pair(oracle.build_permutations(t))
                try:
                    rep = check_structure(t, group_cap=20_000)
                except CapExceeded:
                    continue
                s0_half, s1_half = _normal_halves(s0, s1, t.k, size)
                assert s1_half or not s0_half, (t, forced)
                assert rep.clauses["normal"] == s0_half, (t, forced)
                encodings.add("fibre" if _fibred(s0) else type(s0).__name__)
                seen.add((s0_half, s1_half))
    # only swap_s1 makes N not normal here, and then both halves fail
    assert seen == ({(True, True), (False, False)} if mutation == "swap_s1"
                    else {(True, True)})
    assert encodings == ({"bytes", "tuple"} if mutation in FIBRE_SPLITTING
                         else {"bytes", "fibre", "tuple"})


def _clauses_element_by_element(pp):
    """normal, translations_by_vectors, product_covers_group,
    conjugation_is_cyclic_shift, action_trivial and |N * <sigma0>| / |N|,
    each decided on every element of N, with N * <sigma0> enumerated: the
    reference for check_structure's generator and coset-count reads.  It
    works on plain tuples, whose hashes and so whose order over N are fixed.
    """
    n, k, size = pp.n, pp.k, pp.n * pp.k
    s0, s1 = tuple(pp.sigma0), tuple(pp.sigma1)
    rot_powers, s1_powers = _powers(s0, k), _powers(s1, k)
    pair_gens = [_mul(a, b) for a, b in zip(rot_powers[1:], s1_powers[1:])]
    G = _closure([s0, s1], size, 20_000)
    N = _closure(pair_gens, size, 20_000, "span")
    s0_inv = _inverse(s0)
    normal = translations = shift_ok = action_trivial = True
    product = set()
    for h in N:
        conj = _mul(s0, _mul(h, s0_inv))
        normal = normal and conj in N
        product.update([_mul(h, r) for r in rot_powers])
        v = [h[i] // k for i in range(k)]
        translations = translations and all(
            h[m * k + i] == (m + v[i]) % n * k + i
            for m in range(n) for i in range(k))
        if shift_ok:
            rotated = v[-1:] + v[:-1]
            if conj not in N or [conj[i] // k for i in range(k)] != rotated:
                shift_ok = False
            elif rotated != v:
                action_trivial = False
    if not translations:
        shift_ok, action_trivial = False, True
    return (normal, translations, product == G, shift_ok, action_trivial,
            len(product) // len(N))


def _invert_both(pp):
    # N is the same span, but sigma0^-1 rotates its vectors the other way
    return _inverse(tuple(pp.sigma0)), _inverse(tuple(pp.sigma1))


def _negate_s1(pp):
    # sigma1, then m -> -m: each pair generator fixes every second
    # coordinate, but sigma0^x sigma1^x at odd x moves first coordinates by
    # m -> c - m
    n, k = pp.n, pp.k
    return pp.sigma0, tuple([-(y // k) % n * k + y % k for y in pp.sigma1])


# hand-built pairs that keep fibres whole and reach the generator reads'
# remaining branches
GENERATOR_CASES = {"invert_both": _invert_both, "negate_s1": _negate_s1}


@pytest.mark.parametrize("mutation", [None, *MUTATIONS, *GENERATOR_CASES])
def test_generator_and_coset_reads_match_every_element(monkeypatch,
                                                       mutation):
    # check_structure decides normal, the translations and the conjugation
    # action on N's generators, and the product by |N| * d0 = |G|; on every
    # pair, broken or not, and every encoding each must read what the
    # element-by-element reference reads.  s1_is_s0 on [6, 5, 6, 4] mod 7
    # puts sigma0^2 in N (d0 = 2 < k), and swap_s1 on [3, 2] mod 5 makes
    # N * <sigma0> smaller than G.  Where N's elements are translations but
    # a conjugate fails the clause (invert_both at k >= 3), action_trivial
    # depends on the order of the scan, so it is compared everywhere else.
    real = build_permutations
    if mutation:
        broken = {**MUTATIONS, **GENERATOR_CASES}[mutation]
        monkeypatch.setattr(oracle, "build_permutations",
                            lambda t: PermutationPair(
                                t.modulus, t.k, *broken(real(t))))
    rng = random.Random(103)
    tuples = [random_algebraic(rng, k_lo=2, k_hi=4, n_lo=2, n_hi=6)
              for _ in range(12)]
    tuples += [validate(entries, n) for entries, n in
               [([6, 5, 6, 4], 7), ([3, 2], 5), *ABOVE_THRESHOLD]]
    encodings, seen = set(), set()
    for forced in (False, True):
        with monkeypatch.context() as m:
            if forced:
                m.setattr(oracle, "_packed_pair", _tuple_pair)
            for t in tuples:
                pp = oracle.build_permutations(t)
                try:
                    rep = check_structure(t, group_cap=20_000)
                except CapExceeded:
                    continue
                *want, d0 = _clauses_element_by_element(pp)
                got = [rep.clauses[c] for c in
                       ("normal", "translations_by_vectors",
                        "product_covers_group",
                        "conjugation_is_cyclic_shift")]
                scan_order = want[1] and not want[3]
                assert got == want[:4], (t, forced)
                assert rep.action_trivial == want[4] or scan_order, (t, forced)
                s0 = oracle._packed_pair(pp)[0]
                encodings.add("fibre" if _fibred(s0) else type(s0).__name__)
                seen.update([("d0 < k", d0 < t.k), ("product", want[2]),
                             ("scan order", scan_order)])
    assert encodings == ({"bytes", "tuple"} if mutation in FIBRE_SPLITTING
                         else {"bytes", "fibre", "tuple"})
    if mutation == "s1_is_s0":
        assert ("d0 < k", True) in seen
    if mutation == "swap_s1":
        assert ("product", False) in seen
    # only the hand-built pairs reach the scan-order case
    if mutation == "invert_both":
        assert ("scan order", True) in seen
    if mutation not in GENERATOR_CASES:
        assert ("scan order", True) not in seen


@pytest.mark.parametrize("entries,n,fibred", [
    ([1, 254], 255, True),
    ([1, 255], 256, True),
    ([1, 256], 257, False),     # n > 256
    ([1] * 40, 8, True),
    ([1] * 42, 7, False),       # n < 8
    ([1] * 300, 2, False),      # k > 256
])
def test_encoding_boundaries(entries, n, fibred):
    t = validate(entries, n)
    s0, s1, _ = _packed_pair(build_permutations(t))
    assert _fibred(s0) == _fibred(s1) == fibred
    order = group_of(t).order
    assert group_order(build_permutations(t)) == order
    rep = check_structure(t)
    assert rep.passed
    assert (rep.group_order, rep.translation_order) == (order, order // t.k)


@pytest.mark.parametrize("entries,n", ABOVE_THRESHOLD)
def test_check_structure_above_bytes_threshold(entries, n):
    k = len(entries)
    assert n * k > 256
    if k == 3:
        desc = triangle_closed_form(*entries, n)
    elif k == 4:
        desc = quadrilateral_closed_form(*entries, n)
    else:
        desc = group_of(validate(entries, n))
    rep = check_structure(validate(entries, n))
    assert rep.passed
    assert rep.group_order == desc.order
    assert rep.translation_order == desc.order // k
    assert rep.action_trivial == (len(set(entries)) == 1)
