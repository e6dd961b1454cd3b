import random
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from billiard_monodromy import (
    GroupDescriptor,
    enumerate_algebraic,
    enumerate_geometric,
    from_tuple,
    gcd_poly,
    group_of,
    merge_invariant_factors,
    quadrilateral_closed_form,
    regular_kgon,
    scale_associate,
    triangle_closed_form,
    validate,
    xk_minus_1,
)
from billiard_monodromy import monodromy
from billiard_monodromy.errors import PreconditionFailed
from billiard_monodromy.exactla import circulant, invariant_factors_mod, smith_normal_form
from billiard_monodromy.monodromy import (
    _canonical_deltas,
    _quadrilateral_deltas,
    _triangle_deltas,
    deltas_of,
)
from billiard_monodromy.numtheory import is_prime, prime_factorization
from billiard_monodromy.polygon import PolygonTuple
from conftest import random_algebraic


class TestGroupOf:
    @pytest.mark.parametrize("entries,n,deltas,k", [
        ([2, 2, 2, 4], 5, (5, 5, 5), 4),
        ([1, 2, 4], 7, (7,), 3),
        ([1, 2, 24, 23], 25, (25, 5), 4),
        ([22, 23, 18, 22, 2, 18, 8, 2, 32, 8, 23, 32], 35, (35, 5), 12),
    ])
    def test_worked_examples(self, entries, n, deltas, k):
        desc = group_of(validate(entries, n))
        assert (desc.n, desc.k, desc.deltas) == (n, k, deltas)
        assert desc.order == k * prod(deltas)

    def test_action_flags(self):
        assert group_of(validate([1, 1, 1], 3)).trivial_action is True
        assert group_of(validate([2, 2, 2, 4], 5)).trivial_action is False

    def test_action_unset_above_cap(self):
        # span 101^2 exceeds the fixed 10^4 action cap
        assert group_of(validate([1, 1, 99], 101)).trivial_action is None

    def test_descriptor_comparison_ignores_action(self):
        a = GroupDescriptor(5, 4, (5, 5), trivial_action=None)
        b = GroupDescriptor(5, 4, (5, 5), trivial_action=False)
        assert a == b and hash(a) == hash(b)

    def test_pretty(self):
        assert group_of(validate([2, 2, 2, 4], 5)).pretty() == "(C5 x C5 x C5) : C4"


class TestTriangleClosedForm:
    @pytest.mark.parametrize("entries,n,deltas", [
        ((1, 1, 4), 6, (6, 2)),
        ((4, 5, 1), 10, (10, 10)),
        ((1, 1, 79), 81, (81, 27)),
        ((1, 2, 78), 81, (81, 81)),
    ])
    def test_examples(self, entries, n, deltas):
        assert triangle_closed_form(*entries, n).deltas == deltas

    def test_statement_vs_proof_alpha(self):
        # gcd(n, a0*a1 - a2^2) and gcd(n, a0*a2 - a1^2) agree whenever the
        # entries sum to 0 mod n
        rng = random.Random(47)
        for _ in range(500):
            n = rng.randint(2, 60)
            a0, a1 = rng.randrange(n), rng.randrange(n)
            a2 = (-a0 - a1) % n + n * rng.randint(0, 2)
            assert gcd(n, a0 * a1 - a2 * a2) == gcd(n, a0 * a2 - a1 * a1)

    def test_matches_general_route(self):
        for n in range(3, 26):
            for t in enumerate_geometric(3, n):
                a0, a1, a2 = t.entries
                assert triangle_closed_form(a0, a1, a2, n).deltas == deltas_of(t)


class TestQuadrilateralClosedForm:
    @pytest.mark.parametrize("entries,n,deltas", [
        ((2, 2, 2, 4), 5, (5, 5, 5)),
        ((1, 4, 4, 1), 5, (5, 5)),
        ((1, 2, 24, 23), 25, (25, 5)),
    ])
    def test_examples(self, entries, n, deltas):
        assert quadrilateral_closed_form(*entries, n).deltas == deltas

    def test_degenerate_minor_gcd(self):
        # all six minors vanish mod 2, forcing the d3 = n convention
        assert quadrilateral_closed_form(1, 1, 1, 1, 2).deltas == (2,)

    def test_matches_general_route(self):
        for n in range(3, 9):
            for t in enumerate_geometric(4, n):
                a0, a1, a2, a3 = t.entries
                assert quadrilateral_closed_form(a0, a1, a2, a3, n).deltas == deltas_of(t)


@pytest.mark.parametrize("k,lo,hi", [
    (3, 2, 37),
    (4, 2, 11),
    pytest.param(3, 38, 100, marks=pytest.mark.slow),
    pytest.param(4, 12, 31, marks=pytest.mark.slow),
])
def test_closed_form_cores_match_general_route(k, lo, hi):
    # every algebraic tuple, zero entries included, at each prime power q in
    # [lo, hi]: the composite search's candidates at its default cap
    core = {3: _triangle_deltas, 4: _quadrilateral_deltas}[k]
    for q in range(lo, hi + 1):
        if len(prime_factorization(q)) != 1:
            continue
        for t in enumerate_algebraic(k, q):
            assert core(*t.entries, q) == deltas_of(t), t


@st.composite
def algebraic_tuples(draw, k_min, k_max, n_max=2000):
    # free residues mixed with 1, -1, n/2 and n/3, so that periodic and
    # cyclotomic patterns, where the local groups shrink, turn up too
    k = draw(st.integers(k_min, k_max))
    n = draw(st.integers(2, n_max))
    entry = st.one_of(st.integers(0, n - 1),
                      st.sampled_from(sorted({1, n - 1, n // 2, n // 3})))
    entries = draw(st.lists(entry, min_size=k - 1, max_size=k - 1))
    entries.append(-sum(entries) % n)
    assume(any(entries) and gcd(*entries, n) == 1)
    return validate(entries, n, "algebraic")


class TestRouteProperties:
    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(algebraic_tuples(2, 8))
    def test_integer_snf_matches_deltas(self, t):
        n = t.modulus
        divisors = smith_normal_form(circulant(t)).divisors
        assert _canonical_deltas([n // gcd(d, n) for d in divisors]) == deltas_of(t)

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(algebraic_tuples(3, 4, n_max=10**6))
    def test_closed_forms_match_deltas(self, t):
        form = {3: triangle_closed_form, 4: quadrilateral_closed_form}[t.k]
        assert form(*t.entries, t.modulus).deltas == deltas_of(t)


class TestRegularKgon:
    @pytest.mark.parametrize("k,delta", [(3, 3), (4, 2), (5, 5), (6, 3), (7, 7), (8, 4), (12, 6)])
    def test_direct_product(self, k, delta):
        desc = regular_kgon(k)
        assert desc.deltas == (delta,)
        assert desc.k == k
        assert desc.trivial_action is True
        assert desc.order == delta * k

    def test_too_small(self):
        with pytest.raises(PreconditionFailed):
            regular_kgon(2)


def test_associates_share_descriptor():
    rng = random.Random(53)
    for _ in range(500):
        t = random_algebraic(rng, k_lo=3, k_hi=6, n_lo=3, n_hi=25)
        n = t.modulus
        c = rng.choice([c for c in range(1, n) if gcd(c, n) == 1])
        assert deltas_of(scale_associate(t, c)) == deltas_of(t)


def test_prime_case_rank_identity():
    # for prime modulus p with p not dividing k the deltas are p repeated
    # k - d times, d the degree of gcd(f, x^k - 1)
    rng = random.Random(59)
    checked = 0
    while checked < 200:
        t = random_algebraic(rng, k_lo=2, k_hi=6, n_lo=2, n_hi=23)
        p = t.modulus
        if not is_prime(p) or t.k % p == 0:
            continue
        d = gcd_poly(from_tuple(t, p), xk_minus_1(t.k, p)).degree
        assert deltas_of(t) == (p,) * (t.k - d)
        checked += 1


def test_merge_invariant_factors():
    assert merge_invariant_factors((5, 5), (6, 6)) == (30, 30)
    assert merge_invariant_factors((25, 5), ()) == (25, 5)
    assert merge_invariant_factors((4,), (3,), (5,)) == (60,)
    assert merge_invariant_factors((2, 2), (9, 3)) == (18, 6)


# ---- the gcd routes of deltas_of against modular elimination ----

ROUTE_PRIMES = [p for p in range(2, 200) if is_prime(p)] + [10007, 999983]


def _route_moduli(rng, k):
    """A prime not dividing k, the least prime q | k, q^e, p^e for a prime p
    not dividing k, and a composite with several prime powers."""
    q = min(prime_factorization(k))
    p = next(p for p in ROUTE_PRIMES if k % p)
    return (rng.choice([r for r in ROUTE_PRIMES if k % r]), q,
            q ** rng.randint(2, 4), p ** rng.randint(2, 4),
            rng.choice([720720, 10080, 360]))


def _divisor(rng, n):
    return prod(p ** rng.randint(0, e) for p, e in prime_factorization(n).items())


def _zero_sum(rng, n, length):
    a = [rng.randrange(n) for _ in range(length)]
    a[-1] = (a[-1] - sum(a)) % n
    return a


def _route_entries(family, rng, k, n):
    if family == "random":
        return _zero_sum(rng, n, k)
    if family == "periodic":
        # period d | k: a(x) is a multiple of (x^k - 1) / (x^d - 1)
        d = rng.choice([d for d in range(1, k) if k % d == 0])
        block = _zero_sum(rng, n, d) if d > 1 else [rng.randrange(n)]
        return block * (k // d)
    if family == "cyclotomic":
        # a(x) = (x^j - 1) b(x) mod x^k - 1 shares x^gcd(j, k) - 1 with x^k - 1
        j = rng.randint(1, k - 1)
        a = [0] * k
        for i in range(k):
            c = rng.randrange(n)
            a[(i + j) % k] += c
            a[i] -= c
        return [x % n for x in a]
    if family == "equal":
        c = rng.randrange(n)
        return [c * n // gcd(n, k) % n if rng.random() < 0.5 else c] * k
    if family == "multiple":
        m = _divisor(rng, n)
        return [m * x % n for x in _zero_sum(rng, n, k)]
    if family == "raw":
        # sums off 0 mod n, some to a divisor of n so that v_p(a(1)) lies
        # strictly between 0 and e
        a = [rng.randrange(n) for _ in range(k)]
        if rng.random() < 0.5:
            a[-1] = (a[-1] - sum(a) + _divisor(rng, n)) % n
        return a
    if family == "block":
        # a = Phi_d(x) b(x) mod (x^k - 1, n) for d | m, m the p-free part of
        # k at a prime p of n, so that block d of deltas_of is not a unit;
        # p is taken from the primes with e >= 2, the block route, if any
        pe = prime_factorization(n)
        p = rng.choice([p for p in sorted(pe) if pe[p] > 1] or sorted(pe))
        m = k
        while m % p == 0:
            m //= p
        # d > 1 when m > 1: the zero-sum families already cover d = 1
        phi = monodromy._cyclotomic(
            rng.choice([d for d in range(2, m + 1) if m % d == 0] or [1]))
        b = [rng.randrange(n) for _ in range(k)]
        a = [0] * k
        for i, c in enumerate(phi):
            for j, x in enumerate(b):
                a[(i + j) % k] += c * x
        return [x % n for x in a]
    raise ValueError(family)


ROUTE_FAMILIES = ("random", "periodic", "cyclotomic", "equal", "multiple", "raw",
                  "block")


@pytest.mark.parametrize("family", ROUTE_FAMILIES)
def test_deltas_of_matches_elimination(family):
    rng = random.Random(f"deltas-route-{family}")
    for k in range(2, 34):
        for n in _route_moduli(rng, k):
            t = PolygonTuple(tuple(_route_entries(family, rng, k, n)), n)
            assert deltas_of(t) == _canonical_deltas(
                [n // d for d in invariant_factors_mod(circulant(t), n)]), t


@pytest.mark.parametrize("entries,n,eliminated", [
    ([1] * 31 + [720689], 720720, [(16, 32)]),  # k = 2^5: the whole circulant
    ([1, 2, 4, 999976], 999983, []),            # e = 1: one gcd
    ([1, 2, 3, 19], 25, []),                    # 5 does not divide k, gcd 1
    # a = 0 mod 5: blocks x - 1 and x + 1 are gcd(a(1), 25) and
    # gcd(a(-1), 25), x^2 + 1 reduced
    ([5, 5, 5, 10], 25, [(25, 2)]),
    ([1, 2, 3, 2], 8, [(8, 4)]),                # k = 2^2: the whole circulant
    # k = 3 * 4, every d > 1 block a unit: the 3 x 3 fold alone
    ([1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 5], 9, [(9, 3)]),
    # k = 3 * 4, a = 0 mod (3, x^4 - 1): blocks d = 1, 2, 4 of ranks 3, 3, 6
    ([1] * 11 + [7], 9, [(9, 3), (9, 3), (9, 6)]),
    # k = 8 * 3, a = 0 mod (2, x^3 - 1): blocks d = 1, 3 of ranks 8, 16
    (list(range(1, 24)) + [12], 16, [(16, 8), (16, 16)]),
    # k = 6, a(-1) = -15: block x + 1 gives 5, the others are units
    ([1, 1, 1, 1, 3, 18], 25, []),
])
def test_deltas_of_eliminates_only_unsettled_prime_powers(
        monkeypatch, entries, n, eliminated):
    seen = []

    def spy(A, m):
        seen.append((m, len(A)))
        return invariant_factors_mod(A, m)

    monkeypatch.setattr(monodromy, "invariant_factors_mod", spy)
    t = PolygonTuple(tuple(entries), n)
    assert deltas_of(t) == _canonical_deltas(
        [n // d for d in invariant_factors_mod(circulant(t), n)])
    assert sorted(seen) == eliminated


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def test_cyclotomic_products_are_xk_minus_1():
    for k in range(1, 65):
        prod_phi = [1]
        for d in range(1, k + 1):
            if k % d == 0:
                prod_phi = _poly_mul(prod_phi, monodromy._cyclotomic(d))
        assert prod_phi == [-1] + [0] * (k - 1) + [1], k


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_cyclotomic_of_x_to_the_p_s_is_a_power_mod_p(p):
    # Phi_d(x^(p^s)) = Phi_d(x)^(p^s) mod p, the blocks' repeated roots
    ps = 1
    while ps <= 32:
        for d in range(1, 25):
            if d % p == 0:
                continue
            phi = monodromy._cyclotomic(d)
            spread = [0] * ((len(phi) - 1) * ps + 1)
            spread[::ps] = phi
            power = [1]
            for _ in range(ps):
                power = _poly_mul(power, phi)
            assert [x % p for x in spread] == [x % p for x in power], (d, ps)
        ps *= p
