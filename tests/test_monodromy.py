import random
from math import gcd, prod

import pytest

from billiard_monodromy import (
    GroupDescriptor,
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
from billiard_monodromy.errors import PreconditionFailed
from billiard_monodromy.monodromy import deltas_of
from billiard_monodromy.numtheory import is_prime, units
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
        c = rng.choice(list(units(n)))
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
