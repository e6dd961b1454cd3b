import dataclasses
import random
from math import gcd

import pytest

from billiard_monodromy import (
    enumerate_algebraic,
    enumerate_geometric,
    find_convex_associate,
    find_geometric_associate,
    pad_to_geometric,
    scale_associate,
    validate,
)
from billiard_monodromy.errors import (
    AllZero,
    CNotUnit,
    EntryOutOfRange,
    GcdNotOne,
    KTooSmall,
    PreconditionFailed,
    SumMismatch,
)
from billiard_monodromy.polygon import PolygonTuple, _scaling_unit
from conftest import random_geometric


class TestValidate:
    def test_equilateral_triangle(self):
        t = validate([1, 1, 1], 3, "geometric")
        assert t.entries == (1, 1, 1) and t.modulus == 3 and t.geometric

    def test_quadrilateral_example(self):
        t = validate([2, 2, 2, 4], 5, "geometric")
        assert sum(t.entries) == (4 - 2) * 5

    def test_zero_entry_geometric_rejected_but_algebraic_ok(self):
        with pytest.raises(EntryOutOfRange):
            validate([1, 1, 0], 2, "geometric")
        t = validate([1, 1, 0], 2, "algebraic")
        assert t.entries == (1, 1, 0)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            validate([0, 0, 0], 5, "algebraic")
        with pytest.raises(AllZero):
            validate([5, 5, 5], 5, "algebraic")

    def test_sum_mismatch(self):
        with pytest.raises(SumMismatch):
            validate([1, 1, 2], 3, "geometric")
        with pytest.raises(SumMismatch):
            validate([1, 1, 2], 3, "algebraic")

    def test_gcd_clause(self):
        with pytest.raises(GcdNotOne):
            validate([2, 2, 4], 8, "algebraic")
        with pytest.raises(GcdNotOne):
            validate([2, 2, 2, 2], 4, "geometric")

    def test_k_too_small(self):
        with pytest.raises(KTooSmall):
            validate([1, 1], 2, "geometric")
        with pytest.raises(KTooSmall):
            validate([1], 1, "algebraic")

    def test_entry_equal_n_rejected(self):
        with pytest.raises(EntryOutOfRange):
            validate([5, 2, 2, 6], 5, "geometric")

    def test_entry_too_large_rejected(self):
        with pytest.raises(EntryOutOfRange):
            validate([10, 2, 2, 1], 5, "geometric")

    def test_negative_entry_rejected(self):
        with pytest.raises(EntryOutOfRange, match="^entry a_1=-1 is negative$"):
            validate([4, -1, 2], 5, "algebraic")

    def test_algebraic_reduces_entries(self):
        t = validate([3, 5, 11, 1], 10, "algebraic")
        assert t.entries == (3, 5, 1, 1)

    def test_geometric_keeps_literal_entries(self):
        t = validate([13, 2, 2, 7], 12, "geometric")
        assert t.entries == (13, 2, 2, 7)

    def test_tuple_has_slots_and_stays_frozen(self):
        # a census holds about 10^5 tuples, so none carries a __dict__
        t = validate([2, 2, 2, 4], 5, "geometric")
        assert not hasattr(t, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.modulus = 7


class TestScaleAssociate:
    def test_scaling_example(self):
        t = validate([6, 5, 9], 10)
        assert scale_associate(t, 9).entries == (4, 5, 1)

    def test_identity_scaling_reduces(self):
        t = validate([13, 2, 2, 7], 12, "geometric")
        assert scale_associate(t, 1).entries == (1, 2, 2, 7)

    def test_associate_pair_same_reduction(self):
        a = validate([3, 5, 11, 1], 10)
        b = validate([3, 15, 1, 1], 10)
        assert a.entries == b.entries == (3, 5, 1, 1)

    def test_non_unit_rejected(self):
        with pytest.raises(CNotUnit):
            scale_associate(validate([6, 5, 9], 10), 5)

    def test_roundtrip_inverse(self):
        rng = random.Random(11)
        for _ in range(300):
            t = random_geometric(rng)
            n = t.modulus
            c = rng.choice([c for c in range(1, n) if gcd(c, n) == 1])
            cinv = pow(c, -1, n)
            assert scale_associate(scale_associate(t, c), cinv).entries == t.residues()


class TestGeometricAssociate:
    def test_padding_example(self):
        t = validate([1, 2, 2, 7], 12)
        assert find_geometric_associate(t).entries == (13, 2, 2, 7)

    def test_scaling_example(self):
        t = validate([6, 5, 9], 10)
        assert find_geometric_associate(t).entries == (4, 5, 1)

    def test_zero_entry_has_no_associate(self):
        assert find_geometric_associate(validate([1, 1, 0], 2)) is None
        assert find_geometric_associate(validate([1, 0, 4], 5)) is None

    def test_padding_refusals(self):
        # k < 3, and a residue sum 15 above (k - 2) n = 10
        assert pad_to_geometric(validate([1, 2], 3)) is None
        assert pad_to_geometric(validate([4, 4, 4, 3], 5)) is None

    @pytest.mark.parametrize("k,lo,hi", [
        (3, 2, 40),
        (4, 2, 20),
        pytest.param(4, 21, 40, marks=pytest.mark.slow),
    ])
    def test_zero_entry_matches_unit_scan(self, k, lo, hi):
        # slow route: try every unit multiple for a paddable one
        for n in range(lo, hi + 1):
            units = [c for c in range(1, n) if gcd(c, n) == 1]
            for t in enumerate_algebraic(k, n):
                if all(t.entries):
                    continue
                assert find_geometric_associate(t) is None
                assert not any(pad_to_geometric(scale_associate(t, c))
                               for c in units), t

    def test_output_is_unit_multiple(self):
        rng = random.Random(13)
        for _ in range(200):
            t = random_geometric(rng)
            out = find_geometric_associate(t)
            assert out is not None and out.geometric
            n = t.modulus
            units = [c for c in range(1, n) if gcd(c, n) == 1]
            assert any(
                out.residues() == tuple(c * a % n for a in t.residues())
                for c in units)

    def test_scaling_unit_matches_unit_scan(self):
        # slow route: the first unit c with c*a = gcd(a, n) mod n
        for n in range(2, 201):
            for a in range(1, n):
                slow = next(c for c in range(1, n)
                            if gcd(c, n) == 1 and c * a % n == gcd(a, n))
                assert _scaling_unit(a, n) == slow, (a, n)


class TestConvexAssociate:
    def test_already_convex_triangle(self):
        t = validate([1, 2, 4], 7)
        out = find_convex_associate(t, 7)
        assert sum(out.entries) == 7 and all(0 < a < 7 for a in out.entries)

    def test_equilateral_unchanged(self):
        assert find_convex_associate(validate([1, 1, 1], 3), 3).entries == (1, 1, 1)

    def test_quadrilateral_unchanged(self):
        t = validate([4, 4, 1, 1], 5)
        assert find_convex_associate(t, 5).entries == (4, 4, 1, 1)

    def test_preconditions(self):
        with pytest.raises(PreconditionFailed):
            find_convex_associate(validate([1, 0, 4], 5), 5)
        with pytest.raises(PreconditionFailed):
            # p = 3 < k - 1 = 4
            find_convex_associate(validate([1, 1, 1, 1, 2], 3), 3)

    def test_random_prime_tuples(self):
        # a convex associate always exists for k <= 5
        rng = random.Random(17)
        for _ in range(150):
            p = rng.choice([5, 7, 11, 13])
            k = rng.randint(3, min(p + 1, 5))
            while True:
                entries = [rng.randint(1, p - 1) for _ in range(k - 1)]
                last = -sum(entries) % p
                if last:
                    entries.append(last)
                    break
            t = validate(entries, p)
            out = find_convex_associate(t, p)
            assert out is not None
            assert all(0 < a < p for a in out.entries)
            assert sum(out.entries) == (k - 2) * p
            units = [c for c in range(1, p)]
            assert any(out.entries == tuple(c * a % p for a in t.residues())
                       for c in units)

    def test_hexagon_without_convex_associate(self):
        # every unit multiple of (1,1,1,4,4,4) mod 5 has angle sum 3*pi, so
        # no scaling reaches the convex sum 4*pi
        t = validate([1, 1, 1, 4, 4, 4], 5)
        assert find_convex_associate(t, 5) is None


def test_geometric_implies_algebraic():
    rng = random.Random(19)
    for _ in range(1000):
        t = random_geometric(rng)
        validate(t.entries, t.modulus, "algebraic")


def test_enumerations_agree_with_validate():
    geos = list(enumerate_geometric(3, 6))
    assert all(g.geometric for g in geos)
    assert validate([1, 1, 4], 6, "geometric") in geos
    algs = list(enumerate_algebraic(3, 2))
    assert sorted(t.entries for t in algs) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    # mod 3 the single geometric triangle
    assert [t.entries for t in enumerate_geometric(3, 3)] == [(1, 1, 1)]


def _enumerate_geometric_recursive(k, n):
    # the recursive enumeration the odometer loop replaced, kept as the
    # reference; it nests one generator per entry, so k stays small
    def rec(prefix, remaining, slots):
        if slots == 1:
            a = remaining
            if 1 <= a < 2 * n and a != n and gcd(*prefix, a, n) == 1:
                yield PolygonTuple(tuple(prefix) + (a,), n, geometric=True)
            return
        lo = max(1, remaining - (slots - 1) * (2 * n - 1))
        hi = min(2 * n - 1, remaining - (slots - 1))
        for a in range(lo, hi + 1):
            if a == n:
                continue
            yield from rec(prefix + [a], remaining - a, slots - 1)

    if k >= 3:
        yield from rec([], (k - 2) * n, k)


def test_geometric_enumeration_matches_the_recursive_reference():
    # every census cell lies on this grid: same tuples, same order
    grid = [(k, n) for k in range(-1, 6) for n in range(-2, 13)]
    grid += [(6, n) for n in range(-2, 8)]
    for k, n in grid:
        assert (list(enumerate_geometric(k, n))
                == list(_enumerate_geometric_recursive(k, n))), (k, n)


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_algebraic_enumeration_needs_two_entries(k):
    for n in (0, 3, 5):
        assert list(enumerate_algebraic(k, n)) == []
