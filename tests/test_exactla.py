import random
from math import gcd

import pytest

from billiard_monodromy import circulant, minor_gcd, rank_mod_p, smith_normal_form, validate
from billiard_monodromy.errors import JOutOfRange, PNotPrime
from billiard_monodromy.exactla import det, identity, invariant_factors_mod, mat_mul


def random_matrix(rng, max_dim=6, max_entry=50):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(-max_entry, max_entry) for _ in range(cols)]
            for _ in range(rows)]


def assert_snf_contract(A):
    res = smith_normal_form(A)
    assert mat_mul(mat_mul(res.U, res.D), res.V) == A
    assert det(res.U) in (1, -1)
    assert det(res.V) in (1, -1)
    divs = res.divisors
    assert all(d >= 0 for d in divs)
    for a, b in zip(divs, divs[1:]):
        assert b % a == 0 if a else b == 0
    return res


class TestCirculant:
    def test_worked_example(self):
        C = circulant(validate([2, 2, 2, 4], 5))
        assert C[0] == [2, 4, 2, 2]
        assert [row[0] for row in C] == [2, 2, 2, 4]

    def test_three_by_three_layout(self):
        C = circulant(validate([1, 2, 4], 7))
        assert C == [[1, 4, 2], [2, 1, 4], [4, 2, 1]]

    def test_regular_tuple_is_constant(self):
        C = circulant(validate([1, 1, 1, 1], 2))
        assert all(x == 1 for row in C for x in row)


class TestSmithNormalForm:
    def test_worked_example_divisors(self):
        res = assert_snf_contract(circulant(validate([2, 2, 2, 4], 5)))
        assert res.divisors == (2, 2, 2, 10)

    def test_identity(self):
        assert smith_normal_form(identity(4)).divisors == (1, 1, 1, 1)

    def test_zero_matrix(self):
        assert smith_normal_form([[0] * 3 for _ in range(3)]).divisors == (0, 0, 0)

    def test_rectangular(self):
        res = assert_snf_contract([[2, 4, 6], [4, 8, 12]])
        assert res.divisors == (2, 0)

    def test_random_contract(self):
        rng = random.Random(23)
        for _ in range(120):
            assert_snf_contract(random_matrix(rng))

    def test_minor_gcd_identity(self):
        rng = random.Random(29)
        for _ in range(60):
            A = random_matrix(rng, max_dim=5, max_entry=9)
            divs = smith_normal_form(A).divisors
            acc = 1
            for j, d in enumerate(divs, start=1):
                acc *= d
                assert acc == minor_gcd(A, j)


class TestMinorGcd:
    def test_entries_gcd(self):
        C = circulant(validate([2, 2, 2, 4], 5))
        assert minor_gcd(C, 1) == 2

    def test_triangle_two_by_two(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(3, 20)
            a0 = rng.randint(1, n - 2)
            a1 = rng.randint(1, n - a0 - 1)
            a2 = n - a0 - a1
            if gcd(a0, a1, a2, n) != 1:
                continue
            C = circulant(validate([a0, a1, a2], n))
            d = smith_normal_form(C).divisors
            assert minor_gcd(C, 2) == abs(d[0] * d[1])

    def test_one_by_one_minors_are_entries(self):
        rng = random.Random(33)
        for _ in range(40):
            A = random_matrix(rng, max_dim=5, max_entry=40)
            flat = [x for row in A for x in row]
            expected = 0
            for x in flat:
                expected = gcd(expected, x)
            assert minor_gcd(A, 1) == expected

    def test_j_out_of_range(self):
        with pytest.raises(JOutOfRange):
            minor_gcd([[1, 2], [3, 4]], 3)


class TestRankModP:
    def test_gcd_degree_example(self):
        assert rank_mod_p(circulant(validate([1, 2, 4], 7)), 7) == 1

    def test_identity_full_rank(self):
        assert rank_mod_p(identity(5), 3) == 5

    def test_worked_example(self):
        assert rank_mod_p(circulant(validate([2, 2, 2, 4], 5)), 5) == 3

    def test_not_prime(self):
        with pytest.raises(PNotPrime):
            rank_mod_p(identity(2), 6)

    def test_rank_counts_nonzero_divisors(self):
        rng = random.Random(37)
        for _ in range(80):
            A = random_matrix(rng, max_dim=5, max_entry=20)
            divs = smith_normal_form(A).divisors
            for p in (2, 3, 5, 7):
                assert rank_mod_p(A, p) == sum(1 for d in divs if d % p != 0)


def test_local_divisors_match_integer_snf():
    rng = random.Random(41)
    for _ in range(150):
        A = random_matrix(rng, max_dim=5, max_entry=30)
        n = rng.randint(2, 60)
        divs = smith_normal_form(A).divisors
        assert invariant_factors_mod(A, n) == tuple(gcd(d, n) for d in divs)
    # a 12 x 12 circulant, large enough to be a real workout for both routes
    C = circulant(validate([22, 23, 18, 22, 2, 18, 8, 2, 32, 8, 23, 32], 35))
    divs = smith_normal_form(C).divisors
    assert invariant_factors_mod(C, 35) == tuple(gcd(d, 35) for d in divs)

