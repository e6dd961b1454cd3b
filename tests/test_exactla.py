import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from billiard_monodromy import circulant, exactla, minor_gcd, rank_mod_p, smith_normal_form, validate
from billiard_monodromy.errors import CapExceeded, JOutOfRange, PNotPrime
from billiard_monodromy.exactla import det, identity, invariant_factors_mod
from conftest import mat_mul


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

    @pytest.mark.parametrize("rows,cols", [(17, 17), (18, 17), (17, 40)])
    def test_dimension_cap(self, rows, cols, monkeypatch):
        # refused before U or V is built
        monkeypatch.setattr(exactla, "identity", None)
        with pytest.raises(CapExceeded) as exc:
            smith_normal_form([[1] * cols for _ in range(rows)])
        assert str(exc.value) == (f"Smith normal form of a {rows} x {cols} "
                                  "matrix exceeds SNF_DIM_CAP=16")

    @pytest.mark.parametrize("rows,cols", [(16, 16), (40, 16), (2, 17)])
    def test_dimension_cap_admits_the_cap(self, rows, cols):
        A = [[int(i == j) for j in range(cols)] for i in range(rows)]
        assert smith_normal_form(A).divisors == (1,) * min(rows, cols)

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


def _floor_quotient_divisors(A):
    # slow route: repeated floor-quotient row and column reductions, swapping
    # the remainder into the pivot, with the same pivot choice, culprit row
    # addition and sign fix; its entries grow with every swap, so D only
    D = [row[:] for row in A]
    rows, cols = len(D), len(D[0])
    limit = min(rows, cols)
    for t in range(limit):
        nonzero = [(abs(D[i][j]), i, j) for i in range(t, rows)
                   for j in range(t, cols) if D[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        D[t], D[pi] = D[pi], D[t]
        for r in D:
            r[t], r[pj] = r[pj], r[t]
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    D[i] = [x - q * y for x, y in zip(D[i], D[t])]
                    if D[i][t]:
                        D[i], D[t] = D[t], D[i]
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    for r in D:
                        r[j] -= q * r[t]
                    if D[t][j]:
                        for r in D:
                            r[t], r[j] = r[j], r[t]
                        dirty = True
            if dirty:
                continue
            culprit = next(
                (i for i in range(t + 1, rows)
                 if any(D[i][j] % D[t][t] for j in range(t + 1, cols))),
                None)
            if culprit is None:
                break
            D[t] = [x + y for x, y in zip(D[t], D[culprit])]
        D[t] = [abs(x) for x in D[t]]
    return tuple(D[i][i] for i in range(limit))


def _random_algebraic_circulant(rng, k, n):
    while True:
        entries = [rng.randrange(n) for _ in range(k - 1)]
        entries.append(-sum(entries) % n)
        if any(entries) and gcd(*entries, n) == 1:
            return circulant(validate(entries, n))


class TestExtendedGcdSteps:
    def test_divisors_match_floor_quotient_route(self):
        # rectangular, singular (a row that combines two others) and zero
        # rows, entries up to 10^4
        rng = random.Random(43)
        for trial in range(300):
            A = random_matrix(rng, max_dim=7, max_entry=10**4)
            rows, cols = len(A), len(A[0])
            if trial % 3 == 0 and rows > 2:
                A[-1] = [2 * x - y for x, y in zip(A[0], A[1])]
            if trial % 5 == 0:
                A[rng.randrange(rows)] = [0] * cols
            res = assert_snf_contract(A)
            assert res.divisors == _floor_quotient_divisors(A), A

    def test_negative_pivot_dividing_its_lines_terminates(self, monkeypatch):
        # the extended gcd of a negative pivot and a multiple of it may
        # return u != 0, a step that does not shrink the pivot; without the
        # plain step for that case this matrix never finishes
        steps = []
        clearing_step = exactla._clearing_step

        def counted(a, b):
            steps.append((a, b))
            assert len(steps) < 1000, "clearing steps do not terminate"
            return clearing_step(a, b)

        monkeypatch.setattr(exactla, "_clearing_step", counted)
        A = [[0, 10, 1, 8], [-1, 0, -9, -11], [1, -4, -1, 0]]
        assert assert_snf_contract(A).divisors == (1, 1, 3)
        assert any(a < 0 and b % a == 0 for a, b in steps)

    def test_transforms_stay_small_on_six_by_six_circulants(self):
        # floor quotients gave U a median of about 2,400 bits here and a
        # maximum above 50,000; the extended-gcd steps keep every entry of
        # U and V near 1,000 bits at most
        rng = random.Random(47)
        worst = 0
        for _ in range(300):
            n = rng.randint(10**4, 10**6)
            res = smith_normal_form(_random_algebraic_circulant(rng, 6, n))
            worst = max(worst, *(abs(x).bit_length()
                                 for M in (res.U, res.V) for row in M for x in row))
        assert worst <= 1200


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


def _list_local_divisors(A, p, e):
    # slow route: Gaussian elimination over Z/p^e on lists of rows, every
    # entry reduced mod p^e at every step; the pivot of least valuation is
    # swapped into place, and each stage costs one Python-level % per entry
    q = p**e
    M = [[x % q for x in row] for row in A]
    rows, cols = len(M), len(M[0])
    limit = min(rows, cols)

    def val(x):
        if x == 0:
            return e
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    out = []
    for t in range(limit):
        piv, vmin = None, e
        for i in range(t, rows):
            for j in range(t, cols):
                v = val(M[i][j])
                if v < vmin:
                    piv, vmin = (i, j), v
                    if v == 0:
                        break
            if vmin == 0:
                break
        if piv is None:
            out.extend([q] * (limit - t))
            break
        M[t], M[piv[0]] = M[piv[0]], M[t]
        if piv[1] != t:
            for r in M:
                r[t], r[piv[1]] = r[piv[1]], r[t]
        unit = M[t][t] // p**vmin
        inv = pow(unit, -1, q)
        M[t] = [x * inv % q for x in M[t]]
        pv = p**vmin
        for i in range(t + 1, rows):
            if M[i][t]:
                f = M[i][t] // pv
                Mi, Mt = M[i], M[t]
                for x in range(t, cols):
                    Mi[x] = (Mi[x] - f * Mt[x]) % q
        for j in range(t + 1, cols):
            M[t][j] = 0
        out.append(pv)
    return out


_PRIMES = (2, 3, 5, 1000003)


def _local_case(rng, p, e, rows, cols, shape):
    # shape 0: entries of any valuation; 1: a zero row; 2: every entry
    # divisible by p, so no pivot is a unit; 3: entries 0 or small powers
    # of p times small cofactors, so valuations tie and vary
    q = p**e
    A = [[rng.randrange(-2 * q, 2 * q) for _ in range(cols)] for _ in range(rows)]
    if shape == 1:
        A[rng.randrange(rows)] = [0] * cols
    elif shape == 2:
        A = [[p * x for x in row] for row in A]
    elif shape == 3:
        A = [[rng.choice((0, 1, p, p * p)) * rng.randint(-3, 3) for _ in range(cols)]
             for _ in range(rows)]
    return A


class TestPackedLocalElimination:
    def test_matches_list_route(self):
        # every prime, shape and square-or-not combination, 25 times each
        rng = random.Random(53)
        for trial in range(800):
            p = _PRIMES[trial % 4]
            e = rng.randint(1, 8)
            rows = rng.randint(1, 9)
            cols = rows if trial // 16 % 2 else rng.randint(1, 9)
            A = _local_case(rng, p, e, rows, cols, trial // 4 % 4)
            assert exactla._local_divisors(A, p, e) == _list_local_divisors(A, p, e), A

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(st.sampled_from(_PRIMES), st.integers(1, 8), st.integers(1, 7),
           st.integers(1, 7), st.integers(0, 3), st.randoms(use_true_random=False))
    def test_matches_list_route_property(self, p, e, rows, cols, shape, rng):
        A = _local_case(rng, p, e, rows, cols, shape)
        assert exactla._local_divisors(A, p, e) == _list_local_divisors(A, p, e)

    @pytest.mark.parametrize("p,e", [(2, 40), (1000003, 2)])
    def test_fields_wider_than_64_bits(self, p, e, monkeypatch):
        widths = []
        row_codec = exactla._row_codec

        def spy(cols, w):
            widths.append(w)
            return row_codec(cols, w)

        monkeypatch.setattr(exactla, "_row_codec", spy)
        rng = random.Random(59)
        for shape in range(4):
            A = _local_case(rng, p, e, 12, 10, shape)
            assert exactla._local_divisors(A, p, e) == _list_local_divisors(A, p, e)
        assert min(widths) > 64

    def test_fields_of_16_and_32_bits(self, monkeypatch):
        # q + min(rows, cols) * q^2 below 2^16 (q = 8, 25, 81 at 9 columns)
        # and below 2^32 (q = 125 and up)
        widths = []
        row_codec = exactla._row_codec

        def spy(cols, w):
            widths.append(w)
            return row_codec(cols, w)

        monkeypatch.setattr(exactla, "_row_codec", spy)
        rng = random.Random(67)
        for p, e in [(2, 3), (5, 2), (3, 4), (5, 3), (3, 8), (2, 12)]:
            for shape in range(4):
                A = _local_case(rng, p, e, 9, 9, shape)
                assert exactla._local_divisors(A, p, e) == _list_local_divisors(A, p, e)
        assert set(widths) == {16, 32}
        assert widths.count(16) == 12 and widths.count(32) == 12

    @pytest.mark.parametrize("k,seed", [(28, 1), (32, 35)])
    def test_large_circulants_match_integer_snf(self, k, seed, monkeypatch):
        monkeypatch.setattr(exactla, "SNF_DIM_CAP", 32)
        # a(x) = b(x) (1 + x^(k/2)) + 6 c(x), so x^(k/2) + 1 and the primes
        # 2 and 3 leave many non-unit pivots; mod 2^5 * 3^3 reaches
        # exponents that 720720 = 2^4 3^2 5 7 11 13 does not
        rng = random.Random(seed)
        n = 720720
        while True:
            b = [rng.randrange(n) for _ in range(k)]
            c = [rng.randrange(n) for _ in range(k)]
            entries = [(b[i] + b[(i - k // 2) % k] + 6 * c[i]) % n for i in range(k)]
            entries[-1] = (entries[-1] - sum(entries)) % n
            if gcd(*entries, n) == 1:
                break
        C = circulant(validate(entries, n))
        divs = smith_normal_form(C).divisors
        for m in (720720, 2**5 * 3**3):
            local = invariant_factors_mod(C, m)
            assert local == tuple(gcd(d, m) for d in divs)
            assert len(set(local)) > 3
