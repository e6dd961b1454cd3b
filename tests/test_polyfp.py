import random
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from billiard_monodromy import (
    FpPoly,
    circulant,
    close_zero_gap,
    coset_degrees,
    factor_xk_minus_1,
    from_tuple,
    gcd_poly,
    rank_mod_p,
    rotate,
    validate,
    w_function,
    xk_minus_1,
)
from billiard_monodromy import polyfp
from billiard_monodromy.errors import (
    BothZero,
    DegreeTooLarge,
    ModulusNotPrime,
    NotEnoughAlphas,
    PDividesK,
    PreconditionFailed,
    ZeroPolynomial,
)
from billiard_monodromy.numtheory import is_prime
from billiard_monodromy.polygon import enumerate_algebraic
from conftest import close_zero_gap_reference, roots, w_function_reference


class TestFromTuple:
    def test_transcription(self):
        f = from_tuple(validate([2, 2, 2, 4], 5), 5)
        assert f.coeffs == (2, 2, 2, 4)

    def test_trailing_zero_dropped(self):
        f = from_tuple(validate([1, 0, 4], 5), 5)
        assert f.coeffs == (1, 0, 4)
        g = from_tuple(validate([1, 4, 0], 5), 5)
        assert g.coeffs == (1, 4) and g.degree == 1

    def test_modulus_must_be_prime(self):
        with pytest.raises(ModulusNotPrime):
            from_tuple(validate([1, 1, 4], 6), 6)
        with pytest.raises(ModulusNotPrime):
            from_tuple(validate([1, 1, 1], 3), 5)


class TestGcd:
    def test_cyclotomic_factor(self):
        g = gcd_poly(xk_minus_1(3, 5), FpPoly.make(5, [1, 1, 1]))
        assert g.coeffs == (1, 1, 1)

    def test_gcd_with_zero_is_monic(self):
        f = FpPoly.make(5, [2, 4])
        assert gcd_poly(f, FpPoly.make(5, [])).coeffs == (3, 1)

    def test_both_zero(self):
        with pytest.raises(BothZero):
            gcd_poly(FpPoly.make(7, []), FpPoly.make(7, []))

    def test_quartic_example(self):
        f = FpPoly.make(5, [1, 4, 4, 1])
        assert gcd_poly(f, xk_minus_1(4, 5)).degree == 2


def _schoolbook_gcd(p, a, b):
    # slow route: Euclid by schoolbook remainders, one Python-level % per
    # coefficient per quotient term, then made monic
    while b:
        a, b = b, polyfp._divmod(p, a, b)[1]
    inv = pow(a[-1], -1, p)
    return tuple([c * inv % p for c in a])


# 2^61 - 1 gives lanes of 3 * 61 bits and more
_EUCLID_PRIMES = (2, 3, 13, 1000003, 2**61 - 1)


def _poly(rng, p, length, density=1.0):
    return polyfp._trim(tuple([rng.randrange(p) if rng.random() < density else 0
                               for _ in range(length)]))


def _euclid_pairs(rng, p, size):
    # pairs whose longer member has length size: x^(size-1) - 1 against a
    # random a, a planted common factor, a short or sparse b (many quotient
    # terms per remainder, degree drops > 1), b dividing a, and a = b
    a = _poly(rng, p, size)
    while len(a) < size:
        a = _poly(rng, p, size)
    short = _poly(rng, p, rng.randint(1, max(1, size // 4)))
    sparse = _poly(rng, p, size - 1, density=0.2)
    g = _poly(rng, p, rng.randint(1, size))
    h = _poly(rng, p, size - len(g) + 1)
    pairs = [(xk_minus_1(size - 1, p).coeffs, _poly(rng, p, size - 1)) if size > 1
             else (a, ()),
             (polyfp._mul(p, g, h), polyfp._mul(p, g, _poly(rng, p, len(h)))),
             (a, short), (short, a), (a, sparse), (a, a)]
    if short and len(g) + len(short) - 1 <= size:
        pairs.append((polyfp._mul(p, g, short), g))
    return [(x, y) for x, y in pairs if x or y]


class TestPackedEuclid:
    """``_gcd_coeffs`` on packed lanes against the schoolbook route."""

    @pytest.mark.parametrize("p", _EUCLID_PRIMES)
    def test_lengths_up_to_the_factor_cap(self, p):
        rng = random.Random(p % 1009)
        for size in range(1, polyfp.FACTOR_K_CAP + 2):
            for a, b in _euclid_pairs(rng, p, size):
                assert polyfp._gcd_coeffs(p, a, b) == _schoolbook_gcd(p, a, b), (p, a, b)

    @pytest.mark.parametrize("p", _EUCLID_PRIMES)
    def test_edge_cases(self, p):
        one = (1,)
        x = (0, 1)
        f = (p - 1,) + (0,) * 19 + (2 % p or 1,)
        for a, b, expected in [
            ((), f, _schoolbook_gcd(p, f, ())),
            (f, (), _schoolbook_gcd(p, f, ())),
            (f, f, _schoolbook_gcd(p, f, ())),
            ((), (5 % p or 1,), one),
            (polyfp._mul(p, f, f), f, _schoolbook_gcd(p, f, ())),
            (f, polyfp._mul(p, f, x), _schoolbook_gcd(p, f, ())),
            # x^40 against x^20 + x: each remainder drops 19 degrees
            ((0,) * 40 + one, (0, 1) + (0,) * 18 + one, x),
        ]:
            assert polyfp._gcd_coeffs(p, a, b) == expected
            assert _schoolbook_gcd(p, a, b) == expected

    @settings(derandomize=True, deadline=None, max_examples=400, database=None)
    @given(st.sampled_from(_EUCLID_PRIMES), st.integers(0, 60), st.integers(0, 60),
           st.integers(0, 12), st.randoms(use_true_random=False))
    def test_matches_schoolbook_property(self, p, la, lb, lg, rng):
        g = _poly(rng, p, lg)
        a = polyfp._mul(p, g, _poly(rng, p, la, rng.random())) if g else _poly(rng, p, la)
        b = polyfp._mul(p, g, _poly(rng, p, lb, rng.random())) if g else _poly(rng, p, lb)
        if not a and not b:
            return
        assert polyfp._gcd_coeffs(p, a, b) == _schoolbook_gcd(p, a, b), (p, a, b)


class TestWFunction:
    def test_named_example(self):
        assert w_function(FpPoly.make(11, [1, 0, 0, -1, 0, 0, 0, 1])) == 3

    def test_no_zeros(self):
        assert w_function(FpPoly.make(5, [1, 1, 1])) == 0

    def test_binomial(self):
        assert w_function(FpPoly.make(7, [1, 0, 0, 0, 0, 1])) == 4

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            w_function(FpPoly.make(5, []))


class TestRotate:
    def test_f2_chain(self):
        f = FpPoly.make(2, [1, 1, 1, 0, 0, 1])
        r1 = rotate(f, 7)
        assert r1.coeffs == (0, 1, 1, 1, 0, 0, 1)
        r2 = rotate(r1, 7)
        assert r2.coeffs == (1, 0, 1, 1, 1)

    def test_constant(self):
        assert rotate(FpPoly.make(5, [3]), 4).coeffs == (0, 3)

    def test_degree_guard(self):
        with pytest.raises(DegreeTooLarge):
            rotate(xk_minus_1(3, 5), 3)

    def test_nonpositive_k(self):
        # the degree check comes first, so only the zero polynomial at k = 0
        # reaches the check on k
        with pytest.raises(PreconditionFailed, match="k must be positive, got 0"):
            rotate(FpPoly.make(5, []), 0)
        with pytest.raises(DegreeTooLarge):
            rotate(FpPoly.make(5, [3]), 0)
        with pytest.raises(DegreeTooLarge):
            rotate(FpPoly.make(5, []), -1)

    def test_preserves_gcd(self):
        rng = random.Random(89)
        for _ in range(500):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            k = rng.randint(2, 9)
            coeffs = [rng.randrange(p) for _ in range(rng.randint(1, k))]
            f = FpPoly.make(p, coeffs)
            # the rotation is the remainder of x*f by x^k - 1
            xf = (0,) + f.coeffs
            assert (rotate(f, k).coeffs
                    == polyfp._divmod(p, xf, xk_minus_1(k, p).coeffs)[1])
            if f.is_zero:
                continue
            g1 = gcd_poly(f, xk_minus_1(k, p))
            g2 = gcd_poly(rotate(f, k), xk_minus_1(k, p))
            assert g1 == g2


class TestFactorXkMinus1:
    def test_k3_p5(self):
        factors = factor_xk_minus_1(3, 5)
        assert [(f.coeffs, m) for f, m in factors] == [((4, 1), 1), ((1, 1, 1), 1)]

    def test_k6_p2_multiplicities(self):
        factors = factor_xk_minus_1(6, 2)
        assert [(f.coeffs, m) for f, m in factors] == [((1, 1), 2), ((1, 1, 1), 2)]

    def test_k4_p5_splits(self):
        factors = factor_xk_minus_1(4, 5)
        assert all(f.degree == 1 and m == 1 for f, m in factors)
        assert len(factors) == 4

    def test_product_reassembles(self):
        rng = random.Random(97)
        for _ in range(60):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            k = rng.randint(1, 16)
            acc = FpPoly(p, (1,))
            for f, m in factor_xk_minus_1(k, p):
                for _ in range(m):
                    acc = polyfp.mul(acc, f)
            assert acc == xk_minus_1(k, p)

    def test_factors_look_irreducible(self):
        for k, p in ((7, 13), (12, 7), (9, 2), (8, 3), (17, 41)):
            for f, _ in factor_xk_minus_1(k, p):
                if f.degree >= 2:
                    assert not roots(f)
                    # f divides x^(p^d) - x exactly at d = deg f
                    for d in range(1, f.degree + 1):
                        h = polyfp._pow_mod(p, (0, 1), p**d, f.coeffs)
                        assert (h == (0, 1)) == (d == f.degree)

    def test_cache_is_bounded(self):
        cached = polyfp._factor_xk_minus_1_cached
        cached.cache_clear()
        first = factor_xk_minus_1(2, 3)
        primes = [p for p in range(5, 20_000) if is_prime(p)]
        for p in primes[:polyfp.FACTOR_CACHE_SIZE + 10]:
            factor_xk_minus_1(2, p)
        info = cached.cache_info()
        assert info.currsize == info.maxsize == polyfp.FACTOR_CACHE_SIZE
        # an evicted pair is factored again, to the same answer
        assert factor_xk_minus_1(2, 3) == first
        assert cached.cache_info().misses == info.misses + 1
        cached.cache_clear()


def test_roots_of_unity_match_scans():
    # slow route: scan F_p for the roots
    for p in (q for q in range(2, 400) if is_prime(q)):
        for m in range(1, 60):
            if m % p == 0:
                continue
            r = gcd(m, p - 1)
            scan = [z for z in range(1, p) if pow(z, m, p) == 1]
            found = polyfp._roots_of_unity(p, r)
            assert found == scan, (p, m)
            linear = polyfp._equal_degree_split(p, xk_minus_1(r, p).coeffs, 1, m)
            assert linear == [(-z % p, 1) for z in scan], (p, m)


def test_element_of_order_p_minus_1_is_the_smallest_primitive_root():
    # slow route: the first x whose powers reach every unit
    for p in (q for q in range(2, 2000) if is_prime(q)):
        scan = next(x for x in range(1, p)
                    if len({pow(x, i, p) for i in range(p - 1)}) == p - 1)
        assert polyfp.element_of_order(p, p - 1) == scan, p


def _trial_division_split(p, g, d, m):
    # slow route: g divides x^m - 1 and is squarefree with every factor of
    # degree d; try monic degree-d candidates, tails in lexicographic order,
    # the constant term (-1)^d times the norm of a root, an m-th root of 1
    if len(g) - 1 == d:
        return [g]
    constants = sorted([(-1) ** d * z % p for z in range(1, p) if pow(z, m, p) == 1])
    out = []
    rem = g
    for tail in product(range(p), repeat=d - 1):
        for c0 in constants:
            cand = (c0,) + tail + (1,)
            q, r = polyfp._divmod(p, rem, cand)
            if not r:
                out.append(cand)
                rem = q
                if len(rem) - 1 == d:
                    out.append(rem)
                    return out
                if len(rem) == 1:
                    return out
    raise AssertionError("trial division exhausted its candidates")


def test_factors_match_trial_division(monkeypatch):
    # every k <= 20, prime p < 110 pair (p | k included) on which the slow
    # route tries at most 10^4 candidates: p^(d-1) tails for the largest
    # factor degree d = ord_m(p), m the part of k prime to p, times
    # gcd(m, p - 1) constants
    pairs = []
    for k in range(1, 21):
        for p in (q for q in range(2, 110) if is_prime(q)):
            m = k
            while m % p == 0:
                m //= p
            d = next(e for e in range(1, m + 1) if pow(p, e, m) == 1 % m)
            if p ** (d - 1) * gcd(m, p - 1) <= 10**4:
                pairs.append((k, p))
    fast = [factor_xk_minus_1(k, p) for k, p in pairs]
    monkeypatch.setattr(polyfp, "_equal_degree_split", _trial_division_split)
    for (k, p), factors in zip(pairs, fast):
        assert list(polyfp._factor_xk_minus_1_cached.__wrapped__(k, p)) == factors, (k, p)
    assert len(pairs) == 384


def _distinct_degree_pieces(m, p):
    # slow route, p not dividing m: x^(p^d) mod f by Frobenius powers, then
    # the gcd of x^(p^d) - x with f is the product of f's degree-d factors;
    # once 2d exceeds deg f what is left is irreducible, its own piece
    f = xk_minus_1(m, p).coeffs
    pieces = []
    h = polyfp._divmod(p, (0, 1), f)[1]
    d = 0
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            pieces.append((len(f) - 1, f))
            break
        h = polyfp._pow_mod(p, h, p, f)
        g = polyfp._gcd_coeffs(p, polyfp._sub(p, h, (0, 1)), f)
        if len(g) > 1:
            pieces.append((d, g))
            f = polyfp._divmod(p, f, g)[0]
            h = polyfp._divmod(p, h, f)[1]
    return pieces


def test_degree_pieces_match_distinct_degree_loop(monkeypatch):
    # the pieces read off x^gcd(m, p^d - 1) - 1 are the distinct-degree
    # loop's, in the same order, so the seeded splits see the same inputs
    pairs = [(k, p) for k in range(1, 41) for p in range(2, 200)
             if is_prime(p) and k % p]
    assert len(pairs) == 1780
    pairs += [(k, p) for k in (60, 61, 96, 120, 126, 127, 128)
              for p in (1000003, 10**18 + 9, 1000000000000006849)]
    slow = [_distinct_degree_pieces(k, p) for k, p in pairs]
    monkeypatch.setattr(polyfp, "_equal_degree_split", lambda p, g, d, m: [(d, g)])
    for (k, p), pieces in zip(pairs, slow):
        assert polyfp._factor_squarefree_xm1(k, p) == pieces, (k, p)


def test_factorization_properties():
    # seeded pairs k <= 60, primes p < 200, with p | k drawn on purpose too;
    # a split that reaches SPLIT_ATTEMPT_CAP raises CapExceeded and fails
    rng = random.Random(109)
    primes = [q for q in range(2, 200) if is_prime(q)]
    pairs = [(rng.randint(1, 60), rng.choice(primes)) for _ in range(150)]
    pairs += [(p * rng.randint(1, 60 // p), p) for p in primes[:10]]
    for k, p in pairs:
        factors = factor_xk_minus_1(k, p)
        acc = FpPoly(p, (1,))
        for f, m in factors:
            for _ in range(m):
                acc = polyfp.mul(acc, f)
        assert acc == xk_minus_1(k, p), (k, p)
        for f, _ in factors:
            # f divides x^(p^e) - x first at e = deg f; x mod f, not x,
            # so that a linear f passes
            x = polyfp._divmod(p, (0, 1), f.coeffs)[1]
            h = x
            for e in range(1, f.degree + 1):
                h = polyfp._pow_mod(p, h, p, f.coeffs)
                assert (h == x) == (e == f.degree), (k, p, f)
        if k % p:
            degs = tuple(sorted(f.degree for f, _ in factors))
            assert degs == coset_degrees(k, p), (k, p)


class TestCosetDegrees:
    def test_large_prime_pair(self):
        assert coset_degrees(17, 41) == (1, 16)

    def test_k3_p5(self):
        assert coset_degrees(3, 5) == (1, 2)

    def test_k4_p5(self):
        assert coset_degrees(4, 5) == (1, 1, 1, 1)

    def test_p_divides_k(self):
        with pytest.raises(PDividesK):
            coset_degrees(6, 3)

    def test_matches_factor_degrees(self):
        rng = random.Random(101)
        for _ in range(50):
            p = rng.choice([2, 3, 5, 7, 11, 13, 17])
            k = rng.randint(1, 18)
            if k % p == 0:
                continue
            degs = tuple(sorted(f.degree for f, _ in factor_xk_minus_1(k, p)))
            assert degs == coset_degrees(k, p)


class TestZeroSpread:
    def test_divisors_of_xk_minus_1(self):
        # every nonconstant divisor g built from factor subsets satisfies
        # w(g) < k - deg(g); degree k-1 divisors have no zero coefficient
        for k, p in ((6, 5), (7, 2), (8, 3), (12, 5), (10, 11)):
            factors = [f for f, _ in factor_xk_minus_1(k, p)]
            for r in range(1, len(factors) + 1):
                for comb in combinations(factors, r):
                    g = FpPoly(p, (1,))
                    for f in comb:
                        g = polyfp.mul(g, f)
                    if g.degree == 0 or g.degree == k:
                        continue
                    assert w_function(g) < k - g.degree
                    if g.degree == k - 1:
                        assert all(c for c in g.coeffs)


class TestCloseZeroGap:
    def test_keeps_zero_w(self):
        f = FpPoly.make(7, [1, 2, 3])
        alpha, out = close_zero_gap(f)
        assert w_function(out) == 0 and out.degree == 3

    def test_spec_example(self):
        f = FpPoly.make(5, [1, 0, 1])
        alpha, out = close_zero_gap(f)
        assert alpha == 1
        assert out.coeffs == (4, 1, 4, 1)
        assert w_function(out) == 0

    def test_exhausted_supply(self):
        f = FpPoly.make(5, [1, 0, 1])
        with pytest.raises(NotEnoughAlphas):
            close_zero_gap(f, forbidden=frozenset(range(1, 5)))

    def test_w_reduction_random(self):
        rng = random.Random(103)
        done = 0
        while done < 500:
            p = rng.choice([5, 7, 11, 13, 17])
            deg = rng.randint(1, 8)
            coeffs = [rng.randrange(p) for _ in range(deg + 1)]
            coeffs[0] = rng.randint(1, p - 1)
            coeffs[-1] = rng.randint(1, p - 1)
            f = FpPoly.make(p, coeffs)
            if f.degree + 1 >= p:
                continue
            w0 = w_function(f)
            _, out = close_zero_gap(f)
            assert w_function(out) == max(w0 - 1, 0)
            done += 1


def _outcome(fn, f, forbidden):
    try:
        alpha, out = fn(f, forbidden)
    except (NotEnoughAlphas, PreconditionFailed, ZeroPolynomial) as exc:
        return type(exc), str(exc)
    return alpha, out


def test_close_zero_gap_matches_reference():
    # slow route: the ratio set by modular inverses and a schoolbook
    # product, on seeded polynomials with runs of zeros (zero and zero-led
    # ones included) and forbidden sets from empty to all of F_p^*
    rng = random.Random(2024)
    kinds = set()
    for _ in range(3000):
        p = rng.choice([2, 3, 5, 7, 11, 13, 31, 197, 1000003])
        coeffs = [rng.randrange(p) if rng.random() < 0.6 else 0
                  for _ in range(rng.randint(0, 14))]
        f = FpPoly.make(p, coeffs)
        sizes = [0, 1, 3, 20] + ([p - 2, p - 1] if p < 1000 else [])
        forbidden = frozenset(rng.sample(range(1, p), min(rng.choice(sizes), p - 1)))
        got = _outcome(close_zero_gap, f, forbidden)
        assert got == _outcome(close_zero_gap_reference, f, forbidden), (f, forbidden)
        kinds.add(got[0] if isinstance(got[0], type) else "ok")
        if not f.is_zero:
            assert w_function(f) == w_function_reference(f), f
            if isinstance(got[1], FpPoly):
                assert w_function(got[1]) == w_function_reference(got[1]), got
    assert kinds == {"ok", NotEnoughAlphas, PreconditionFailed, ZeroPolynomial}


def test_rank_equals_k_minus_gcd_degree():
    # bridge between the circulant rank and the associated-polynomial gcd:
    # exhaustive where the tuple count stays small, sampled above that
    for k in range(2, 7):
        for p in (2, 3, 5, 7, 11, 13):
            if k % p == 0:
                continue
            cap = None if p ** (k - 1) <= 3000 else 60
            seen = 0
            for t in enumerate_algebraic(k, p):
                d = gcd_poly(from_tuple(t, p), xk_minus_1(k, p)).degree
                assert rank_mod_p(circulant(t), p) == k - d
                seen += 1
                if cap and seen >= cap:
                    break
