import random

import pytest

from billiard_monodromy import numtheory
from billiard_monodromy.errors import CapExceeded
from billiard_monodromy.numtheory import is_prime, prime_factorization


def _trial_division(n):
    """Plain trial division to the square root: the slow route."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _assert_same(got, expected):
    # equal, and with the primes in the same (ascending) order
    assert list(got.items()) == list(expected.items())


def test_matches_trial_division_below_20000():
    for n in range(1, 20_000):
        _assert_same(prime_factorization(n), _trial_division(n))


def test_products_of_primes_below_a_million():
    # the expected map is read off the drawn primes: trial division to the
    # square root of products of two primes near 10^6 takes seconds
    rng = random.Random(101)
    primes = [p for p in range(2, 3000) if is_prime(p)]
    primes += [p for p in rng.sample(range(3000, 10**6), 4000) if is_prime(p)]
    for _ in range(300):
        drawn = sorted(rng.choice(primes) for _ in range(rng.randint(1, 5)))
        n = 1
        for p in drawn:
            n *= p
        _assert_same(prime_factorization(n),
                     {p: drawn.count(p) for p in drawn})


@pytest.mark.parametrize("n", [991 * 997, 997**2, 997 * 1009, 1009**2, 999983])
def test_edge_of_the_prime_table(n):
    # the last primes below TRIAL_DIVISION_LIMIT, the first above it, and
    # the largest prime below its square
    assert numtheory._SMALL_PRIMES[-1] == 997 < numtheory.TRIAL_DIVISION_LIMIT < 1009
    _assert_same(prime_factorization(n), _trial_division(n))


def test_prime_table():
    primes = numtheory._SMALL_PRIMES
    assert len(primes) == 168
    assert list(primes) == [p for p in range(numtheory.TRIAL_DIVISION_LIMIT)
                            if _trial_division(p) == {p: 1}]


@pytest.mark.parametrize("n, expected", [
    (10**18 + 3, {10**18 + 3: 1}),
    (10**18 + 2, {2: 1, 3: 1, 17: 1, 131: 1, 1427: 1, 52445056723: 1}),
    (1009**3 * 1013, {1009: 3, 1013: 1}),
    (999983**2, {999983: 2}),
    ((2**31 - 1) * (2**61 - 1), {2**31 - 1: 1, 2**61 - 1: 1}),
])
def test_large_moduli(n, expected):
    _assert_same(prime_factorization(n), expected)


def test_is_prime_rejects_the_least_strong_pseudoprime_to_bases_2_to_37():
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)
    assert is_prime(399165290221) and is_prime(798330580441)


def test_rho_cap(monkeypatch):
    monkeypatch.setattr(numtheory, "POLLARD_RHO_CAP", 10)
    n = 1000003 * 1000033
    with pytest.raises(CapExceeded) as exc:
        prime_factorization(n)
    assert str(exc.value) == (f"factoring {n} exceeded POLLARD_RHO_CAP=10 "
                              "rho steps")
    assert exc.value.partial <= 10
    # trial division alone stays exact below TRIAL_DIVISION_LIMIT^2
    _assert_same(prime_factorization(997 * 991), {991: 1, 997: 1})
