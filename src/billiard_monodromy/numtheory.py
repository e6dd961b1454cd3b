"""Small exact number-theory helpers used across the library."""

from math import gcd, isqrt

from .errors import CapExceeded

# primes below this are found by trial division, by a table of the primes
# below it (a prime n near 10^6 takes 168 divisions, not 500); any n below
# its square is factored by trial division alone
TRIAL_DIVISION_LIMIT = 1000
# rho steps allowed for splitting one composite cofactor, about 0.6 s; it
# splits most cofactors whose least prime is below 10^11
POLLARD_RHO_CAP = 2_000_000
_RHO_BATCH = 128

# Miller-Rabin witnesses: the first 13 primes.  The first 12 alone pass the
# composite 318665857834031151167461; all 13 are exact for every n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _primes_below(m: int) -> tuple:
    # sieve of Eratosthenes
    sieve = bytearray([1]) * m
    sieve[:2] = bytes(2)
    for i in range(2, isqrt(m - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, m, i)))
    return tuple([i for i in range(m) if sieve[i]])


# the trial divisors: the 168 primes below TRIAL_DIVISION_LIMIT
_SMALL_PRIMES = _primes_below(TRIAL_DIVISION_LIMIT)


def is_prime(n: int) -> bool:
    """Strong-probable-prime test to the bases ``_MR_WITNESSES``.

    Deterministic below 3,317,044,064,679,887,385,961,981 (about 3.3e24);
    above that bound a composite may pass, so the test is probabilistic.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factorization(n: int) -> dict:
    """Map prime -> exponent for n >= 1, primes ascending.

    Trial division by the primes d < TRIAL_DIVISION_LIMIT, up to the first
    d with d*d above what is left; a cofactor with no prime below the limit
    is split by Pollard's rho (see ``_rho_factor``).
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = {}
    d = TRIAL_DIVISION_LIMIT
    for q in _SMALL_PRIMES:
        if q * q > n:
            d = q
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    # n is now 1, a prime, or a product of primes >= d
    for p in ([n] if d * d > n else sorted(_large_prime_factors(n))):
        if p > 1:
            out[p] = out.get(p, 0) + 1
    return out


def _large_prime_factors(m: int) -> list:
    """The prime factors of m, with multiplicity, when none is below
    TRIAL_DIVISION_LIMIT."""
    if is_prime(m):
        return [m]
    f = _rho_factor(m)
    return _large_prime_factors(f) + _large_prime_factors(m // f)


def _rho_factor(m: int) -> int:
    """A proper factor of the composite m, by Pollard's rho (Pollard 1975)
    with Brent's cycle detection and batched gcds (Brent 1980).

    Deterministic: x -> x^2 + c from x = 2 for c = 1, 2, ..., taking the
    next c whenever a batch's gcd is m itself, so whether the cap is reached
    depends on m alone.  CapExceeded, without a factor, before the steps
    spent would exceed POLLARD_RHO_CAP.
    """
    steps = 0
    for c in range(1, m):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            # a round costs at most 2r steps
            if steps + 2 * r > POLLARD_RHO_CAP:
                raise CapExceeded(
                    f"factoring {m} exceeded "
                    f"POLLARD_RHO_CAP={POLLARD_RHO_CAP} rho steps",
                    partial=steps)
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            done = 0
            while done < r and g == 1:
                batch = min(_RHO_BATCH, r - done)
                for _ in range(batch):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                done += batch
            steps += r + done
            r *= 2
        # g == m when one batch closed the cycles of every prime of m
        if g != m:
            return g
    raise ArithmeticError(f"no proper factor of {m} found")


def divisors(n: int) -> list:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in prime_factorization(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def crt_pair(a: int, n1: int, b: int, n2: int) -> int:
    """Least nonnegative x with x = a (mod n1) and x = b (mod n2); coprime moduli."""
    m = pow(n1, -1, n2)
    return (a + n1 * ((b - a) * m % n2)) % (n1 * n2)

