"""Shared helpers for the suites: seeded draws for the randomized tests
(everything is seeded by the caller so runs are reproducible) and the slow
reference routes that only the tests need."""

from math import gcd

from billiard_monodromy import FpPoly, validate
from billiard_monodromy.errors import NotEnoughAlphas, PreconditionFailed, ZeroPolynomial
from billiard_monodromy.polyfp import _divmod


def random_algebraic(rng, k_lo=2, k_hi=6, n_lo=2, n_hi=30):
    """A random valid algebraic tuple, by rejection."""
    while True:
        k = rng.randint(k_lo, k_hi)
        n = rng.randint(n_lo, n_hi)
        entries = [rng.randrange(n) for _ in range(k - 1)]
        entries.append(-sum(entries) % n)
        if not any(entries):
            continue
        if gcd(*entries, n) != 1:
            continue
        return validate(entries, n, "algebraic")


def random_geometric(rng, k_lo=3, k_hi=6, n_lo=3, n_hi=20):
    """A random valid geometric tuple, by rejection."""
    while True:
        k = rng.randint(k_lo, k_hi)
        n = rng.randint(n_lo, n_hi)
        target = (k - 2) * n
        entries = []
        ok = True
        for slot in range(k - 1):
            remaining = target - sum(entries) - (k - 1 - slot)
            hi = min(2 * n - 1, remaining)
            if hi < 1:
                ok = False
                break
            a = rng.randint(1, hi)
            entries.append(a)
        if not ok:
            continue
        entries.append(target - sum(entries))
        if any(a <= 0 or a >= 2 * n or a == n for a in entries):
            continue
        if gcd(*entries, n) != 1:
            continue
        return validate(entries, n, "geometric")


def mat_mul(A, B):
    """The integer matrix product A B, by the schoolbook sum."""
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        Oi = out[i]
        for t in range(inner):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(cols):
                    Oi[j] += a * Bt[j]
    return out


def divide_exact(f, g):
    """f / g for FpPoly f, g when g divides f; raises otherwise."""
    if f.p != g.p:
        raise PreconditionFailed("mixed moduli")
    q, r = _divmod(f.p, f.coeffs, g.coeffs)
    if r:
        raise PreconditionFailed(f"{g} does not divide {f}")
    return FpPoly(f.p, q)


def roots(f):
    """All roots of the FpPoly f in F_p, ascending, by scanning F_p."""
    if f.is_zero:
        raise ZeroPolynomial("every element is a root of 0")
    return [x for x in range(f.p) if f(x) == 0]


def w_function_reference(f):
    """Longest run of zero coefficients below the leading one, by a running
    maximum."""
    if f.is_zero:
        raise ZeroPolynomial("w is undefined for the zero polynomial")
    best = run = 0
    for c in f.coeffs[:-1]:
        run = run + 1 if c == 0 else 0
        best = max(best, run)
    return best


def close_zero_gap_reference(f, forbidden=frozenset()):
    """close_zero_gap by its definition: the ratios a_{j-1}/a_j by modular
    inverses, then the first eligible alpha's product by a schoolbook
    multiplication."""
    if f.is_zero:
        raise ZeroPolynomial("cannot close gaps of the zero polynomial")
    if f.coeffs[0] == 0:
        raise PreconditionFailed("constant term must be nonzero")
    p = f.p
    bad = set()
    for j in range(1, len(f.coeffs)):
        if f.coeffs[j]:
            bad.add(f.coeffs[j - 1] * pow(f.coeffs[j], -1, p) % p)
    target = max(w_function_reference(f) - 1, 0)
    for alpha in range(1, p):
        if alpha in forbidden or alpha in bad:
            continue
        out = [0] * (len(f.coeffs) + 1)
        for i, a in enumerate(f.coeffs):
            for j, b in enumerate((-alpha % p, 1)):
                out[i + j] = (out[i + j] + a * b) % p
        while out and out[-1] == 0:
            out.pop()
        out = FpPoly(p, tuple(out))
        if w_function_reference(out) != target:
            raise AssertionError("zero-gap reduction identity violated")
        return alpha, out
    raise NotEnoughAlphas(
        f"no eligible alpha in F_{p} outside {len(forbidden)} forbidden values")
