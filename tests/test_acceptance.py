"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (visible with pytest -s);
a failure shows up as the test failing.  Run as:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from itertools import product
from math import gcd, prod

import pytest

from billiard_monodromy import (
    achievable_d_set,
    build_permutations,
    check_structure,
    circulant,
    classify_triangles,
    close_zero_gap,
    combine_coprime_k,
    combine_crt,
    composite_feasible,
    construct_prime_case,
    coset_degrees,
    enumerate_geometric,
    factor_xk_minus_1,
    from_tuple,
    gcd_poly,
    group_of,
    group_order,
    lift,
    minor_gcd,
    project,
    quadrilateral_closed_form,
    rank_mod_p,
    rotate,
    smith_normal_form,
    span_invariants,
    triangle_closed_form,
    validate,
    w_function,
    xk_minus_1,
)
from billiard_monodromy.exactla import det
from billiard_monodromy.monodromy import deltas_of
from billiard_monodromy.polyfp import FpPoly, mul as poly_mul
from conftest import mat_mul, random_algebraic

PRIMES_TO_23 = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _oracle_corpus():
    """Criterion 2/3 inputs: every geometric tuple with k in {3,4}, n <= 10,
    plus 200 seeded random algebraic tuples small enough for the oracle."""
    tuples = []
    for k in (3, 4):
        for n in range(3, 11):
            tuples.extend(enumerate_geometric(k, n))
    rng = random.Random(127)
    picked = 0
    while picked < 200:
        t = random_algebraic(rng, k_lo=2, k_hi=5, n_lo=2, n_hi=16)
        if t.modulus * t.k > 256 or prod(deltas_of(t)) > 4000:
            continue
        tuples.append(t)
        picked += 1
    return tuples


@pytest.fixture(scope="module")
def oracle_corpus():
    return _oracle_corpus()


def test_criterion_01_worked_example_regression():
    start = time.time()
    assert smith_normal_form(circulant(validate([2, 2, 2, 4], 5))).divisors \
        == (2, 2, 2, 10)
    examples = [
        ([2, 2, 2, 4], 5, 4, (5, 5, 5)),
        ([1, 2, 4], 7, 3, (7,)),
        ([3, 4, 3, 4], 7, 4, (7,)),
        ([2, 3, 3, 2], 5, 4, (5, 5)),
        ([1, 4, 4, 1], 5, 4, (5, 5)),
        ([2, 3, 4, 3], 6, 4, (6, 6)),
        ([26, 9, 4, 21], 30, 4, (30, 30)),
        ([4, 5, 1], 10, 3, (10, 10)),
        ([1, 1, 4], 6, 3, (6, 2)),
        ([1, 2, 24, 23], 25, 4, (25, 5)),
        ([1, 2, 4, 3], 5, 4, (5,)),
        # CRT combination of [1,2,4] mod 7 and [2,3,3,2] mod 5 lifted to
        # twelve entries; the sum condition pins index 2 at 18
        ([22, 23, 18, 22, 2, 18, 8, 2, 32, 8, 23, 32], 35, 12, (35, 5)),
    ]
    for entries, n, k, deltas in examples:
        desc = group_of(validate(entries, n))
        assert (desc.n, desc.k, desc.deltas) == (n, k, deltas), entries
        assert desc.order == k * prod(deltas)
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1: PASS - 12 worked examples exact ({elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_02_oracle_equivalence(oracle_corpus):
    start = time.time()
    for t in oracle_corpus:
        deltas = deltas_of(t)
        inv = span_invariants(t)
        assert inv.order == prod(deltas), t
        assert inv.factors == deltas, t
        assert group_order(build_permutations(t)) == t.k * prod(deltas), t
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2: PASS - oracle equals SNF route on "
          f"{len(oracle_corpus)} tuples ({elapsed:.2f}s)")


@pytest.mark.slow
def test_criterion_03_structure_suite(oracle_corpus):
    start = time.time()
    for t in oracle_corpus:
        report = check_structure(t)
        assert report.passed, (t, report.failures)
    print(f"\nACCEPTANCE 3: PASS - all structural clauses hold on "
          f"{len(oracle_corpus)} tuples ({time.time() - start:.2f}s)")


def test_criterion_04_rank_gcd_identity():
    rng = random.Random(131)
    checked = 0
    for k in range(2, 7):
        for p in (2, 3, 5, 7, 11, 13):
            if k % p == 0:
                continue
            for _ in range(200):
                while True:
                    entries = [rng.randrange(p) for _ in range(k - 1)]
                    entries.append(-sum(entries) % p)
                    if any(a % p for a in entries) and gcd(*entries, p) == 1:
                        break
                t = validate(entries, p)
                d = gcd_poly(from_tuple(t, p), xk_minus_1(k, p)).degree
                assert rank_mod_p(circulant(t), p) == k - d, t
                checked += 1
    print(f"\nACCEPTANCE 4: PASS - rank equals k - deg gcd on {checked} draws")


def _geometric_residue_tuples(k, p):
    # residue patterns of geometric k-gons mod p: nonzero entries, sum a
    # multiple s*p with 1 <= s <= k-2
    for head in product(range(1, p), repeat=k - 1):
        last = -sum(head) % p
        if last == 0:
            continue
        s = (sum(head) + last) // p
        if 1 <= s <= k - 2:
            yield head + (last,)


@pytest.mark.slow
def test_criterion_05_prime_classification_coverage():
    start = time.time()
    witnesses = 0
    oracle_checked = 0
    scanned = 0
    for k in (3, 4, 5, 6, 7):
        for p in PRIMES_TO_23:
            if p <= k:
                continue
            ach = achievable_d_set(k, p)
            for d in sorted(ach):
                w = construct_prime_case(k, p, d)
                assert w.geometric
                assert deltas_of(w) == (p,) * (k - d)
                witnesses += 1
                if p ** (k - d) <= 100_000 and p * k <= 256:
                    inv = span_invariants(w)
                    assert inv.factors == (p,) * (k - d)
                    if k * p ** (k - d) <= 200_000:
                        assert group_order(build_permutations(w)) \
                            == k * p ** (k - d)
                    oracle_checked += 1
            if p ** (k - 1) <= 100_000:
                xk = xk_minus_1(k, p)
                seen = set()
                for residues in _geometric_residue_tuples(k, p):
                    f = FpPoly.make(p, residues)
                    seen.add(gcd_poly(f, xk).degree)
                    scanned += 1
                assert seen == ach, (k, p, seen, ach)
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 5: PASS - {witnesses} witnesses verified "
          f"({oracle_checked} by oracle), {scanned} tuples scanned, no group "
          f"outside the predicted sets ({elapsed:.2f}s)")


def test_criterion_06_triangle_classification():
    start = time.time()
    for n in range(3, 61):
        rep = classify_triangles(n)
        predicted = {d.deltas for d in rep.achievable}
        enumerated = {deltas_of(t) for t in enumerate_geometric(3, n)}
        assert predicted == enumerated, n
        for desc in rep.achievable:
            wit = rep.witnesses[desc]
            assert wit.geometric and deltas_of(wit) == desc.deltas
    rep = classify_triangles(81)
    assert [d.deltas for d in rep.achievable] == [(81, 81), (81, 27)]
    assert rep.witnesses[rep.achievable[0]].entries == (1, 2, 78)
    assert rep.witnesses[rep.achievable[1]].entries == (1, 1, 79)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6: PASS - classification equals enumeration for "
          f"n <= 60 and n = 81 ({elapsed:.2f}s)")


def test_criterion_07_closed_form_consistency():
    start = time.time()
    triangles = quads = degenerate = 0
    for n in range(3, 41):
        for t in enumerate_geometric(3, n):
            a0, a1, a2 = t.entries
            assert triangle_closed_form(a0, a1, a2, n).deltas == deltas_of(t)
            triangles += 1
    for n in range(2, 13):
        for t in enumerate_geometric(4, n):
            a0, a1, a2, a3 = t.entries
            desc = quadrilateral_closed_form(a0, a1, a2, a3, n)
            assert desc.deltas == deltas_of(t)
            quads += 1
            b3 = -a0 - a1 - a2
            minors = (a0 * a2 - b3 * b3, a0 * a1 - a2 * b3, a0 * a0 - a2 * a2,
                      a1 * b3 - a2 * a2, a0 * b3 - a1 * a2, a0 * a2 - a1 * a1)
            if all(m % n == 0 for m in minors):
                degenerate += 1
    assert degenerate > 0
    print(f"\nACCEPTANCE 7: PASS - closed forms match the SNF route on "
          f"{triangles} triangles and {quads} quadrilaterals "
          f"({degenerate} with d2 = n) ({time.time() - start:.2f}s)")


def test_criterion_08_constructive_toolkit():
    f = FpPoly.make(2, [1, 1, 1, 0, 0, 1])
    r1 = rotate(f, 7)
    assert r1.coeffs == (0, 1, 1, 1, 0, 0, 1)
    assert rotate(r1, 7).coeffs == (1, 0, 1, 1, 1)
    assert w_function(FpPoly.make(11, [1, 0, 0, -1, 0, 0, 0, 1])) == 3

    rng = random.Random(137)
    reductions = 0
    while reductions < 500:
        p = rng.choice([5, 7, 11, 13, 17, 19])
        deg = rng.randint(1, 9)
        if deg + 1 >= p:
            continue
        coeffs = [rng.randrange(p) for _ in range(deg + 1)]
        coeffs[0] = rng.randint(1, p - 1)
        coeffs[-1] = rng.randint(1, p - 1)
        g = FpPoly.make(p, coeffs)
        w0 = w_function(g)
        _, out = close_zero_gap(g)
        assert w_function(out) == max(w0 - 1, 0)
        reductions += 1

    bounds = 0
    while bounds < 500:
        p = rng.choice([2, 3, 5, 7, 11, 13])
        k = rng.randint(2, 14)
        factors = [f for f, m in factor_xk_minus_1(k, p) for _ in range(m)]
        r = rng.randint(1, len(factors))
        g = FpPoly(p, (1,))
        for piece in rng.sample(factors, r):
            g = poly_mul(g, piece)
        if g.degree in (0, k):
            continue
        assert w_function(g) < k - g.degree
        bounds += 1

    assert [(f.coeffs, m) for f, m in factor_xk_minus_1(3, 5)] \
        == [((4, 1), 1), ((1, 1, 1), 1)]
    assert [(f.coeffs, m) for f, m in factor_xk_minus_1(6, 2)] \
        == [((1, 1), 2), ((1, 1, 1), 2)]
    matched = 0
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7, 11, 13, 17])
        k = rng.randint(1, 18)
        if k % p == 0:
            continue
        degs = tuple(sorted(f.degree for f, _ in factor_xk_minus_1(k, p)))
        assert degs == coset_degrees(k, p)
        matched += 1
    print(f"\nACCEPTANCE 8: PASS - rotation chain, zero-gap reduction x500, "
          f"zero-spread bound x500, factorizations and {matched} coset matches")


def test_criterion_09_calculus_suite():
    out = combine_crt(validate([1, 4, 4, 1], 5), validate([2, 3, 4, 3], 6))
    assert out.entries == (26, 9, 4, 21)
    assert deltas_of(out) == (30, 30)
    out = combine_crt(validate([0, 1, 1], 2), validate([1, 0, 4], 5))
    assert out.entries == (6, 5, 9)

    assert project(validate([1, 2, 24, 23], 25), 5).entries == (1, 2, 4, 3)
    assert project(validate([26, 9, 4, 21], 30), 5).entries == (1, 4, 4, 1)
    assert project(validate([1, 1, 4], 6), 2).entries == (1, 1, 0)

    assert lift(validate([3, 4], 7), 4).entries == (3, 4, 3, 4)
    assert lift(validate([1, 2, 4], 7), 12).entries == (1, 2, 4) * 4

    twelve = combine_coprime_k(validate([1, 2, 4], 7), validate([2, 3, 3, 2], 5))
    assert twelve.entries == (22, 23, 18, 22, 2, 18, 8, 2, 32, 8, 23, 32)
    assert deltas_of(twelve) == (35, 5) and twelve.k == 12

    # non-coprime projection caveat: 5N, not N/5N
    assert deltas_of(project(validate([1, 2, 24, 23], 25), 5)) == (5,)

    assert not composite_feasible(3, 35, (35,)).feasible
    assert not composite_feasible(3, 35, (35, 7)).feasible
    res = composite_feasible(3, 10, (10, 10))
    assert res.feasible and deltas_of(res.witness) == (10, 10)
    print("\nACCEPTANCE 9: PASS - calculus examples, caveat regression, "
          "and composite decisions exact")


def test_criterion_10_snf_property_suite():
    start = time.time()
    rng = random.Random(139)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        A = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(A)
        assert mat_mul(mat_mul(res.U, res.D), res.V) == A
        assert det(res.U) in (1, -1) and det(res.V) in (1, -1)
        divs = res.divisors
        assert all(d >= 0 for d in divs)
        for a, b in zip(divs, divs[1:]):
            assert (b % a == 0) if a else (b == 0)
        acc = 1
        for j, d in enumerate(divs, start=1):
            acc *= d
            assert acc == minor_gcd(A, j)
    print(f"\nACCEPTANCE 10: PASS - 500 random matrices satisfy the full SNF "
          f"contract and minor-gcd identity ({time.time() - start:.2f}s)")
