import json
import random
from functools import reduce
from itertools import combinations
from math import gcd

import pytest

from billiard_monodromy import (
    achievable_d_set,
    classify_prime,
    classify_triangles,
    combine_coprime_k,
    combine_crt,
    composite_feasible,
    construct_prime_case,
    enumerate_algebraic,
    enumerate_geometric,
    group_of,
    lift,
    merge_invariant_factors,
    project,
    validate,
)
from billiard_monodromy import construct, polyfp
from billiard_monodromy.construct import (
    ClassificationReport,
    _associate_representatives,
    _cube_roots,
    _divisor_table,
    _generic_divisor,
    _reach,
    _subset_with_degree,
)
from billiard_monodromy.errors import (
    BadFactorization,
    CapExceeded,
    DNotAchievable,
    InternalVerificationFailed,
    LengthMismatch,
    ModuliNotCoprime,
    NotMultiple,
    NTooSmall,
    PDividesK,
    PreconditionFailed,
)
from billiard_monodromy.monodromy import GroupDescriptor, deltas_of
from billiard_monodromy.numtheory import divisors, is_prime, prime_factorization
from billiard_monodromy.polyfp import FpPoly, factor_xk_minus_1, xk_minus_1
from conftest import close_zero_gap_reference, divide_exact, random_algebraic, roots

TWELVE_GON_MOD_35 = (22, 23, 18, 22, 2, 18, 8, 2, 32, 8, 23, 32)


class TestCombineCrt:
    def test_quadrilateral_example(self):
        out = combine_crt(validate([1, 4, 4, 1], 5), validate([2, 3, 4, 3], 6))
        assert out.entries == (26, 9, 4, 21) and out.modulus == 30

    def test_triangle_example(self):
        out = combine_crt(validate([0, 1, 1], 2), validate([1, 0, 4], 5))
        assert out.entries == (6, 5, 9)

    def test_moduli_must_be_coprime(self):
        with pytest.raises(ModuliNotCoprime):
            combine_crt(validate([1, 1, 4], 6), validate([1, 2, 6], 9))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            combine_crt(validate([1, 1, 1], 3), validate([1, 4, 4, 1], 5))

    def test_modulus_one_rejected(self):
        from billiard_monodromy import PolygonTuple
        degenerate = PolygonTuple((0, 0, 0), 1)
        with pytest.raises(PreconditionFailed):
            combine_crt(validate([0, 1, 1], 2), degenerate)

    def test_deltas_merge(self):
        rng = random.Random(107)
        done = 0
        while done < 200:
            t1 = random_algebraic(rng, k_lo=2, k_hi=5, n_lo=2, n_hi=12)
            t2 = random_algebraic(rng, k_lo=t1.k, k_hi=t1.k, n_lo=2, n_hi=12)
            if gcd(t1.modulus, t2.modulus) != 1:
                continue
            out = combine_crt(t1, t2)
            assert deltas_of(out) == merge_invariant_factors(
                deltas_of(t1), deltas_of(t2))
            done += 1


class TestProject:
    def test_mod25_example(self):
        out = project(validate([1, 2, 24, 23], 25), 5)
        assert out.entries == (1, 2, 4, 3) and out.modulus == 5

    def test_mod30_recovers_ingredient(self):
        assert project(validate([26, 9, 4, 21], 30), 5).entries == (1, 4, 4, 1)

    def test_mod6_example(self):
        assert project(validate([1, 1, 4], 6), 2).entries == (1, 1, 0)

    def test_bad_factorization(self):
        t = validate([1, 1, 4], 6)
        for n1 in (1, 4, 6):
            with pytest.raises(BadFactorization):
                project(t, n1)

    def test_non_coprime_caveat(self):
        # reducing mod 5 from modulus 25 lands on 5N, not N/5N: the deltas
        # drop from (25, 5) to (5,)
        t = validate([1, 2, 24, 23], 25)
        assert deltas_of(t) == (25, 5)
        assert deltas_of(project(t, 5)) == (5,)

    def test_coprime_projections_merge_back(self):
        rng = random.Random(109)
        done = 0
        while done < 100:
            t = random_algebraic(rng, k_lo=2, k_hi=5, n_lo=6, n_hi=40)
            n = t.modulus
            splits = [(a, n // a) for a in range(2, n)
                      if n % a == 0 and gcd(a, n // a) == 1 and n // a > 1]
            if not splits:
                continue
            n1, n2 = splits[0]
            merged = merge_invariant_factors(
                deltas_of(project(t, n1)), deltas_of(project(t, n2)))
            assert merged == deltas_of(t)
            done += 1


class TestLift:
    def test_two_gon_example(self):
        assert lift(validate([3, 4], 7), 4).entries == (3, 4, 3, 4)

    def test_identity(self):
        t = validate([1, 2, 4], 7)
        assert lift(t, 3).entries == t.entries

    def test_twelve_fold(self):
        assert lift(validate([1, 2, 4], 7), 12).entries == (1, 2, 4) * 4

    def test_not_multiple(self):
        with pytest.raises(NotMultiple):
            lift(validate([1, 2, 4], 7), 7)

    @pytest.mark.parametrize("ell", [0, -2])
    def test_nonpositive_ell(self, ell):
        with pytest.raises(PreconditionFailed,
                           match=f"^ell must be positive, got {ell}$"):
            lift(validate([1, 4], 5), ell)
        # a non-multiple keeps its own message
        with pytest.raises(NotMultiple):
            lift(validate([1, 2, 4], 7), ell + 1)

    def test_preserves_deltas_scales_order(self):
        rng = random.Random(113)
        for _ in range(60):
            t = random_algebraic(rng, k_lo=2, k_hi=4, n_lo=2, n_hi=15)
            ell = t.k * rng.randint(2, 3)
            lifted = lift(t, ell)
            assert deltas_of(lifted) == deltas_of(t)
            assert group_of(lifted).order == group_of(t).order * ell // t.k


class TestCombineCoprimeK:
    def test_twelve_gon_example(self):
        out = combine_coprime_k(validate([1, 2, 4], 7), validate([2, 3, 3, 2], 5))
        assert out.entries == TWELVE_GON_MOD_35 and out.modulus == 35
        assert deltas_of(out) == (35, 5)

    def test_k_not_coprime(self):
        with pytest.raises(PreconditionFailed):
            combine_coprime_k(validate([1, 4, 4, 1], 5),
                              validate([1, 1, 1, 1, 1, 2], 7))


def _factor_lists():
    # the factors of x^k - 1 mod p for k <= 20 and primes p < 110 not
    # dividing k
    for k in range(1, 21):
        for p in (q for q in range(2, 110) if is_prime(q) and k % q):
            yield k, p, [f for f, _ in factor_xk_minus_1(k, p)]


class TestAchievableDSet:
    def test_examples(self):
        assert achievable_d_set(3, 5) == {1}
        assert achievable_d_set(4, 5) == {1, 2, 3}
        assert achievable_d_set(17, 41) == {1}

    def test_p_divides_k(self):
        with pytest.raises(PDividesK):
            achievable_d_set(6, 3)

    def test_matches_factor_subset_sums(self):
        # slow route: proper subsets of the factors of x^k - 1 other than
        # x - 1
        checked = 0
        for k, p, factors in _factor_lists():
            degs = [f.degree for f in factors if f.coeffs != (p - 1, 1)]
            slow = {1 + sum(c) for r in range(len(degs))
                    for c in combinations(degs, r)}
            assert achievable_d_set(k, p) == slow, (k, p)
            checked += 1
        assert checked == 554


def test_subset_with_degree_matches_combinations():
    # slow route: the first index combination, smallest size first, whose
    # degrees sum to the target; sizes whose r smallest or r largest degrees
    # already miss the target are not walked.  One reach table per (k, p)
    # serves every target up to its bound
    for k, p, factors in _factor_lists():
        degs = sorted(f.degree for f in factors)
        reach = _reach(factors, sum(degs) + 1)
        for target in range(sum(degs) + 2):
            sizes = [r for r in range(len(degs) + 1)
                     if sum(degs[:r]) <= target <= sum(degs[len(degs) - r:])]
            slow = next((list(c) for r in sizes
                         for c in combinations(factors, r)
                         if sum(f.degree for f in c) == target), None)
            assert _subset_with_degree(factors, reach, target) == slow, (k, p, target)


def test_generic_forbidden_roots_match_cofactor_roots():
    # slow routes: the achievable d from the coset degrees, at every p > k,
    # and the roots of (x^k - 1)/g, found by dividing and scanning F_p
    checked = 0
    for k, p, _ in _factor_lists():
        if p <= k or k < 3:
            continue
        table, ach = _divisor_table(k, p)
        assert ach == achievable_d_set(k, p), (k, p)
        checked += 1
        if p == k + 1:
            continue
        for d in ach:
            g, forbidden = _generic_divisor(table, d)
            assert g.degree == d, (k, p, d)
            slow = roots(divide_exact(xk_minus_1(k, p), g))
            assert forbidden == frozenset(slow), (k, p, d)
    assert checked == 432


# ---- the per-d witness route: every d factors x^k - 1, builds its own
# subset table and closes the zero gaps by close_zero_gap_reference ----

def _subset_with_degree_reference(rest, target):
    degs = [f.degree for f in rest]
    reach = [{(0, 0)}]
    for d in reversed(degs):
        below = reach[-1]
        reach.append(below | {(r + 1, s + d) for r, s in below if s + d <= target})
    reach.reverse()
    size = min((r for r, s in reach[0] if s == target), default=None)
    if size is None:
        return None
    chosen, i = [], 0
    while size:
        while (size - 1, target - degs[i]) not in reach[i + 1]:
            i += 1
        chosen.append(rest[i])
        size, target, i = size - 1, target - degs[i], i + 1
    return chosen


def _generic_divisor_reference(k, p, d):
    factors = [f for f, _ in factor_xk_minus_1(k, p)]
    one = FpPoly(p, (p - 1, 1))
    rest = [f for f in factors if f != one]
    chosen = _subset_with_degree_reference(rest, d - 1)
    forbidden = frozenset([-f.coeffs[0] % p for f in rest
                           if f.degree == 1 and f not in chosen])
    return reduce(polyfp.mul, chosen, one), forbidden


def _construct_reference(k, p, d, monkeypatch):
    if p > k + 1:
        f, forbidden = _generic_divisor_reference(k, p, d)
        for _ in range(k - 1 - d):
            _, f = close_zero_gap_reference(f, forbidden)
    else:
        with monkeypatch.context() as m:
            m.setattr(construct, "close_zero_gap", close_zero_gap_reference)
            if k % d == 0 and d < k:
                f = construct._witness_poly_divisor_case(k, p, d)
            elif d < k / 2:
                f = construct._witness_poly_small_d(k, p, d)
            else:
                f = construct._witness_poly_large_d(k, p, d)
    assert f.degree == k - 1 and all(f.coeffs)
    raw = validate(f.coeffs, p, "algebraic")
    witness = construct.pad_to_geometric(raw) or construct.find_geometric_associate(raw)
    assert deltas_of(witness) == (p,) * (k - d)
    return witness


def _classify_prime_reference(k, p, monkeypatch):
    ach = achievable_d_set(k, p)
    achievable, witnesses, excluded = [], {}, []
    for d in range(1, k):
        desc = GroupDescriptor(p, k, (p,) * (k - d))
        if d in ach:
            achievable.append(desc)
            witnesses[desc] = _construct_reference(k, p, d, monkeypatch)
        else:
            excluded.append((desc, "factor-degree-subset-sum"))
    return ClassificationReport(parameters={"k": k, "p": p}, achievable=achievable,
                                witnesses=witnesses, excluded=excluded)


@pytest.mark.slow
def test_witnesses_match_the_per_d_route(monkeypatch):
    # every prime p < 200 and 3 <= k <= 24 with k < p: the p = k+1 routes
    # and the per-(k, p) table of the p > k+1 route give the per-d JSON
    pairs = [(k, p) for p in range(3, 200) if is_prime(p) for k in range(3, min(p, 25))]
    assert len(pairs) == 888
    for k, p in pairs:
        slow = _classify_prime_reference(k, p, monkeypatch)
        dump = json.dumps(slow.to_json_dict(), sort_keys=True)
        assert json.dumps(classify_prime(k, p).to_json_dict(), sort_keys=True) == dump, (k, p)
        for desc in slow.achievable:
            d = k - len(desc.deltas)
            assert (construct_prime_case(k, p, d).to_json_dict()
                    == slow.witnesses[desc].to_json_dict()), (k, p, d)


class TestConstructPrimeCase:
    def test_divisor_route(self):
        assert construct_prime_case(4, 5, 2).entries == (4, 4, 1, 1)

    def test_triangle_full_rank(self):
        w = construct_prime_case(3, 7, 1)
        assert group_of(w).deltas == (7, 7)

    def test_not_achievable(self):
        with pytest.raises(DNotAchievable):
            construct_prime_case(3, 5, 2)

    def test_all_routes_verify(self):
        # (10, 11) and (12, 13) hit the small-d and large-d constructions
        for k, p in ((5, 11), (6, 7), (10, 11), (12, 13)):
            for d in sorted(achievable_d_set(k, p)):
                w = construct_prime_case(k, p, d)
                assert w.geometric
                assert deltas_of(w) == (p,) * (k - d)

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            construct_prime_case(3, 3, 1)
        with pytest.raises(PreconditionFailed):
            construct_prime_case(4, 9, 1)


class TestClassifyPrime:
    def test_k3_p5_single_group(self):
        rep = classify_prime(3, 5)
        assert [d.deltas for d in rep.achievable] == [(5, 5)]
        assert [(d.deltas, rule) for d, rule in rep.excluded] \
            == [((5,), "factor-degree-subset-sum")]

    def test_k4_p5_three_groups(self):
        rep = classify_prime(4, 5)
        assert [d.deltas for d in rep.achievable] == [(5, 5, 5), (5, 5), (5,)]
        for desc in rep.achievable:
            assert group_of(rep.witnesses[desc]) == desc

    def test_k17_p41(self):
        rep = classify_prime(17, 41)
        assert len(rep.achievable) == 1
        desc = rep.achievable[0]
        assert desc.deltas == (41,) * 16
        assert deltas_of(rep.witnesses[desc]) == (41,) * 16

    def test_rejects_small_p(self):
        with pytest.raises(PreconditionFailed):
            classify_prime(3, 3)


def _triangle_report(n, witnesses, excluded, rule="norm-form-admissibility"):
    # the JSON report with the given witness per alpha and excluded alphas
    def group(alpha):
        deltas = tuple(d for d in (n, n // alpha) if d > 1)
        return GroupDescriptor(n, 3, deltas).to_json_dict()
    return {
        "parameters": {"n": n},
        "achievable": [
            {"group": group(a), "witness": {"n": n, "entries": list(witnesses[a])}}
            for a in sorted(witnesses)],
        "excluded": [{"group": group(a), "rule": rule} for a in excluded],
    }


class TestClassifyTriangles:
    def test_n81_exactly_two_groups(self):
        rep = classify_triangles(81)
        assert [d.deltas for d in rep.achievable] == [(81, 81), (81, 27)]
        assert rep.witnesses[rep.achievable[0]].entries == (1, 2, 78)
        assert rep.witnesses[rep.achievable[1]].entries == (1, 1, 79)

    def test_n3(self):
        rep = classify_triangles(3)
        assert [d.deltas for d in rep.achievable] == [(3,)]
        assert rep.witnesses[rep.achievable[0]].entries == (1, 1, 1)

    def test_n35_alpha_sets(self):
        rep = classify_triangles(35)
        achieved = {35 // (d.deltas + (1,))[1] for d in rep.achievable}
        assert achieved == {1, 7}
        excluded = {35 // (d.deltas + (1,))[1] for d, _ in rep.excluded}
        assert excluded == {5, 35}

    def test_explicit_alpha_one_candidates(self):
        # the two closed-form witnesses for the full group
        for n in (5, 7, 8, 10, 20):
            a0, a1, a2 = 1, 1, n - 2
            assert gcd(n, a0 * a2 - a1 * a1) == 1
        for n in (9, 12, 27, 81):
            a0, a1, a2 = n // 3 - 1, n // 3, n // 3 + 1
            assert sum((a0, a1, a2)) == n
            assert gcd(n, a0 * a2 - a1 * a1) == 1

    def test_n_too_small(self):
        with pytest.raises(NTooSmall):
            classify_triangles(2)

    def test_matches_enumeration_sample(self):
        for n in (4, 6, 9, 10, 12, 15, 21):
            rep = classify_triangles(n)
            achieved = {deltas_of(t) for t in enumerate_geometric(3, n)}
            assert {d.deltas for d in rep.achievable} == achieved

    def test_matches_full_lexicographic_scan(self):
        # slow route: every geometric triangle in lexicographic order, the
        # first hit per alpha = gcd(n, a0*a2 - a1^2) as its witness; the
        # alphas hit are the divisors with no prime 2 mod 3 and no factor 9
        for n in range(3, 301):
            first = {}
            for a0 in range(1, n - 1):
                for a1 in range(1, n - a0):
                    a2 = n - a0 - a1
                    if gcd(a0, a1, a2, n) == 1:
                        first.setdefault(gcd(n, a0 * a2 - a1 * a1), (a0, a1, a2))
            if n > 3:
                assert set(first) == {
                    a for a in divisors(n) if a % 9 and all(
                        q % 3 < 2 for q in prime_factorization(a))}, n
            rule = "single-triangle-modulus" if n == 3 else "norm-form-admissibility"
            excluded = [a for a in divisors(n) if a not in first]
            assert classify_triangles(n).to_json_dict() \
                == _triangle_report(n, first, excluded, rule), n

    def test_parent_reports_for_large_n(self):
        # reports produced by the exhaustive lexicographic scan
        assert classify_triangles(1200).to_json_dict() == _triangle_report(
            1200, {1: (1, 2, 1197), 3: (1, 1, 1198)},
            [2, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24, 25, 30, 40, 48, 50, 60,
             75, 80, 100, 120, 150, 200, 240, 300, 400, 600, 1200])
        assert classify_triangles(1900).to_json_dict() == _triangle_report(
            1900, {1: (1, 1, 1898), 19: (1, 7, 1892)},
            [2, 4, 5, 10, 20, 25, 38, 50, 76, 95, 100, 190, 380, 475, 950,
             1900])
        assert classify_triangles(2707).to_json_dict() == _triangle_report(
            2707, {1: (1, 1, 2705), 2707: (1, 1327, 1379)}, [])

    def test_matches_row_one_scan(self):
        # slow route: the least a1 per alpha = gcd(n, 1 + a1 + a1^2) over
        # the row [1, a1, n - 1 - a1]; the row realizes every alpha
        rng = random.Random(11)
        for n in (rng.randrange(300, 10**5) for _ in range(30)):
            first = {}
            for a1 in range(1, n - 1):
                first.setdefault(gcd(n, 1 + a1 + a1 * a1), (1, a1, n - 1 - a1))
            excluded = [a for a in divisors(n) if a not in first]
            assert classify_triangles(n).to_json_dict() \
                == _triangle_report(n, first, excluded), n

    def test_root_cap_counts_divisors_and_roots(self, monkeypatch):
        # n = 7 * 13: each prime has two roots, so (1 + 2) * (1 + 2) = 9
        monkeypatch.setattr(construct, "TRIANGLE_ROOT_CAP", 9)
        assert len(classify_triangles(91).achievable) == 4
        monkeypatch.setattr(construct, "TRIANGLE_ROOT_CAP", 8)
        with pytest.raises(CapExceeded, match="lists 9 divisors and roots, "
                                              "over TRIANGLE_ROOT_CAP=8"):
            classify_triangles(91)

    def test_cube_root_criterion_matches_scan(self):
        # every prime power below 5000, so the lifts at 49, 169, 343, ... too
        for q, j in ((q, j) for q in range(2, 5000) if is_prime(q)
                     for j in range(1, 13) if q**j < 5000):
            scan = [t for t in range(q**j) if (t * t + t + 1) % q**j == 0]
            assert _cube_roots(q, j) == scan, (q, j)

    def test_refusing_an_occurring_prime_fails_the_certificate(self, monkeypatch):
        admissible = construct._alpha_admissible
        monkeypatch.setattr(construct, "_alpha_admissible",
                            lambda a: a % 7 != 0 and admissible(a))
        with pytest.raises(InternalVerificationFailed, match=r"t\^2 \+ t \+ 1"):
            classify_triangles(21)

    def test_refused_alpha_needs_a_refused_factor(self, monkeypatch):
        admissible = construct._alpha_admissible
        monkeypatch.setattr(construct, "_alpha_admissible",
                            lambda a: a != 21 and admissible(a))
        with pytest.raises(InternalVerificationFailed, match="alpha=21"):
            classify_triangles(21)

    def test_accepting_a_missing_prime_exhausts_the_scan(self, monkeypatch):
        # treat 5 like a prime that is 1 mod 3
        admissible = construct._alpha_admissible
        monkeypatch.setattr(construct, "_alpha_admissible",
                            lambda a: admissible(a // 5 if a % 5 == 0 else a))
        with pytest.raises(InternalVerificationFailed,
                           match=r"without a root of t\^2 \+ t \+ 1 are \[5\]"):
            classify_triangles(35)


class TestCompositeFeasible:
    def test_mod10_squares(self):
        res = composite_feasible(3, 10, (10, 10))
        assert res.feasible
        assert res.witness.geometric
        assert deltas_of(res.witness) == (10, 10)

    def test_mod35_infeasible(self):
        res = composite_feasible(3, 35, (35,))
        assert not res.feasible and res.failing_modulus == 5
        res = composite_feasible(3, 35, (35, 7))
        assert not res.feasible and res.failing_modulus == 5

    def test_mod6_feasible(self):
        res = composite_feasible(3, 6, (6, 2))
        assert res.feasible
        assert group_of(res.witness).deltas == (6, 2)

    def test_covering_failure(self):
        # every algebraic 3-tuple mod 2 with group C2^2 : C3 has a zero
        # entry, so no geometric triangle mod 2 exists even though the
        # algebraic target is achievable
        res = composite_feasible(3, 2, (2, 2))
        assert not res.feasible
        assert res.failing_modulus is None
        assert "coordinate" in res.detail

    def test_agrees_with_triangle_classification(self):
        rep = classify_triangles(12)
        assert {d.deltas for d in rep.achievable} == {(12, 12), (12, 4)}
        assert composite_feasible(3, 12, (12, 4)).feasible
        for target in ((12, 6), (12, 2), (12,)):
            assert not composite_feasible(3, 12, target).feasible

    def test_cap(self):
        with pytest.raises(CapExceeded):
            composite_feasible(3, 10, (10, 10), per_prime_cap=10)

    def test_bad_targets(self):
        with pytest.raises(PreconditionFailed):
            composite_feasible(3, 10, (3,))
        with pytest.raises(PreconditionFailed):
            composite_feasible(3, 10, (2, 10))
        with pytest.raises(PreconditionFailed, match="must be nontrivial$"):
            composite_feasible(3, 6, (1,))

    @pytest.mark.parametrize("deltas,bad", [((6, 0), 0), ((-6,), -6), ((6, 1, -1), -1)])
    def test_nonpositive_target_is_named(self, deltas, bad):
        with pytest.raises(PreconditionFailed,
                           match=f"^target factor {bad} is not positive$"):
            composite_feasible(3, 6, deltas)
        # the k check comes first, and a factor 1 is still dropped
        with pytest.raises(PreconditionFailed, match="^need k >= 3"):
            composite_feasible(2, 6, deltas)
        assert composite_feasible(3, 6, (6, 2, 1)) == composite_feasible(3, 6, (6, 2))

    @pytest.mark.parametrize("n,deltas", [(0, (5,)), (-6, (6,))])
    def test_modulus_below_two(self, n, deltas):
        # each target divides n, so only the modulus check refuses these
        with pytest.raises(PreconditionFailed, match=f"^need n >= 2, got {n}$"):
            composite_feasible(3, n, deltas)
        # the target checks come first and keep their messages
        with pytest.raises(PreconditionFailed, match="not a divisibility chain"):
            composite_feasible(3, n, (3, 6))


def _first_per_pattern(candidates):
    # {local group: {zero pattern: first tuple}}, the map composite_feasible
    # keeps for every target at once
    first = {}
    for t in candidates:
        pattern = frozenset(i for i, a in enumerate(t.entries) if a == 0)
        first.setdefault(deltas_of(t), {}).setdefault(pattern, t.entries)
    return first


@pytest.mark.parametrize("k,q_max", [(3, 49), (4, 16), (5, 7)])
def test_representatives_keep_the_first_tuple_per_pattern(k, q_max):
    # slow route: every algebraic tuple mod q in lexicographic order
    for q in range(2, q_max + 1):
        factors = prime_factorization(q)
        if len(factors) != 1:
            continue
        (p, e), = factors.items()
        reps = list(_associate_representatives(k, p, e))
        assert all(t.modulus == q for t in reps)
        assert _first_per_pattern(reps) == _first_per_pattern(
            enumerate_algebraic(k, q)), (k, q)
