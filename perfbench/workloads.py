"""Seeded requests and independent output checks for the four workloads.

Every workload is a list of *slots*; one round issues one request from each
slot, in an order shuffled by the seed.  A slot draws its parameters from a
narrow class (a stratum of one census cell, one k and modulus class, one
triangle-modulus band, ...), so every round carries the same mix of work
whatever the seed, and a run that always finishes whole rounds measures a
steady rate.

Each request's output is checked right after it returns, outside its timed
interval, by a route other than the one being timed: closed forms, ranks over
prime fields, the permutation oracle, the paper's admissibility rules, or an
exact certificate (U*D*V = A with unimodular U and V).
"""

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from math import gcd, prod
from typing import Callable, Optional

from billiard_monodromy import cli, construct, exactla, monodromy, oracle, polygon
from billiard_monodromy.numtheory import divisors, is_prime, prime_factorization

ACTION_CAP = 10_000     # monodromy.group_of's documented default action cap


@dataclass
class Op:
    """One request: ``run`` is timed, ``check`` is not.

    ``check(result, error)`` returns None when the outcome is right (an
    expected refusal included) and a short reason otherwise.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object, Optional[BaseException]], Optional[str]]


def _ok(check):
    """Adapt a check of a normal result: any exception is a failure."""
    def outcome(result, error):
        if error is not None:
            return f"unexpected {type(error).__name__}: {error}"
        return check(result)
    return outcome


# ---- independent arithmetic ----

def _circulant(entries):
    k = len(entries)
    return [[entries[(i - j) % k] for j in range(k)] for i in range(k)]


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _det(M):
    """Fraction-free (Bareiss) determinant."""
    M = [row[:] for row in M]
    n = len(M)
    sign, prev = 1, 1
    for i in range(n - 1):
        if M[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if M[r][i]), None)
            if swap is None:
                return 0
            M[i], M[swap] = M[swap], M[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                M[r][c] = (M[r][c] * M[i][i] - M[r][i] * M[i][c]) // prev
        prev = M[i][i]
    return sign * M[-1][-1]


def _admissible_alpha(alpha):
    """Triangle rule: alpha = 3^i * (primes = 1 mod 3) with i <= 1."""
    for q, e in prime_factorization(alpha).items():
        if (q == 3 and e > 1) or (q != 3 and q % 3 != 1):
            return False
    return True


def _coset_sizes(k, p):
    seen, sizes = set(), []
    for j in range(k):
        if j in seen:
            continue
        size, x = 0, j
        while x not in seen:
            seen.add(x)
            x = x * p % k
            size += 1
        sizes.append(size)
    return sizes


def _expected_d_set(k, p):
    """1 + degree sums over proper subsets of the factors of (x^k-1)/(x-1);
    the full product would force the zero tuple."""
    degs = _coset_sizes(k, p)[1:]      # the orbit of 0 is the factor x - 1
    sums = {0}
    for d in degs:
        sums |= {s + d for s in sums}
    sums.discard(sum(degs))
    return {1 + s for s in sums}


def _closed_form(entries, n):
    """Group descriptor from the triangle or quadrilateral closed form."""
    if len(entries) == 3:
        return monodromy.triangle_closed_form(*entries, n)
    return monodromy.quadrilateral_closed_form(*entries, n)


def _random_algebraic(rng, k, n):
    while True:
        entries = [rng.randrange(n) for _ in range(k - 1)]
        entries.append(-sum(entries) % n)
        if any(entries) and gcd(*entries, n) == 1:
            return entries


class Workload:
    """Slots, a seeded generator, a fixed tail percentile and trace size.

    ``tracer`` is the traced pass's tracer, or None.  ``checking_s`` is the
    time spent inside ``checking()``; the worker leaves it out of set-up.
    """

    name = ""
    tail_percentile = 95.0
    trace_rounds = 1

    def __init__(self, seed: int, tracer=None):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tracer = tracer
        self.checking_s = 0.0
        self.setup()

    @contextlib.contextmanager
    def checking(self):
        """The benchmark's own work (expected answers, building requests):
        untraced, and not counted as the program's set-up."""
        start = time.perf_counter()
        if self.tracer:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.paused = False
            self.checking_s += time.perf_counter() - start

    def setup(self):
        pass

    def slots(self) -> list:
        raise NotImplementedError

    def next_round(self) -> list:
        ops = [make() for make in self.slots()]
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> list:
        raise NotImplementedError


# ---- census ----

class Census(Workload):
    """group_of over every geometric tuple class of a grid of small cells."""

    name = "census"
    # p99 also has 10 samples beyond it, but over seeds 1-10 its quartiles
    # spread by 0.12 of its median (README.md, "End-to-end metrics")
    tail_percentile = 95.0
    trace_rounds = 5
    # (k, n): cells on both sides of the action cap; n is prime for k >= 5
    # so that the rank over F_n gives the exact span as an independent check
    CELLS = ((3, 60), (3, 96), (4, 18), (4, 24), (5, 7), (5, 11), (6, 5), (6, 7))
    SAMPLE = 480            # tuples drawn from each cell's enumeration
    STRATA = 6              # span-order strata per cell
    SPAN_CHECK_RATE = 0.1   # share of requests re-derived by span_invariants

    def setup(self):
        self.strata = []
        for k, n in self.CELLS:
            population = list(polygon.enumerate_geometric(k, n))
            sample = self.rng.sample(population, min(self.SAMPLE, len(population)))
            with self.checking():
                keyed = sorted(((self._expected(t), self.rng.random(), t) for t in sample),
                               key=lambda item: (prod(item[0]), item[1]))
            size = len(keyed) // self.STRATA
            for s in range(self.STRATA):
                self.strata.append([(t, deltas)
                                    for deltas, _, t in keyed[s * size:(s + 1) * size]])

    @staticmethod
    def _expected(t):
        n = t.modulus
        if t.k <= 4:
            return _closed_form(list(t.residues()), n).deltas
        return (n,) * exactla.rank_mod_p(_circulant(t.residues()), n)

    def _op(self, t, deltas):
        span_check = self.rng.random() < self.SPAN_CHECK_RATE
        equal = len(set(t.residues())) == 1

        def check(desc):
            if (desc.n, desc.k, desc.deltas) != (t.modulus, t.k, deltas):
                return f"{t}: got {desc.deltas}, closed form/rank gives {deltas}"
            if desc.trivial_action is None and prod(deltas) <= ACTION_CAP:
                return f"{t}: action unchecked below the cap"
            if desc.trivial_action is not None and desc.trivial_action != equal:
                return f"{t}: trivial_action={desc.trivial_action}, residues equal={equal}"
            if span_check:
                inv = oracle.span_invariants(t)
                if inv.factors != deltas or inv.order != prod(deltas):
                    return f"{t}: span_invariants gives {inv.factors}"
            return None

        return Op("group_of", lambda: monodromy.group_of(t), _ok(check))

    def slots(self):
        return [lambda stratum=stratum: self._op(*self.rng.choice(stratum))
                for stratum in self.strata]

    def warmup(self):
        return [self._op(*self.rng.choice(self.strata[i * self.STRATA]))
                for i in range(3)]


# ---- invariants ----

# the highly composite numbers between 10^4 and 10^6
HCN_MODULI = (10080, 15120, 20160, 25200, 27720, 45360, 50400, 55440, 83160,
              110880, 166320, 221760, 277200, 332640, 498960, 554400, 665280, 720720)


class Invariants(Workload):
    """group_of on large algebraic tuples (oracle bypassed) plus integer SNF."""

    name = "invariants"
    # p99.9 also has 10 samples beyond it, but it is the extreme tail of the
    # k = 6 integer SNF requests and spreads by half its median across seeds
    tail_percentile = 99.0
    trace_rounds = 100
    K_VALUES = (8, 12, 16, 20, 24, 28, 32)
    SNF_K = (3, 4, 5, 6)
    LOW, HIGH = 10_001, 1_000_000     # every span exceeds the action cap
    RANK_CHECK_RATE = 0.05

    def setup(self):
        self.prime_powers = sorted(
            p**e for p in range(2, 1001) if is_prime(p)
            for e in range(2, 20) if self.LOW <= p**e <= self.HIGH)
        self.classes = {
            "prime": self._prime,
            "prime_power": lambda: self.rng.choice(self.prime_powers),
            "composite": lambda: self.rng.choice(HCN_MODULI),
        }

    def _prime(self):
        while True:
            n = self.rng.randrange(self.LOW, self.HIGH)
            if is_prime(n):
                return n

    def _tuple(self, k, n):
        return polygon.validate(_random_algebraic(self.rng, k, n), n, "algebraic")

    def _group_op(self, k, modulus_class):
        n = self.classes[modulus_class]()
        t = self._tuple(k, n)
        rank_check = self.rng.random() < self.RANK_CHECK_RATE

        def check(desc):
            d = desc.deltas
            if (desc.n, desc.k) != (n, k) or not d or d[0] != n or len(d) > k - 1:
                return f"{t}: malformed descriptor {desc}"
            if any(x <= 1 or n % x or a % x for a, x in zip(d, d[1:])):
                return f"{t}: deltas {d} are not a divisibility chain in n"
            if desc.trivial_action not in (None, len(set(t.residues())) == 1):
                return f"{t}: wrong trivial_action {desc.trivial_action}"
            if rank_check:
                A = _circulant(t.residues())
                for p, e in prime_factorization(n).items():
                    full = sum(1 for x in d if x % p**e == 0)
                    if full != exactla.rank_mod_p(A, p):
                        return f"{t}: {full} full {p}-parts, rank mod {p} disagrees"
            return None

        return Op("group_of", lambda: monodromy.group_of(t), _ok(check))

    def _snf_op(self, k):
        n = self.classes[self.rng.choice(tuple(self.classes))]()
        A = exactla.circulant(self._tuple(k, n))

        def check(res):
            D, d = res.D, res.divisors
            if any(D[i][j] != (d[i] if i == j else 0)
                   for i in range(k) for j in range(k)):
                return "D is not diagonal with the reported divisors"
            if any(x < 0 for x in d) or any(
                    (b % a if a else b) for a, b in zip(d, d[1:])):
                return f"divisors {d} are not a divisibility chain"
            if abs(_det(res.U)) != 1 or abs(_det(res.V)) != 1:
                return "U or V is not unimodular"
            if _mat_mul(_mat_mul(res.U, D), res.V) != A:
                return "U*D*V differs from the input"
            return None

        return Op("smith_normal_form", lambda: exactla.smith_normal_form(A), _ok(check))

    def slots(self):
        out = [lambda k=k, c=c: self._group_op(k, c)
               for k in self.K_VALUES for c in self.classes]
        out += [lambda k=k: self._snf_op(k) for k in self.SNF_K]
        return out

    def warmup(self):
        return [self._group_op(8, "prime"), self._group_op(8, "composite"),
                self._snf_op(4)]


# ---- classify ----

# composite moduli are products of coprime prime powers q, kept small enough
# that the q^(k-1) candidate enumeration stays in the tens of milliseconds
_K3_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 25, 27, 31, 37)
_K4_PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11)


def _coprime_product(rng, pool, parts, limit):
    while True:
        chosen = rng.sample(pool, parts)
        n = prod(chosen)
        if n <= limit and all(gcd(a, b) == 1 for i, a in enumerate(chosen)
                              for b in chosen[i + 1:]):
            return n


class Classify(Workload):
    """classify_prime, classify_triangles and composite_feasible."""

    name = "classify"
    # 29 requests a round, always whole rounds: the median falls mid-way
    # through one cost class and p95 mid-way through the n ~ 1200 triangle
    # class, whatever the seed
    tail_percentile = 95.0
    trace_rounds = 4
    PRIME_STRATA = 18
    ADJACENT = ((4, 6), (10, 12))                  # k values with p = k + 1
    TRIANGLE_BANDS = (50, 200, 600, 1200, 1900)   # n drawn within +-3%
    FACTOR_WORK = 2000      # bound on sum d*p^(d-1) over repeated factor degrees
    SUBSET_WORK = 30_000    # bound on k * 2^(factors - 1)

    def setup(self):
        # (k, p) pairs with bounded work, split into strata by the same work
        # estimate, so every round draws the same cost mix
        priced = []
        self.adjacent = []
        for k in range(3, 19):
            for p in range(k + 1, 110):
                if not is_prime(p):
                    continue
                work = self._work(k, p)
                if work is None:
                    continue
                if p == k + 1:
                    self.adjacent.append((k, p))
                else:
                    priced.append((work, k, p))
        priced.sort()
        cut = [len(priced) * i // self.PRIME_STRATA for i in range(self.PRIME_STRATA + 1)]
        self.prime_strata = [[(k, p) for _, k, p in priced[a:b]]
                             for a, b in zip(cut, cut[1:])]

    def _work(self, k, p):
        """Estimated work of classify_prime(k, p), or None above the bounds."""
        sizes = _coset_sizes(k, p)
        repeated = {d for d in sizes if d > 1 and sizes.count(d) > 1}
        factor = sum(d * p ** (d - 1) for d in repeated)
        subsets = k * 2 ** (len(sizes) - 1)
        if factor > self.FACTOR_WORK or subsets > self.SUBSET_WORK:
            return None
        return factor + subsets

    def _prime_op(self, k, p):
        expected = _expected_d_set(k, p)

        def check(rep):
            got = {k - len(g.deltas): g for g in rep.achievable}
            if set(got) != expected:
                return f"classify_prime({k},{p}): d set {sorted(got)} != {sorted(expected)}"
            if sorted(k - len(g.deltas) for g, _ in rep.excluded) != sorted(
                    set(range(1, k)) - expected):
                return f"classify_prime({k},{p}): wrong exclusions"
            for d, g in got.items():
                w = rep.witnesses[g]
                if g.deltas != (p,) * (k - d) or w.modulus != p or w.k != k:
                    return f"classify_prime({k},{p}): bad descriptor or witness for d={d}"
                polygon.validate(w.entries, p, "geometric")
                if exactla.rank_mod_p(_circulant(w.residues()), p) != k - d:
                    return f"classify_prime({k},{p}): witness {w} rank != k-d for d={d}"
            return None

        return Op("classify_prime", lambda: construct.classify_prime(k, p), _ok(check))

    def _triangle_op(self, n):
        admissible = [a for a in divisors(n) if _admissible_alpha(a)]

        def check(rep):
            want = [tuple(x for x in (n, n // a) if x > 1) for a in admissible]
            if [g.deltas for g in rep.achievable] != want:
                return f"classify_triangles({n}): achievable {rep.achievable}"
            if len(rep.excluded) != len(divisors(n)) - len(admissible):
                return f"classify_triangles({n}): wrong exclusions"
            for g in rep.achievable:
                w = rep.witnesses[g]
                polygon.validate(w.entries, n, "geometric")
                if _closed_form(list(w.residues()), n).deltas != g.deltas:
                    return f"classify_triangles({n}): witness {w} has another group"
            return None

        return Op("classify_triangles", lambda: construct.classify_triangles(n),
                  _ok(check))

    def _composite_op(self, k, n, deltas, feasible, failing=()):
        def check(res):
            if res.feasible != feasible:
                return f"composite({k},{n},{deltas}): feasible={res.feasible}"
            if not feasible:
                if res.failing_modulus not in failing:
                    return (f"composite({k},{n},{deltas}): failing modulus "
                            f"{res.failing_modulus}, expected one of {sorted(failing)}")
                return None
            w = res.witness
            polygon.validate(w.entries, n, "geometric")
            if w.k != k or _closed_form(list(w.residues()), n).deltas != deltas:
                return f"composite({k},{n},{deltas}): witness {w} has another group"
            return None

        return Op("composite_feasible",
                  lambda: construct.composite_feasible(k, n, deltas), _ok(check))

    def _triangle_target(self, want_feasible):
        """A k=3 target whose feasibility follows from the admissibility rule."""
        while True:
            n = _coprime_product(self.rng, _K3_PRIME_POWERS, self.rng.choice((2, 3)), 5000)
            alphas = [a for a in divisors(n) if _admissible_alpha(a) == want_feasible]
            if alphas:
                break
        alpha = self.rng.choice(alphas)
        deltas = tuple(x for x in (n, n // alpha) if x > 1)
        # prime powers whose local alpha the admissibility rule refuses
        failing = {p**e for p, e in prime_factorization(n).items()
                   if not _admissible_alpha(gcd(alpha, p**e))}
        return self._composite_op(3, n, deltas, want_feasible, failing)

    def _quadrilateral_target(self):
        n = _coprime_product(self.rng, _K4_PRIME_POWERS, 2, 200)
        while True:
            entries = [self.rng.randrange(1, 2 * n) for _ in range(3)]
            entries.append(2 * n - sum(entries))
            if (all(0 < a < 2 * n and a != n for a in entries)
                    and gcd(*entries, n) == 1):
                break
        deltas = _closed_form(entries, n).deltas
        return self._composite_op(4, n, deltas, True)

    def _band(self, centre):
        return self._triangle_op(self.rng.randint(centre * 97 // 100, centre * 103 // 100))

    def slots(self):
        out = [lambda s=s: self._prime_op(*self.rng.choice(s)) for s in self.prime_strata]
        out += [lambda ks=ks: self._prime_op(*self.rng.choice(
                    [(k, p) for k, p in self.adjacent if k in ks]))
                for ks in self.ADJACENT]
        out += [lambda c=c: self._band(c) for c in self.TRIANGLE_BANDS]
        out += [lambda: self._triangle_target(True), lambda: self._triangle_target(False),
                self._quadrilateral_target,
                lambda: self._triangle_target(self.rng.random() < 0.5)]
        return out

    def warmup(self):
        return [self._prime_op(3, 5), self._triangle_op(30),
                self._composite_op(3, 35, (35,), False, {5})]


# ---- cli_verify ----

class CliVerify(Workload):
    """cli.main for `group --verify` and `verify`, with refusals and caps."""

    name = "cli_verify"
    tail_percentile = 95.0
    trace_rounds = 12
    # moduli on each side of n*k = 256, where the oracle switches from
    # bytes to tuple permutations
    MODULI = {
        (3, "bytes"): (49, 57, 63, 76, 84),
        (3, "tuple"): (91, 93, 111, 117, 129),
        (4, "bytes"): (30, 36, 40, 42, 48, 60),
        (4, "tuple"): (65, 66, 70, 78, 84, 90),
    }
    GROUP_RANGE = (150, 1500)   # |G| a normal request enumerates
    # warm-up requests stay near the bottom of that range, so that set-up
    # time does not swing with the seed's draw of |G|
    WARMUP_GROUP_RANGE = (150, 200)

    def _tuple(self, k, side, group_range=GROUP_RANGE):
        """A random algebraic tuple with its closed-form descriptor."""
        while True:
            n = self.rng.choice(self.MODULI[(k, side)])
            for _ in range(2000):
                entries = _random_algebraic(self.rng, k, n)
                desc = _closed_form(entries, n)
                if group_range[0] <= desc.order <= group_range[1]:
                    return n, entries, desc

    @staticmethod
    def _main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _op(self, argv, check, kind):
        def outcome(result, error):
            if error is not None:
                return f"{argv}: unexpected {type(error).__name__}: {error}"
            return check(*result)
        return Op(kind, lambda: self._main(argv), outcome)

    def _group(self, k, side, group_range=GROUP_RANGE):
        n, entries, desc = self._tuple(k, side, group_range)
        argv = ["group", "--n", str(n), "--tuple", ",".join(map(str, entries)),
                "--verify", "--json"]

        def check(code, out, err):
            if code != 0:
                return f"{argv}: exit {code}: {err.strip()}"
            doc = json.loads(out)
            want = {"n": n, "k": k, "deltas": list(desc.deltas), "order": desc.order}
            if doc["group"] != want or doc["tuple"] != {"n": n, "entries": entries}:
                return f"{argv}: group {doc['group']}, closed form gives {want}"
            if doc["oracle"] != {"group_order": desc.order,
                                 "span_factors": list(desc.deltas), "ok": True}:
                return f"{argv}: oracle {doc['oracle']}"
            return None

        return self._op(argv, check, "group --verify")

    def _verify(self, k, side, group_range=GROUP_RANGE):
        n, entries, desc = self._tuple(k, side, group_range)
        argv = ["verify", "--n", str(n), "--tuple", ",".join(map(str, entries)), "--json"]

        def check(code, out, err):
            if code != 0:
                return f"{argv}: exit {code}: {err.strip()}"
            doc = json.loads(out)
            want = {"n": n, "k": k, "group_order": desc.order,
                    "translation_order": desc.order // k,
                    "action_trivial": len(set(entries)) == 1, "passed": True}
            if any(doc[key] != value for key, value in want.items()):
                return f"{argv}: report {doc}, expected {want}"
            if not all(doc["clauses"].values()) or len(doc["clauses"]) != 8:
                return f"{argv}: clauses {doc['clauses']}"
            return None

        return self._op(argv, check, "verify")

    def _refused(self):
        """Exit 1: the tuple fails validation (bad sum or a common factor)."""
        k, side = self.rng.choice(tuple(self.MODULI))
        n, entries, _ = self._tuple(k, side)
        if self.rng.random() < 0.5:
            entries = entries[:-1] + [(entries[-1] + 1) % n]
            argv, reason = ["group", "--n", str(n)], "SumMismatch"
        else:
            p = min(prime_factorization(n))
            while not any(p * a % n for a in entries):
                entries = _random_algebraic(self.rng, k, n)
            entries = [p * a % n for a in entries]
            argv, reason = ["verify", "--n", str(n)], "GcdNotOne"
        argv += ["--tuple", ",".join(map(str, entries)), "--json"]
        if argv[0] == "group":
            argv.append("--verify")

        def check(code, out, err):
            if code != 1 or out or reason not in err:
                return f"{argv}: exit {code}, wanted 1 with {reason}: {err.strip()}"
            return None

        return self._op(argv, check, "refused")

    def _capped(self):
        """Exit 2: one element short of the group or span the tuple needs."""
        k, side = self.rng.choice(tuple(self.MODULI))
        n, entries, desc = self._tuple(k, side)
        tup = ",".join(map(str, entries))
        if self.rng.random() < 0.5:
            argv = ["group", "--n", str(n), "--tuple", tup, "--verify",
                    "--max-group", str(desc.order - 1), "--json"]
        else:
            argv = ["verify", "--n", str(n), "--tuple", tup,
                    "--max-span", str(desc.order // k - 1), "--json"]

        def check(code, out, err):
            if code != 2 or out or "cap exceeded" not in err:
                return f"{argv}: exit {code}, wanted 2: {err.strip()}"
            return None

        return self._op(argv, check, "capped")

    def slots(self):
        out = []
        for k, side in self.MODULI:
            out.append(lambda k=k, side=side: self._group(k, side))
            out.append(lambda k=k, side=side: self._verify(k, side))
        return out + [self._refused, self._capped]

    def warmup(self):
        return [self._group(3, "bytes", self.WARMUP_GROUP_RANGE),
                self._verify(4, "bytes", self.WARMUP_GROUP_RANGE)]


WORKLOADS = {w.name: w for w in (Census, Invariants, Classify, CliVerify)}
