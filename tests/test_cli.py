import json
import os
import subprocess
import sys
import time
from math import gcd

import pytest

import billiard_monodromy
from billiard_monodromy import (
    circulant, cli, construct, exactla, numtheory, oracle, polyfp, validate)
from billiard_monodromy.cli import main
from billiard_monodromy.exactla import invariant_factors_mod


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def roundtrip(line):
    doc = json.loads(line)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class TestGroup:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "group", "--n", "5", "--tuple", "2,2,2,4")
        assert code == 0
        assert out.splitlines()[0] == "(C5 x C5 x C5) : C4, order 500"

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "group", "--n", "5", "--tuple", "2,2,2,4",
                           "--verify")
        assert code == 0
        assert out.splitlines()[1] == "oracle: OK (|G|=500)"

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "group", "--n", "5", "--tuple", "2,2,2,4",
                           "--json")
        assert code == 0
        line = out.strip()
        assert roundtrip(line) == line
        doc = json.loads(line)
        assert doc["group"] == {"n": 5, "k": 4, "deltas": [5, 5, 5], "order": 500}
        assert doc["tuple"] == {"n": 5, "entries": [2, 2, 2, 4]}

    def test_invalid_tuple_is_domain_error(self, capsys):
        code, _, err = run(capsys, "group", "--n", "5", "--tuple", "1,1,1")
        assert code == 1
        assert "SumMismatch" in err

    def test_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "group", "--n", "5", "--tuple", "2,2,2,4",
                           "--verify", "--max-group", "10")
        assert code == 2
        assert "cap" in err.lower()

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "group", "--n", "5")
        assert code == 3

    def test_malformed_tuple_is_usage(self, capsys):
        code, _, _ = run(capsys, "group", "--n", "5", "--tuple", "2,x,2")
        assert code == 3


class TestSnf:
    def test_circulant_mode(self, capsys):
        code, out, _ = run(capsys, "snf", "--n", "5", "--tuple", "2,2,2,4")
        assert code == 0
        assert "divisors: 2, 2, 2, 10" in out
        code, out, _ = run(capsys, "snf", "--n", "5", "--tuple", "2,2,2,4", "--json")
        assert (code, json.loads(out)["divisors"]) == (0, [2, 2, 2, 10])

    def test_matrix_mode_json(self, capsys):
        code, out, _ = run(capsys, "snf", "--matrix", "[[2,0],[0,3]]", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["divisors"] == [1, 6]
        assert roundtrip(out.strip()) == out.strip()

    def test_missing_input_is_usage(self, capsys):
        code, _, _ = run(capsys, "snf")
        assert code == 3

    @pytest.mark.parametrize("circulant_args", [
        [], ["--n", "5", "--tuple", "2,2,2,4"]], ids=["alone", "with-circulant"])
    def test_empty_matrix_is_usage(self, capsys, circulant_args):
        # an empty --matrix is parsed, not taken as absent
        code, out, err = run(capsys, "snf", "--matrix", "", *circulant_args)
        assert (code, out) == (3, "")
        assert err.startswith("error: --matrix must be a JSON array of rows: ")

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_modulus_is_domain_error(self, capsys, n):
        code, out, err = run(capsys, "snf", "--n", n, "--tuple", "1,2")
        assert (code, out) == (1, "")
        assert err == ("rejected: PreconditionFailed: modulus must be positive, "
                       f"got {n}\n")

    @pytest.mark.parametrize("argv,shape", [
        (["--n", "17", "--tuple", ",".join(["1"] * 17)], "17 x 17"),
        (["--matrix", json.dumps([[1] * 17] * 18)], "18 x 17"),
    ], ids=["circulant", "matrix"])
    def test_dimension_cap_exit_code(self, capsys, argv, shape):
        code, out, err = run(capsys, "snf", *argv)
        assert (code, out) == (2, "")
        assert err == (f"cap exceeded: Smith normal form of a {shape} matrix "
                       f"exceeds SNF_DIM_CAP={exactla.SNF_DIM_CAP}\n")

    def test_dimension_cap_admits_the_cap(self, capsys):
        n, entries = 720720, list(range(1, 16))
        entries.append(-sum(entries) % n)
        assert len(entries) == exactla.SNF_DIM_CAP
        code, out, _ = run(capsys, "snf", "--n", str(n),
                           "--tuple", ",".join(map(str, entries)), "--json")
        assert code == 0
        C = circulant(validate(entries, n))
        divisors = json.loads(out)["divisors"]
        assert tuple(gcd(d, n) for d in divisors) == invariant_factors_mod(C, n)

    @pytest.mark.parametrize("matrix", [
        '[["a"]]', "[[null]]", "[[[1]]]", "[[1.5, 2]]", "[[true]]", "[[]]",
        "[[1,2],[3]]",
    ])
    def test_non_integer_or_empty_rows_are_usage(self, capsys, matrix):
        code, out, err = run(capsys, "snf", "--matrix", matrix)
        assert code == 3
        assert out == "" and err.startswith("error: --matrix")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    def test_input_over_the_digit_limit_is_usage(self, capsys):
        digits = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "snf", "--matrix", f"[[{'7' * (digits + 1)}]]")
        assert (code, out) == (3, "")
        assert err.startswith("error: --matrix must be a JSON array of rows: ")
        assert f"({digits} digits)" in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_transform_over_the_digit_limit_is_capped(self, capsys, json_flag):
        # a 9 x 9 circulant whose V reaches 704 digits while D stays at 50
        argv = ["snf", "--n", "720720", "--tuple", "249523,621429,570665,136758,"
                "387926,633256,497081,656115,571567", *json_flag]
        assert run(capsys, *argv)[0] == 0
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, *argv)
        finally:
            sys.set_int_max_str_digits(saved)
        assert (code, out) == (2, "")
        assert err == ("cap exceeded: an entry of U, D or V has more than 640 "
                       "digits, the interpreter's int-to-str limit "
                       "(sys.set_int_max_str_digits)\n")


class TestVerify:
    def test_passing(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--tuple", "1,1,1")
        assert code == 0
        assert "pair_powers_commute: PASS" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "7", "--tuple", "3,4,3,4",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["group_order"] == 28
        assert roundtrip(out.strip()) == out.strip()

    @pytest.mark.parametrize("command", [
        ["verify"], ["group", "--verify"], ["verify", "--json"]])
    @pytest.mark.parametrize("flag,closure", [
        ("--max-span", "span"), ("--max-group", "group")])
    def test_cap_names_the_closure(self, capsys, command, flag, closure):
        # |N| = 125 and |G| = 500: a cap of 99 stops the closure it governs
        code, out, err = run(capsys, *command, "--n", "5", "--tuple", "2,2,2,4",
                             flag, "99")
        assert code == 2
        assert out == ""
        assert err == f"cap exceeded: {closure} closure exceeded cap 99\n"

    @pytest.mark.parametrize("command", [["verify"], ["group", "--verify"]])
    def test_orbit_over_the_group_cap_builds_no_permutations(
            self, capsys, monkeypatch, command):
        # the orbit of edge (0, 0) alone holds 3 n > 10^6 edges
        def spy(t):
            raise AssertionError("build_permutations called")

        monkeypatch.setattr(oracle, "build_permutations", spy)
        n = 10**18 + 3
        code, out, err = run(capsys, *command, "--n", str(n),
                             "--tuple", f"1,1,{n - 2}")
        assert (code, out) == (2, "")
        assert err == ("cap exceeded: group closure exceeded cap "
                       f"{oracle.DEFAULT_GROUP_CAP}\n")

    @pytest.mark.parametrize("command", [["verify"], ["group", "--verify"]],
                             ids=["verify", "group-verify"])
    def test_closure_entry_budget_bounds_memory(self, command):
        # |G| = 3 * 10^6 is over the group cap, but the orbit bound k*n/gcd
        # = 3000 is not; each element holds 3000 entries, so the budget
        # stops the closure long before its cap.  Under a 512 MB address
        # space limit, a run without the budget ends in a MemoryError.
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        src = os.path.dirname(os.path.dirname(billiard_monodromy.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "billiard_monodromy.cli", *command,
             "--n", "1000", "--tuple", "1,1,998"],
            capture_output=True, text=True, preexec_fn=limit_memory,
            env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        budget = oracle.CLOSURE_ENTRY_BUDGET
        assert proc.stderr == (
            f"cap exceeded: group closure exceeded CLOSURE_ENTRY_BUDGET="
            f"{budget} stored permutation entries "
            f"({budget // 3000} elements of 3000 entries)\n")


class TestFactor:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "factor", "--k", "6", "--p", "2")
        assert code == 0
        assert out.splitlines() == ["(x+1 (mod 2))^2", "(x^2+x+1 (mod 2))^2"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "factor", "--k", "3", "--p", "5", "--json")
        doc = json.loads(out)
        assert doc["factors"] == [
            {"coeffs": [4, 1], "multiplicity": 1},
            {"coeffs": [1, 1, 1], "multiplicity": 1},
        ]

    def test_strong_pseudoprime_modulus_is_refused(self, capsys):
        # 399165290221 * 798330580441 passes Miller-Rabin to every base 2..37
        code, out, err = run(capsys, "factor", "--k", "3", "--p",
                             "318665857834031151167461")
        assert code == 1
        assert out == ""
        assert "318665857834031151167461 is not prime" in err

    def test_nonpositive_k_is_domain_error(self, capsys):
        code, out, err = run(capsys, "factor", "--k", "0", "--p", "5")
        assert (code, out) == (1, "")
        assert err == ("rejected: PreconditionFailed: k must be positive, "
                       "got 0\n")


@pytest.mark.parametrize("argv,expected", [
    (["factor", "--k", "4", "--p", "1000000007"],
     ["(x+1 (mod 1000000007))", "(x+1000000006 (mod 1000000007))",
      "(x^2+1 (mod 1000000007))"]),
    # p = 2q + 1 with q prime: finding roots of unity must not factor p - 1
    (["factor", "--k", "4", "--p", "1000000000000007243"],
     ["(x+1 (mod 1000000000000007243))",
      "(x+1000000000000007242 (mod 1000000000000007243))",
      "(x^2+1 (mod 1000000000000007243))"]),
    (["classify-triangle", "--n", "1000000007"],
     ["(C1000000007 x C1000000007) : C3, order 3000000042000000147  "
      "witness [1, 1, 1000000005] (mod 1000000007)",
      "excluded: (C1000000007) : C3  [norm-form-admissibility]"]),
], ids=["factor", "factor-safe-prime", "classify-triangle"])
def test_large_prime_needs_no_scan_of_the_field(capsys, argv, expected):
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines() == expected


@pytest.mark.parametrize("argv,expected", [
    (["group", "--n", "1000000000000000003", "--tuple", "1,1,1000000000000000001"],
     "(C1000000000000000003 x C1000000000000000003) : C3, "
     "order 3000000000000000018000000000000000027\n"),
    (["group", "--n", "1000000000000000003", "--tuple", "1,1,1000000000000000001",
      "--json"],
     '{"group":{"deltas":[1000000000000000003,1000000000000000003],"k":3,'
     '"n":1000000000000000003,"order":3000000000000000018000000000000000027},'
     '"tuple":{"entries":[1,1,1000000000000000001],"n":1000000000000000003}}\n'),
], ids=["text", "json"])
def test_group_factors_a_large_modulus(capsys, argv, expected):
    # trial division to the square root of n would take minutes here
    assert run(capsys, *argv) == (0, expected, "")


def test_rho_cap_exit_code(capsys, monkeypatch):
    # 1000003 * 1000033: no factor below the trial-division limit
    monkeypatch.setattr(numtheory, "POLLARD_RHO_CAP", 10)
    code, out, err = run(capsys, "group", "--n", "1000036000099",
                         "--tuple", "1,1,1000036000097")
    assert (code, out) == (2, "")
    assert err == ("cap exceeded: factoring 1000036000099 exceeded "
                   "POLLARD_RHO_CAP=10 rho steps\n")


@pytest.mark.parametrize("argv,expected", [
    # two quintic factors
    (["factor", "--k", "11", "--p", "31"],
     "(x+30 (mod 31))\n"
     "(x^5+10*x^4+30*x^3+x^2+9*x+30 (mod 31))\n"
     "(x^5+22*x^4+30*x^3+x^2+21*x+30 (mod 31))\n"),
    (["classify-prime", "--k", "11", "--p", "31"],
     "(C31 x C31 x C31 x C31 x C31 x C31 x C31 x C31 x C31 x C31) : C11, "
     "order 9015911156788811  witness [32, 52, 45, 35, 24, 27, 24, 4, 14, 21, 1] "
     "(mod 31)\n"
     "(C31 x C31 x C31 x C31 x C31) : C11, order 314920661  "
     "witness [32, 48, 54, 61, 8, 23, 23, 3, 21, 5, 1] (mod 31)\n"
     + "".join(f"excluded: ({' x '.join(['C31'] * r)}) : C11  "
               "[factor-degree-subset-sum]\n" for r in (9, 8, 7, 6, 4, 3, 2, 1))),
    (["factor", "--k", "11", "--p", "37"],
     "(x+36 (mod 37))\n"
     "(x^5+14*x^4+36*x^3+x^2+13*x+36 (mod 37))\n"
     "(x^5+24*x^4+36*x^3+x^2+23*x+36 (mod 37))\n"),
    # three quadratic factors over a field far too large to scan
    (["factor", "--k", "7", "--p", "1000000000000007243"],
     "(x+1000000000000007242 (mod 1000000000000007243))\n"
     "(x^2+11236334631057132*x+1 (mod 1000000000000007243))\n"
     "(x^2+99765249213271177*x+1 (mod 1000000000000007243))\n"
     "(x^2+888998416155678935*x+1 (mod 1000000000000007243))\n"),
    (["factor", "--k", "30", "--p", "1000000007"],
     "(x+1 (mod 1000000007))\n"
     "(x+1000000006 (mod 1000000007))\n"
     "(x^2+x+1 (mod 1000000007))\n"
     "(x^2+1000000006*x+1 (mod 1000000007))\n"
     "(x^4+x^3+x^2+x+1 (mod 1000000007))\n"
     "(x^4+647922937*x^3+1000000005*x^2+352077069*x+1 (mod 1000000007))\n"
     "(x^4+647922938*x^3+1000000005*x^2+352077070*x+1 (mod 1000000007))\n"
     "(x^4+352077069*x^3+1000000005*x^2+647922937*x+1 (mod 1000000007))\n"
     "(x^4+352077070*x^3+1000000005*x^2+647922938*x+1 (mod 1000000007))\n"
     "(x^4+1000000006*x^3+x^2+1000000006*x+1 (mod 1000000007))\n"),
], ids=["factor-11-31", "classify-prime-11-31", "factor-11-37",
        "factor-7-large-prime", "factor-30-1000000007"])
def test_equal_degree_split_by_coset_sums(capsys, argv, expected):
    polyfp._factor_xk_minus_1_cached.cache_clear()
    assert run(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize("command", ["factor", "classify-prime"])
def test_split_attempt_cap_exit_code(capsys, monkeypatch, command):
    # the two sextic factors of x^13 - 1 over F_17 take five random attempts
    monkeypatch.setattr(polyfp, "SPLIT_ATTEMPT_CAP", 2)
    polyfp._factor_xk_minus_1_cached.cache_clear()
    code, out, err = run(capsys, command, "--k", "13", "--p", "17")
    assert (code, out) == (2, "")
    assert err == ("cap exceeded: splitting the degree-6 factors of x^13 - 1 "
                   "over F_17 exceeded SPLIT_ATTEMPT_CAP=2 random attempts\n")


@pytest.mark.parametrize("argv", [
    ("factor", "129", "139"),
    ("factor", "3000", "1000000007"),
    ("classify-prime", "129", "139"),
    ("classify-prime", "3000", "1000000007"),
    # p = k + 1 builds the same table, and the cap is checked before d
    ("classify-prime", "130", "131"),
    ("classify-prime", "100000", "700001"),
    ("construct", "130", "131", "--d", "1"),
    ("construct", "1000002", "1000003", "--d", "3"),
], ids="-".join)
def test_factor_k_cap_exit_code(capsys, argv):
    command, k, p, *d = argv
    code, out, err = run(capsys, command, "--k", k, "--p", p, *d)
    assert (code, out) == (2, "")
    assert err == (f"cap exceeded: factoring x^{k} - 1 over F_{p} "
                   "exceeds FACTOR_K_CAP=128\n")


def test_factor_k_cap_admits_the_cap(capsys):
    code, out, _ = run(capsys, "factor", "--k", "128", "--p", "257")
    assert code == 0 and len(out.splitlines()) == 128


def test_triangle_witness_for_a_large_prime(capsys):
    # a prime n = 1 mod 3: alpha = n is witnessed at the lesser cube root of
    # unity a1, and the other root is a2 = n - 1 - a1
    n = 1000000000000000003
    a1 = 499999999500000001
    assert (1 + a1 + a1 * a1) % n == 0
    code, out, _ = run(capsys, "classify-triangle", "--n", str(n))
    assert code == 0
    assert out.splitlines() == [
        f"(C{n} x C{n}) : C3, order {3 * n * n}  witness [1, 1, {n - 2}] (mod {n})",
        f"(C{n}) : C3, order {3 * n}  witness [1, {a1}, {n - 1 - a1}] (mod {n})"]
    code, out, _ = run(capsys, "classify-triangle", "--n", str(n), "--json")
    assert code == 0
    assert out == (
        '{"achievable":[{"group":{"deltas":[1000000000000000003,'
        '1000000000000000003],"k":3,"n":1000000000000000003,'
        '"order":3000000000000000018000000000000000027},"witness":{"entries":'
        '[1,1,1000000000000000001],"n":1000000000000000003}},{"group":'
        '{"deltas":[1000000000000000003],"k":3,"n":1000000000000000003,'
        '"order":3000000000000000009},"witness":{"entries":[1,'
        '499999999500000001,500000000500000001],"n":1000000000000000003}}],'
        '"excluded":[],"parameters":{"n":1000000000000000003}}\n')


def test_triangle_root_cap_exit_code(capsys):
    # eleven primes 1 mod 3, each with two roots: 3^11 divisors and roots
    n = 7 * 13 * 19 * 31 * 37 * 43 * 61 * 67 * 73 * 79 * 97
    code, out, err = run(capsys, "classify-triangle", "--n", str(n))
    assert (code, out) == (2, "")
    assert err == (f"cap exceeded: classifying triangles mod {n} lists 177147 "
                   "divisors and roots, over TRIANGLE_ROOT_CAP=100000\n")


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv,flag", [
    (["group", "--n", "5", "--tuple", "2,2,2,4", "--verify"], "--max-span"),
    (["verify", "--n", "5", "--tuple", "2,2,2,4"], "--max-group"),
    (["composite", "--k", "3", "--n", "10", "--deltas", "10,10"], "--max-cases"),
], ids=["max-span", "max-group", "max-cases"])
def test_cap_must_be_positive(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv, flag, value)
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == (
        f"error: argument {flag}: must be a positive integer, got '{value}'")


@pytest.mark.parametrize("argv,caps", [
    (["group", "--n", "5", "--tuple", "2,2,2,4"],
     {"max_span": oracle.DEFAULT_SPAN_CAP, "max_group": oracle.DEFAULT_GROUP_CAP}),
    (["composite", "--k", "3", "--n", "10", "--deltas", "10,10"],
     {"max_cases": construct.DEFAULT_PRIME_POWER_CAP}),
], ids=["group", "composite"])
def test_caps_default_to_the_library_constants(argv, caps):
    args = cli.build_parser().parse_args(argv)
    assert {name: getattr(args, name) for name in caps} == caps


class TestEnumerate:
    def test_cap_exit_code(self, capsys):
        code, out, err = run(capsys, "enumerate", "--k", "5", "--n", "200")
        assert (code, out) == (2, "")
        assert err == ("cap exceeded: enumerating geometric 5-tuples mod 200 "
                       "exceeded ENUMERATE_CAP=50000 entries\n")

    def test_cap_admits_the_cap(self, capsys, monkeypatch):
        # the cap counts k entries per tuple: 10,000 tuples at k = 5, and
        # the 9 geometric triangles mod 6 are 27 entries
        assert cli.ENUMERATE_CAP // 5 == 10_000
        monkeypatch.setattr(cli, "ENUMERATE_CAP", 27)
        code, out, _ = run(capsys, "enumerate", "--k", "3", "--n", "6", "--groups")
        assert code == 0 and out.endswith("9 tuples\n")
        monkeypatch.setattr(cli, "ENUMERATE_CAP", 26)
        assert run(capsys, "enumerate", "--k", "3", "--n", "6")[0] == 2

    def test_cap_far_past_the_recursion_limit(self, capsys, monkeypatch):
        # each tuple's entries come from a loop, not one generator per entry
        for k, cap in [(1000, cli.ENUMERATE_CAP), (1500, 15_000)]:
            monkeypatch.setattr(cli, "ENUMERATE_CAP", cap)
            code, out, err = run(capsys, "enumerate", "--k", str(k), "--n", "3")
            assert (code, out) == (2, "")
            assert err == (f"cap exceeded: enumerating geometric {k}-tuples mod 3 "
                           f"exceeded ENUMERATE_CAP={cap} entries\n")

    @pytest.mark.parametrize("k,n", [("-1", "3"), ("0", "3"), ("1", "3"), ("0", "5")],
                             ids=["-1", "0", "1", "0-mod-5"])
    def test_algebraic_with_fewer_than_two_entries_is_empty(self, capsys, k, n):
        assert run(capsys, "enumerate", "--k", k, "--n", n,
                   "--level", "algebraic") == (0, "0 tuples\n", "")

    def test_single_triangle_mod3(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "3", "--n", "3")
        assert code == 0
        assert "[1, 1, 1] (mod 3)" in out and "1 tuples" in out

    def test_json_with_groups(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "3", "--n", "3",
                           "--groups", "--json")
        doc = json.loads(out)
        assert doc["count"] == 1
        assert doc["tuples"][0]["group"]["deltas"] == [3]


class TestClassify:
    def test_triangle_81_json(self, capsys):
        code, out, _ = run(capsys, "classify-triangle", "--n", "81", "--json")
        assert code == 0
        doc = json.loads(out)
        wits = [item["witness"]["entries"] for item in doc["achievable"]]
        assert wits == [[1, 2, 78], [1, 1, 79]]
        assert roundtrip(out.strip()) == out.strip()

    def test_prime_text(self, capsys):
        code, out, _ = run(capsys, "classify-prime", "--k", "4", "--p", "5")
        assert code == 0
        assert "(C5 x C5 x C5) : C4" in out

    def test_prime_rejects_p_below_k(self, capsys):
        code, _, err = run(capsys, "classify-prime", "--k", "5", "--p", "3")
        assert code == 1


class TestCalculus:
    def test_construct(self, capsys):
        code, out, _ = run(capsys, "construct", "--k", "4", "--p", "5",
                           "--d", "2", "--json")
        doc = json.loads(out)
        assert doc["tuple"]["entries"] == [4, 4, 1, 1]

    def test_combine_same_k(self, capsys):
        code, out, _ = run(capsys, "combine", "--n1", "5", "--tuple1", "1,4,4,1",
                           "--n2", "6", "--tuple2", "2,3,4,3", "--json")
        assert json.loads(out)["tuple"] == {"n": 30, "entries": [26, 9, 4, 21]}

    def test_combine_coprime_k(self, capsys):
        code, out, _ = run(capsys, "combine", "--n1", "7", "--tuple1", "1,2,4",
                           "--n2", "5", "--tuple2", "2,3,3,2", "--json")
        assert json.loads(out)["tuple"]["entries"] == [
            22, 23, 18, 22, 2, 18, 8, 2, 32, 8, 23, 32]

    def test_project(self, capsys):
        code, out, _ = run(capsys, "project", "--n", "25", "--tuple",
                           "1,2,24,23", "--to", "5", "--json")
        assert json.loads(out)["tuple"] == {"n": 5, "entries": [1, 2, 4, 3]}

    def test_lift(self, capsys):
        code, out, _ = run(capsys, "lift", "--n", "7", "--tuple", "3,4",
                           "--ell", "4", "--json")
        assert json.loads(out)["tuple"] == {"n": 7, "entries": [3, 4, 3, 4]}

    def test_composite_infeasible_is_success(self, capsys):
        code, out, _ = run(capsys, "composite", "--k", "3", "--n", "35",
                           "--deltas", "35")
        assert code == 0
        assert out.startswith("infeasible (mod 5)")

    @pytest.mark.parametrize("ell", ["0", "-2"])
    def test_lift_to_nonpositive_ell_is_domain_error(self, capsys, ell):
        code, out, err = run(capsys, "lift", "--n", "5", "--tuple", "1,4",
                             "--ell", ell)
        assert (code, out) == (1, "")
        assert err == ("rejected: PreconditionFailed: ell must be positive, "
                       f"got {ell}\n")

    @pytest.mark.parametrize("deltas,bad", [("6,0", "0"), ("-6", "-6")])
    def test_composite_nonpositive_target_is_domain_error(self, capsys, deltas, bad):
        code, out, err = run(capsys, "composite", "--k", "3", "--n", "6",
                             "--deltas", deltas)
        assert (code, out) == (1, "")
        assert err == ("rejected: PreconditionFailed: target factor "
                       f"{bad} is not positive\n")

    @pytest.mark.parametrize("n,deltas", [("0", "5"), ("-6", "6")])
    def test_composite_modulus_below_two_is_domain_error(self, capsys, n, deltas):
        code, out, err = run(capsys, "composite", "--k", "3", "--n", n,
                             "--deltas", deltas)
        assert (code, out) == (1, "")
        assert err == f"rejected: PreconditionFailed: need n >= 2, got {n}\n"

    def test_composite_cap_exit_code(self, capsys):
        # the cap is compared with q^k = 5^3, though k = 3 builds 6 tuples mod 5
        code, out, err = run(capsys, "composite", "--k", "3", "--n", "10",
                             "--deltas", "10,10", "--max-cases", "10")
        assert (code, out) == (2, "")
        assert err == "cap exceeded: prime power 5: q^k = 125 exceeds the cap 10\n"

    def test_composite_json(self, capsys):
        code, out, _ = run(capsys, "composite", "--k", "3", "--n", "6",
                           "--deltas", "6,2", "--json")
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert roundtrip(out.strip()) == out.strip()


def _degrees(doc):
    return [len(f["coeffs"]) - 1 for f in doc["factors"]]


def _d(k, item):
    # the gcd degree d of the group C_p^(k - d) : C_k
    return k - len(item["group"]["deltas"])


@pytest.mark.parametrize("argv,project,expected", [
    # k = 32 mod 720720: 2^4 and 3^2 reach the packed-row elimination
    (["group", "--n", "720720", "--tuple", "1,2,3,4,1,2,3,4,1,2,3,4,1,2,3,4,"
      "2,4,6,8,2,4,6,8,2,4,6,8,2,4,6,720608", "--json"],
     lambda d: d["group"]["deltas"], [720720] * 16 + [240240] * 2 + [30030] + [3003] * 12),
    # k = 32 mod the prime 999983: the e = 1 gcd route on packed lanes
    (["group", "--n", "999983", "--tuple",
      ",".join(["1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,999863"] * 2), "--json"],
     lambda d: d["group"]["deltas"], [999983] * 15),
    # x^60 - 1 over F_1000003: its first gcds are 61 coefficients long
    (["factor", "--k", "60", "--p", "1000003", "--json"],
     _degrees, [1] * 6 + [2] * 3 + [4] * 12),
    # three factor degrees: the degree-4 product is x^gcd(120, p^4 - 1) - 1
    # divided by the two smaller ones
    (["factor", "--k", "120", "--p", "1000003", "--json"],
     _degrees, [1] * 6 + [2] * 9 + [4] * 24),
    # p > k + 1 reads one factor and subset table per (k, p), small-d and
    # large-d routes; p = k + 1 takes the divisor
    (["classify-prime", "--k", "7", "--p", "11", "--json"],
     lambda d: ([(_d(7, a), a["witness"]["entries"]) for a in d["achievable"]],
                [(_d(7, e), e["rule"]) for e in d["excluded"]]),
     ([(1, [12, 16, 15, 2, 4, 5, 1]), (4, [12, 15, 21, 1, 3, 2, 1])],
      [(d, "factor-degree-subset-sum") for d in (2, 3, 5, 6)])),
    (["classify-prime", "--k", "10", "--p", "11", "--json"],
     lambda d: ([_d(10, a) for a in d["achievable"]], d["excluded"]),
     (list(range(1, 10)), [])),
    # the span's invariant factors from the oracle's annihilator counts;
    # 72 = 2^3 * 3^2 spreads both primes over several exponents
    (["group", "--n", "72", "--tuple", "1,5,7,59", "--verify", "--json"],
     lambda d: (d["oracle"]["ok"], d["oracle"]["span_factors"]), (True, [72, 12, 3])),
    # 10-byte span records; a(x) vanishes at x = 1 and two fifth roots of unity
    (["group", "--n", "71", "--tuple", "46,65,30,1,0", "--verify", "--json"],
     lambda d: (d["group"]["deltas"], d["group"]["order"], d["oracle"]),
     ([71, 71], 25205, {"group_order": 25205, "span_factors": [71, 71], "ok": True})),
    # equal residues: the shift fixes the span, (C5) : C5
    (["verify", "--n", "5", "--tuple", "1,1,1,1,1", "--json"],
     lambda d: (d["passed"], d["action_trivial"], d["group_order"],
                d["translation_order"]), (True, True, 25, 5)),
], ids=["group-720720", "group-999983", "factor-60", "factor-120",
        "classify-prime-7-11", "classify-prime-10-11", "group-verify-72",
        "group-verify-71", "verify-equal-residues"])
def test_pinned_json_values(capsys, argv, project, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert project(json.loads(out)) == expected


def test_every_subcommand_json_roundtrips(capsys):
    invocations = [
        ("group", "--n", "5", "--tuple", "2,2,2,4", "--verify"),
        ("snf", "--n", "5", "--tuple", "2,2,2,4"),
        ("verify", "--n", "3", "--tuple", "1,1,1"),
        ("factor", "--k", "6", "--p", "2"),
        ("enumerate", "--k", "3", "--n", "6", "--groups"),
        ("classify-prime", "--k", "4", "--p", "5"),
        ("classify-triangle", "--n", "12"),
        ("construct", "--k", "4", "--p", "5", "--d", "1"),
        ("combine", "--n1", "5", "--tuple1", "1,4,4,1",
         "--n2", "6", "--tuple2", "2,3,4,3"),
        ("project", "--n", "30", "--tuple", "26,9,4,21", "--to", "5"),
        ("lift", "--n", "7", "--tuple", "3,4", "--ell", "4"),
        ("composite", "--k", "3", "--n", "10", "--deltas", "10,10"),
    ]
    for argv in invocations:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        line = out.strip()
        assert "\n" not in line, argv
        assert roundtrip(line) == line, argv


def test_one_parser_serves_successive_calls(capsys, monkeypatch):
    # build_parser is cached, so argument defaults must not leak between
    # calls: each in-process result equals a fresh interpreter's.  COLUMNS
    # fixes the width argparse wraps the usage line to.
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(billiard_monodromy.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    calls = [
        ("group", "--n", "5"),
        ("factor", "--k", "6", "--p", "2", "--json"),
        ("group", "--n", "5", "--tuple", "2,2,2,4", "--verify", "--json"),
        ("group", "--n", "5", "--tuple", "2,2,2,4", "--json"),
    ]
    results = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in results] == [3, 0, 0, 0]
    assert "oracle" in json.loads(results[2][1])
    assert "oracle" not in json.loads(results[3][1])
    for argv, result in zip(calls, results):
        fresh = subprocess.run(
            [sys.executable, "-m", "billiard_monodromy.cli", *argv],
            capture_output=True, text=True, env=env)
        assert result == (fresh.returncode, fresh.stdout, fresh.stderr), argv
