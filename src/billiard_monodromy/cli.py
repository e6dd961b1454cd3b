"""Command-line front end.

Every subcommand maps to exactly one library operation and supports --json.
Exit codes: 0 success, 1 domain rejection, 2 cap exceeded, 3 usage error.
"""

import argparse
import json
import sys
from functools import cache

from . import construct, exactla, monodromy, oracle, polyfp
from .errors import CapExceeded, DomainError
from .polygon import enumerate_algebraic, enumerate_geometric, validate

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CAP = 2
EXIT_USAGE = 3

# entries `enumerate` lists before exit 2, k per tuple as each costs O(k):
# 10,000 tuples at k = 5; with --groups about 1 s there (n = 200) and 2 s
# at k = 32 (n = 1000) on a shared 2-vCPU host
ENUMERATE_CAP = 50_000


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _Usage(message)


def _parse_tuple(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise _Usage(f"tuple must be comma-separated integers, got {text!r}")


def _positive(text):
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _add_tuple_args(sp):
    sp.add_argument("--n", type=int, required=True, help="modulus")
    sp.add_argument("--tuple", required=True, help="comma-separated entries")


def _add_cap_args(sp):
    sp.add_argument("--max-span", type=_positive, default=oracle.DEFAULT_SPAN_CAP,
                    help="span enumeration cap (default %(default)s)")
    sp.add_argument("--max-group", type=_positive, default=oracle.DEFAULT_GROUP_CAP,
                    help="group closure cap (default %(default)s)")


def cmd_group(args):
    t = validate(_parse_tuple(args.tuple), args.n, args.level)
    desc = monodromy.group_of(t)
    doc = {"tuple": t.to_json_dict(), "group": desc.to_json_dict()}
    lines = [f"{desc.pretty()}, order {desc.order}"]
    if not args.verify:
        return doc, lines, EXIT_OK
    oracle.check_group_cap(t, args.max_group)
    pp = oracle.build_permutations(t)
    size = oracle.group_order(pp, cap=args.max_group)
    inv = oracle.span_invariants(t, cap=args.max_span)
    ok = size == desc.order and inv.factors == desc.deltas
    doc["oracle"] = {"group_order": size,
                     "span_factors": list(inv.factors), "ok": ok}
    lines.append(f"oracle: {'OK' if ok else 'MISMATCH'} (|G|={size})")
    return doc, lines, EXIT_OK if ok else EXIT_DOMAIN


def _parse_matrix(text):
    try:
        A = json.loads(text)
    except ValueError as e:
        # JSONDecodeError, or an integer over the int-to-str digit limit
        raise _Usage(f"--matrix must be a JSON array of rows: {e}")
    if (not isinstance(A, list) or not A
            or any(not isinstance(r, list) or len(r) != len(A[0]) for r in A)):
        raise _Usage("--matrix must be a nonempty rectangular array of rows")
    # bool is a subclass of int, and int() would truncate floats silently
    if not A[0] or any(type(x) is not int for row in A for x in row):
        raise _Usage("--matrix rows must be nonempty and hold only integers")
    return A


def cmd_snf(args):
    if args.matrix is not None:
        A = _parse_matrix(args.matrix)
    elif args.n is not None and args.tuple is not None:
        A = exactla.circulant(validate(_parse_tuple(args.tuple), args.n, "algebraic"))
    else:
        raise _Usage("snf needs either --matrix or both --n and --tuple")
    res = exactla.smith_normal_form(A)
    doc = {"U": res.U, "D": res.D, "V": res.V, "divisors": list(res.divisors)}
    lines = []
    try:
        for name, M in (("U", res.U), ("D", res.D), ("V", res.V)):
            lines.append(f"{name}:")
            lines.extend("  " + " ".join(map(str, row)) for row in M)
    except ValueError:
        # str() refuses an int over the interpreter's digit limit (3.10.7 on)
        raise CapExceeded("an entry of U, D or V has more than "
                          f"{sys.get_int_max_str_digits()} digits, the "
                          "interpreter's int-to-str limit "
                          "(sys.set_int_max_str_digits)") from None
    lines.append("divisors: " + ", ".join(map(str, res.divisors)))
    return doc, lines, EXIT_OK


def cmd_verify(args):
    t = validate(_parse_tuple(args.tuple), args.n, "algebraic")
    report = oracle.check_structure(t, span_cap=args.max_span,
                                    group_cap=args.max_group)
    doc = {
        "n": report.n, "k": report.k,
        "group_order": report.group_order,
        "translation_order": report.translation_order,
        "action_trivial": report.action_trivial,
        "clauses": report.clauses,
        "passed": report.passed,
    }
    lines = [f"{name}: {'PASS' if ok else 'FAIL'}"
             for name, ok in report.clauses.items()]
    lines.append(f"|G| = {report.group_order}, |N| = {report.translation_order}, "
                 f"action {'trivial' if report.action_trivial else 'nontrivial'}")
    return doc, lines, EXIT_OK if report.passed else EXIT_DOMAIN


def cmd_factor(args):
    factors = polyfp.factor_xk_minus_1(args.k, args.p)
    doc = {"k": args.k, "p": args.p, "factors": [
        {"coeffs": list(f.coeffs), "multiplicity": m} for f, m in factors]}
    lines = [f"({f})" + (f"^{m}" if m > 1 else "") for f, m in factors]
    return doc, lines, EXIT_OK


def cmd_enumerate(args):
    gen = (enumerate_geometric if args.level == "geometric"
           else enumerate_algebraic)(args.k, args.n)
    items, lines = [], []
    for t in gen:
        if (len(items) + 1) * args.k > ENUMERATE_CAP:
            raise CapExceeded(f"enumerating {args.level} {args.k}-tuples mod {args.n} "
                              f"exceeded ENUMERATE_CAP={ENUMERATE_CAP} entries",
                              partial=len(items) * args.k)
        item = {"tuple": t.to_json_dict()}
        line = str(t)
        if args.groups:
            desc = monodromy.group_of(t)
            item["group"] = desc.to_json_dict()
            line += f"  ->  {desc.pretty()}"
        items.append(item)
        lines.append(line)
    lines.append(f"{len(items)} tuples")
    doc = {"k": args.k, "n": args.n, "level": args.level,
           "count": len(items), "tuples": items}
    return doc, lines, EXIT_OK


def _report_output(report):
    lines = []
    for desc in report.achievable:
        wit = report.witnesses[desc]
        lines.append(f"{desc.pretty()}, order {desc.order}  witness {wit}")
    for desc, rule in report.excluded:
        lines.append(f"excluded: {desc.pretty()}  [{rule}]")
    return report.to_json_dict(), lines, EXIT_OK


def cmd_classify_prime(args):
    return _report_output(construct.classify_prime(args.k, args.p))


def cmd_classify_triangle(args):
    return _report_output(construct.classify_triangles(args.n))


def cmd_construct(args):
    t = construct.construct_prime_case(args.k, args.p, args.d)
    desc = monodromy.group_of(t)
    doc = {"tuple": t.to_json_dict(), "group": desc.to_json_dict()}
    return doc, [f"{t}  ->  {desc.pretty()}, order {desc.order}"], EXIT_OK


def _tuple_output(t):
    return {"tuple": t.to_json_dict()}, [str(t)], EXIT_OK


def cmd_combine(args):
    t1 = validate(_parse_tuple(args.tuple1), args.n1, "algebraic")
    t2 = validate(_parse_tuple(args.tuple2), args.n2, "algebraic")
    return _tuple_output(construct.combine_crt(t1, t2) if t1.k == t2.k
                         else construct.combine_coprime_k(t1, t2))


def cmd_project(args):
    return _tuple_output(construct.project(
        validate(_parse_tuple(args.tuple), args.n, "algebraic"), args.to))


def cmd_lift(args):
    return _tuple_output(construct.lift(
        validate(_parse_tuple(args.tuple), args.n, "algebraic"), args.ell))


def cmd_composite(args):
    result = construct.composite_feasible(
        args.k, args.n, _parse_tuple(args.deltas), per_prime_cap=args.max_cases)
    if result.feasible:
        line = f"feasible: witness {result.witness}"
    else:
        where = f" (mod {result.failing_modulus})" if result.failing_modulus else ""
        line = f"infeasible{where}: {result.detail}"
    return result.to_json_dict(), [line], EXIT_OK


@cache
def build_parser():
    parser = _Parser(prog="billiard-monodromy",
                     description="Monodromy groups of dessins on rational "
                                 "polygonal billiards surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("group", help="descriptor of a tuple's monodromy group")
    _add_tuple_args(sp)
    sp.add_argument("--level", choices=("algebraic", "geometric"),
                    default="algebraic")
    sp.add_argument("--verify", action="store_true",
                    help="cross-check with the permutation oracle")
    _add_cap_args(sp)
    sp.set_defaults(func=cmd_group)

    sp = sub.add_parser("snf", help="Smith normal form with transforms")
    sp.add_argument("--matrix", help="JSON array of rows")
    sp.add_argument("--n", type=int, help="modulus (circulant mode)")
    sp.add_argument("--tuple", help="entries (circulant mode)")
    sp.set_defaults(func=cmd_snf)

    sp = sub.add_parser("verify", help="run every structural check on a tuple")
    _add_tuple_args(sp)
    _add_cap_args(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("factor", help="factor x^k - 1 over F_p")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("enumerate", help="list all valid tuples for (k, n)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--level", choices=("geometric", "algebraic"),
                    default="geometric")
    sp.add_argument("--groups", action="store_true",
                    help="also print each tuple's group")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("classify-prime",
                        help="all groups of k-gons mod a prime p > k")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_classify_prime)

    sp = sub.add_parser("classify-triangle",
                        help="all triangle groups for a modulus n")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_classify_triangle)

    sp = sub.add_parser("construct",
                        help="witness k-gon mod p with gcd degree d")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("combine", help="CRT-combine two tuples")
    sp.add_argument("--n1", type=int, required=True)
    sp.add_argument("--tuple1", required=True)
    sp.add_argument("--n2", type=int, required=True)
    sp.add_argument("--tuple2", required=True)
    sp.set_defaults(func=cmd_combine)

    sp = sub.add_parser("project", help="reduce a tuple mod a factor")
    _add_tuple_args(sp)
    sp.add_argument("--to", type=int, required=True, help="target modulus")
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("lift", help="repeat a tuple's pattern to ell entries")
    _add_tuple_args(sp)
    sp.add_argument("--ell", type=int, required=True)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("composite",
                        help="decide a target group for a composite modulus")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--deltas", required=True,
                    help="target invariant factors, comma-separated")
    sp.add_argument("--max-cases", type=_positive,
                    default=construct.DEFAULT_PRIME_POWER_CAP,
                    help="cap on q^k per prime power q of n (default %(default)s)")
    sp.set_defaults(func=cmd_composite)

    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc, lines, code = args.func(args)
    except _Usage as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP
    except DomainError as e:
        print(f"rejected: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.json:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
