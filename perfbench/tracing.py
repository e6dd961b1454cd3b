"""Spans and work counters for the traced benchmark pass.

Each layer function is replaced, in the module namespace where its caller
looks it up, by a wrapper that records a span (name, start, end, parent span,
op id) and derives work counts from the call's inputs and results.  Nothing
under ``src/`` changes; the untraced pass installs no wrapper at all.

Spans stay in memory and are written out once, when the traced pass ends.
"""

import functools
import json
import time
from collections import Counter, defaultdict
from math import gcd

from billiard_monodromy import cli, construct, exactla, monodromy, oracle, polyfp, polygon
from billiard_monodromy.errors import CapExceeded
from workloads import _coset_sizes

SETUP_OP = -1
WARMUP_OP = -2

# Oracle entry points: a cap overrun is counted once, where it leaves the
# oracle, even when span_vectors raised it underneath.
_ORACLE_ENTRIES = ("oracle.group_order", "oracle.check_structure",
                   "oracle.span_invariants", "oracle.span_shift_is_trivial")


def _max_bits(matrices) -> int:
    return max((abs(x).bit_length() for M in matrices for row in M for x in row),
               default=0)


class Tracer:
    """Wraps layer functions, keeps spans in memory and aggregates them."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, op id]
        self.op = SETUP_OP
        self.paused = False
        self.calls = Counter()
        self.total_s = defaultdict(float)   # outermost spans of each name only
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []           # [span index, seconds covered by children]
        self._active = Counter()
        self._patched = []
        self._seen_factor_keys = set()
        self._composite_deltas = None
        self._last_candidate = None

    # ---- wrapping ----

    def _wrap(self, name, fn, observe=None, enter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            tracer._stack.append(frame)
            outermost = tracer._active[name] == 0
            tracer._active[name] += 1
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
                duration = end - start
                tracer.spans[frame[0]] = (name, start, end,
                                          parent[0] if parent else -1, tracer.op)
                tracer.calls[name] += 1
                if outermost:
                    tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if isinstance(error, CapExceeded) and name in _ORACLE_ENTRIES:
                    tracer.counts["oracle.cap_exceeded"] += 1
                if observe is not None and error is None:
                    observe(args, kwargs, result)

        return wrapper

    def _patch(self, module, attr, name, **hooks):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original, **hooks))

    def install(self):
        """Wrap every traced layer function at each of its lookup sites."""
        c = self.counts

        def span_vectors(args, kwargs, result):
            c["oracle.span_vectors.elems"] += len(result)

        def closure_encoding(n, k):
            c["oracle.closure.calls"] += 1
            c["oracle.closure.bytes"] += n * k <= 256

        def group_order_enter(args, kwargs):
            closure_encoding(args[0].n, args[0].k)

        def group_order(args, kwargs, result):
            c["oracle.group_order.elems"] += result

        def check_structure_enter(args, kwargs):
            closure_encoding(args[0].modulus, args[0].k)

        def snf(args, kwargs, result):
            bits = _max_bits((result.U, result.D, result.V))
            c["exactla.smith_normal_form.max_entry_bits"] = max(
                c["exactla.smith_normal_form.max_entry_bits"], bits)

        def factor(args, kwargs, result):
            key = (args[0], args[1])
            if key in self._seen_factor_keys:
                c["polyfp.factor_xk_minus_1.repeats"] += 1
            self._seen_factor_keys.add(key)

        def d_set(args, kwargs, result):
            k, p = args[0], args[1]
            # one subset per proper subset of the factors other than x - 1
            c["construct.achievable_d_set.subsets"] += 2 ** (len(_coset_sizes(k, p)) - 1) - 1

        def triangles(args, kwargs, result):
            n = args[0]
            if n > 3:
                c["construct.classify_triangles.candidates"] += (n - 1) * (n - 2) // 2

        def composite_enter(args, kwargs):
            deltas = args[2] if len(args) > 2 else kwargs["deltas"]
            self._composite_deltas = tuple(int(d) for d in deltas if int(d) > 1)

        def deltas_of(args, kwargs, result):
            cand = args[0]
            if cand is self._last_candidate and self._composite_deltas is not None:
                q = cand.modulus
                target = tuple(x for x in (gcd(d, q) for d in self._composite_deltas)
                               if x > 1)
                c["construct.composite.hits"] += result == target

        def enumerate_geometric(args, kwargs, result):
            c["polygon.enumerate_geometric.tuples"] += len(result)

        p = self._patch
        p(oracle, "span_shift_is_trivial", "oracle.span_shift_is_trivial")
        p(oracle, "span_vectors", "oracle.span_vectors", observe=span_vectors)
        p(oracle, "span_invariants", "oracle.span_invariants")
        p(oracle, "group_order", "oracle.group_order",
          enter=group_order_enter, observe=group_order)
        p(oracle, "check_structure", "oracle.check_structure",
          enter=check_structure_enter)
        p(monodromy, "group_of", "monodromy.group_of")
        p(monodromy, "deltas_of", "monodromy.deltas_of", observe=deltas_of)
        p(construct, "deltas_of", "monodromy.deltas_of", observe=deltas_of)
        p(monodromy, "invariant_factors_mod", "exactla.invariant_factors_mod")
        p(exactla, "invariant_factors_mod", "exactla.invariant_factors_mod")
        p(exactla, "smith_normal_form", "exactla.smith_normal_form", observe=snf)
        p(cli, "main", "cli.main")
        p(cli, "build_parser", "cli.build_parser")
        p(polyfp, "factor_xk_minus_1", "polyfp.factor_xk_minus_1", observe=factor)
        p(construct, "factor_xk_minus_1", "polyfp.factor_xk_minus_1", observe=factor)
        p(polyfp, "close_zero_gap", "polyfp.close_zero_gap")
        p(construct, "close_zero_gap", "polyfp.close_zero_gap")
        p(construct, "achievable_d_set", "construct.achievable_d_set", observe=d_set)
        p(construct, "construct_prime_case", "construct.construct_prime_case")
        p(construct, "classify_triangles", "construct.classify_triangles",
          observe=triangles)
        p(construct, "composite_feasible", "construct.composite_feasible",
          enter=composite_enter)
        for module in (polygon, monodromy, construct, cli):
            p(module, "validate", "polygon.validate")

        # Generators: enumerate_geometric is only consumed whole (census
        # set-up), so its span covers the full enumeration; the candidates of
        # the composite search are counted as they are drawn.
        original_geometric = polygon.enumerate_geometric
        self._patched.append((polygon, "enumerate_geometric", original_geometric))
        polygon.enumerate_geometric = self._wrap(
            "polygon.enumerate_geometric",
            lambda k, n: list(original_geometric(k, n)),
            observe=enumerate_geometric)

        original_algebraic = construct.enumerate_algebraic
        self._patched.append((construct, "enumerate_algebraic", original_algebraic))

        def counted_candidates(k, n):
            for cand in original_algebraic(k, n):
                if not self.paused:
                    self._last_candidate = cand
                    c["construct.composite.candidates"] += 1
                yield cand

        construct.enumerate_algebraic = counted_candidates

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ---- results ----

    def metrics(self) -> dict:
        """Every per-layer metric as name -> (value, unit)."""
        calls, total, own, c = self.calls, self.total_s, self.self_s, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "oracle.span_shift_is_trivial.calls": (calls["oracle.span_shift_is_trivial"], "count"),
            "oracle.span_shift_is_trivial.s": (total["oracle.span_shift_is_trivial"], "s"),
            "oracle.span_vectors.elems": (c["oracle.span_vectors.elems"], "count"),
            "monodromy.action_check.share": (
                ratio(total["oracle.span_shift_is_trivial"], total["monodromy.group_of"]),
                "ratio"),
            "monodromy.group_of.calls": (calls["monodromy.group_of"], "count"),
            "monodromy.group_of.self_s": (own["monodromy.group_of"], "s"),
            "monodromy.deltas_of.calls": (calls["monodromy.deltas_of"], "count"),
            "monodromy.deltas_of.s": (total["monodromy.deltas_of"], "s"),
            "exactla.invariant_factors_mod.calls": (calls["exactla.invariant_factors_mod"], "count"),
            "exactla.invariant_factors_mod.s": (total["exactla.invariant_factors_mod"], "s"),
            "exactla.smith_normal_form.calls": (calls["exactla.smith_normal_form"], "count"),
            "exactla.smith_normal_form.s": (total["exactla.smith_normal_form"], "s"),
            "exactla.smith_normal_form.max_entry_bits": (
                c["exactla.smith_normal_form.max_entry_bits"], "bits"),
            "oracle.group_order.calls": (calls["oracle.group_order"], "count"),
            "oracle.group_order.s": (total["oracle.group_order"], "s"),
            "oracle.group_order.elems": (c["oracle.group_order.elems"], "count"),
            "oracle.check_structure.calls": (calls["oracle.check_structure"], "count"),
            "oracle.check_structure.s": (total["oracle.check_structure"], "s"),
            "oracle.span_invariants.s": (total["oracle.span_invariants"], "s"),
            "oracle.closure.bytes_share": (
                ratio(c["oracle.closure.bytes"], c["oracle.closure.calls"]), "ratio"),
            "oracle.cap_exceeded": (c["oracle.cap_exceeded"], "count"),
            "cli.main.calls": (calls["cli.main"], "count"),
            "cli.main.self_s": (own["cli.main"], "s"),
            "cli.build_parser.s": (total["cli.build_parser"], "s"),
            "polyfp.factor_xk_minus_1.calls": (calls["polyfp.factor_xk_minus_1"], "count"),
            "polyfp.factor_xk_minus_1.s": (total["polyfp.factor_xk_minus_1"], "s"),
            "polyfp.factor_xk_minus_1.cache_hit_ratio": (
                ratio(c["polyfp.factor_xk_minus_1.repeats"],
                      calls["polyfp.factor_xk_minus_1"]), "ratio"),
            "polyfp.close_zero_gap.calls": (calls["polyfp.close_zero_gap"], "count"),
            "polyfp.close_zero_gap.s": (total["polyfp.close_zero_gap"], "s"),
            "construct.achievable_d_set.calls": (calls["construct.achievable_d_set"], "count"),
            "construct.achievable_d_set.s": (total["construct.achievable_d_set"], "s"),
            "construct.achievable_d_set.subsets": (c["construct.achievable_d_set.subsets"], "count"),
            "construct.construct_prime_case.calls": (calls["construct.construct_prime_case"], "count"),
            "construct.construct_prime_case.self_s": (own["construct.construct_prime_case"], "s"),
            "construct.classify_triangles.s": (total["construct.classify_triangles"], "s"),
            "construct.classify_triangles.candidates": (
                c["construct.classify_triangles.candidates"], "count"),
            "construct.composite_feasible.s": (total["construct.composite_feasible"], "s"),
            "construct.composite.candidates": (c["construct.composite.candidates"], "count"),
            "construct.composite.hit_ratio": (
                ratio(c["construct.composite.hits"], c["construct.composite.candidates"]),
                "ratio"),
            "polygon.enumerate_geometric.s": (total["polygon.enumerate_geometric"], "s"),
            "polygon.enumerate_geometric.tuples": (c["polygon.enumerate_geometric.tuples"], "count"),
            "polygon.validate.calls": (calls["polygon.validate"], "count"),
            "polygon.validate.s": (total["polygon.validate"], "s"),
            "trace.spans": (len(self.spans), "count"),
        }

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
