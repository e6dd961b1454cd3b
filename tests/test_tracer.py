"""The benchmark's traced pass (perfbench/tracing.py) wraps package functions
at the names their callers look up.  A refactor that drops or bypasses one of
those names breaks the traced pass or zeroes its metric, so the suite checks
that every patched name exists, that uninstalling restores it, and that the
witness construction still calls through the names the tracer wraps."""

import importlib
from pathlib import Path

import pytest

from billiard_monodromy import cli, construct, exactla, monodromy, oracle, polyfp, polygon
from billiard_monodromy.polygon import PolygonTuple

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = (cli, construct, exactla, monodromy, oracle, polyfp, polygon)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = {m: dict(vars(m)) for m in MODULES}
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
    for m in MODULES:
        assert vars(m) == before[m], m.__name__


def test_install_wraps_and_uninstall_restores(tracer):
    patched = {(m, attr) for m, attr, _ in tracer._patched}
    assert {(construct, "close_zero_gap"), (construct, "factor_xk_minus_1"),
            (construct, "construct_prime_case")} <= patched
    for module, attr, original in tracer._patched:
        assert getattr(module, attr) is not original, (module.__name__, attr)


def test_classify_prime_calls_through_the_wrapped_names(tracer):
    # k = 7, p = 11: d = 1 and 4, so 5 + 2 gap closings and two witness
    # checks, and x^7 - 1 is factored once for both
    construct.classify_prime(7, 11)
    assert tracer.calls["polyfp.close_zero_gap"] == 7
    assert tracer.calls["monodromy.deltas_of"] == 2
    assert tracer.calls["polyfp.factor_xk_minus_1"] == 1


def test_classify_prime_factors_once_at_p_equal_k_plus_1(tracer):
    # p = k + 1 builds the same factor table, though its witnesses do not
    # read it, so FACTOR_K_CAP bounds it too
    construct.classify_prime(6, 7)
    assert tracer.calls["polyfp.factor_xk_minus_1"] == 1


@pytest.mark.parametrize("entries,blocks", [
    ([1] * 11 + [7], 3),                              # blocks d = 1, 2, 4
    ([1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 5], 1),        # the 3 x 3 fold alone
])
def test_deltas_of_eliminates_blocks_through_the_wrapped_name(tracer, entries, blocks):
    # each non-unit block of k = 12 mod 9 is one call the tracer counts, so
    # the per-layer metric cannot fall to 0 behind a direct elimination call
    monodromy.deltas_of(PolygonTuple(tuple(entries), 9))
    assert tracer.calls["exactla.invariant_factors_mod"] == blocks
