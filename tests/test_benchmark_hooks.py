"""The names and signatures the benchmark's span tracer hooks.

``perfbench/tracer.py`` wraps ``Context.pair_product`` by name and splits
``run_record``/``run_record_substituted`` into one call per index through
their ``record`` and ``n_range`` parameters.  Installing it and running one
small check catches a rename here, far faster than a benchmark smoke run.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from convcheck import report
from convcheck.identities import core, get_record

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_one_record_and_restores():
    original = (core.run_record, core.Context.pair_product)
    tracer = _load_tracer_module().Tracer()
    rec = get_record("T2.1b:as_printed")
    try:
        tracer.install()
        verdicts = core.run_record(rec, (0, 2), core.Context(rec.ring))
    finally:
        tracer.restore()
    assert [(v.n, v.passed) for v in verdicts] == [(0, True), (1, True), (2, True)]
    assert [n for _, _, _, n in tracer.checks] == [0, 1, 2]
    metrics = tracer.layer_metrics()
    assert metrics["core.pair_product.calls"] == 1 + 2 + 3
    assert metrics["core.conv_sum.calls"] == 3
    assert (core.run_record, core.Context.pair_product) == original


@pytest.mark.parametrize("key, conv_sums, pair_products", [
    # n = 0..3: one sum per n and every binomial summand formed
    ("C2.1.3:as_printed", 4, 1 + 2 + 3 + 4),
    # both operands come from the memo, still through the hook
    ("T4.1:as_printed", 4, 1 + 2 + 3 + 4),
    # the parity skip and the zero G_0 weight come before any product
    ("C3.1:as_printed", 4, 2),
])
def test_tracer_counts_the_steps_of_a_root_ring_record(key, conv_sums, pair_products):
    rec = get_record(key)
    # evaluated once untraced first, so a side that held on to the
    # untraced evaluator would be caught below
    core.run_record(rec, (0, 3), core.Context(rec.ring))
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install()
        core.run_record(rec, (0, 3), core.Context(rec.ring))
    finally:
        tracer.restore()
    metrics = tracer.layer_metrics()
    assert metrics["core.conv_sum.calls"] == conv_sums
    assert metrics["core.pair_product.calls"] == pair_products


def test_traced_run_records_checks_a_failing_record_only_to_its_first_failure():
    # run_records stops after n = 3, so the per-index split of run_record
    # must see exactly the indices that ran
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install()
        (row,) = report.run_records([get_record("C3.1:as_printed")])
    finally:
        tracer.restore()
    assert row.first_fail_n == 3
    verdict = tracer.names.index("core.verdict")
    assert [tracer.name[idx] for idx, _, _, _ in tracer.checks] == [verdict] * 4
    assert [n for _, _, _, n in tracer.checks] == [0, 1, 2, 3]


def _images_of_a_traced_substituted_check(monkeypatch, key):
    """The verdicts of ``key`` at a point for n = 0..3 with the tracer
    installed, and the number of root-ring images of side polynomials
    formed: calls of ``_Chart.image``, the one route from an element
    to its image, less the point checks, each the image of the context's
    one."""
    rec = get_record(key)
    ctx = core.Context(rec.ring)
    calls = []
    image = core._Chart.image

    def counted(chart, poly, point):
        if poly is not ctx.one.poly:
            calls.append(point)
        return image(chart, poly, point)

    monkeypatch.setattr(core._Chart, "image", counted)
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install()
        verdicts = core.run_record_substituted(
            rec, {"y": Fraction(2, 3), "t": Fraction(-1, 2)}, (0, 3), ctx)
    finally:
        tracer.restore()
    return verdicts, len(calls)


def test_traced_substituted_check_forms_no_image_of_equal_sides(monkeypatch):
    # the sides of a passing record are equal at every n, and an image is
    # a function of the element, so no side is substituted
    verdicts, images = _images_of_a_traced_substituted_check(monkeypatch, "C2.1.1:corrected")
    assert [(v.n, v.passed) for v in verdicts] == [(n, True) for n in range(4)]
    assert images == 0


def test_traced_substituted_check_substitutes_differing_sides_each(monkeypatch):
    # the as-printed C2.1.2 has two different sides at every n = 0..3, and
    # each is substituted on its own
    verdicts, images = _images_of_a_traced_substituted_check(monkeypatch, "C2.1.2:as_printed")
    assert [(v.n, v.passed) for v in verdicts] == [(n, False) for n in range(4)]
    assert images == 8
