"""The names and signatures the benchmark's span tracer hooks.

``perfbench/tracer.py`` wraps ``Context.pair_product`` by name and splits
``run_record``/``run_record_substituted`` into one call per index through
their ``record`` and ``n_range`` parameters.  Installing it and running one
small check catches a rename here, far faster than a benchmark smoke run.
"""

import importlib.util
from pathlib import Path

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
