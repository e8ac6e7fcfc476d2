"""The mutation runner's targets: each one gives it something to mutate.

``tools/mutate.py`` draws its mutants from the sites of each target.  A
target with no site is judged by no mutant, so its run says nothing of
it.  This finds the sites only, and derives the time limits from
stand-in oracles; no mutant is run.
"""

import importlib.util
import types
from pathlib import Path

import pytest

MUTATE = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"


def _load_mutate_module():
    spec = importlib.util.spec_from_file_location("convcheck_mutate", MUTATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutate = _load_mutate_module()


@pytest.mark.parametrize("target", mutate.TARGETS)
def test_every_target_has_a_mutation_site(target):
    path, _, qualname = target.partition(":")
    assert mutate.sites(path, qualname or None)


def test_is_not_is_one_site_spanning_both_tokens():
    path = "src/convcheck/identities/notation.py"
    text = (MUTATE.parent.parent / path).read_text(encoding="utf-8")
    found = [m for m in mutate.sites(path, "_side") if m.old.startswith("is")]
    assert sorted((m.old, m.new) for m in found) == [("is", "is not"), ("is not", "is")]
    assert all(text[m.start:m.end] == m.old for m in found)


@pytest.mark.parametrize("tier1_passes", [True, False])
def test_a_mutant_is_timed_out_at_a_multiple_of_the_unmutated_oracle_time(tier1_passes, monkeypatch):
    # the unmutated verify takes 0.5 s and tier-1 17 s: a mutant's verify
    # is cut at the floor, and its tier-1 at TIMEOUT_FACTOR times 17 s
    readings = iter([100.0, 100.5, 117.5])
    monkeypatch.setattr(mutate, "time", types.SimpleNamespace(perf_counter=lambda: next(readings)))
    calls = []
    monkeypatch.setattr(mutate, "digest", lambda tree, timeout: calls.append(timeout) or (0, "sha"))
    monkeypatch.setattr(mutate, "tier1", lambda tree, timeout: calls.append(timeout) or tier1_passes)
    base = mutate.baseline("tree")
    assert calls == [None, None]  # the unmutated runs have no limit
    if not tier1_passes:
        assert base is None
        return
    assert base == ((0, "sha"), mutate.TIMEOUT_FLOOR_S, 17.0 * mutate.TIMEOUT_FACTOR)
    assert mutate.TIMEOUT_FACTOR * 0.5 < mutate.TIMEOUT_FLOOR_S < 17.0 * mutate.TIMEOUT_FACTOR
