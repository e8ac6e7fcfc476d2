"""The mutation runner's targets: each one gives it something to mutate.

``tools/mutate.py`` draws its mutants from the sites of each target.  A
target with no site is judged by no mutant, so its run says nothing of
it.  This finds the sites only; no mutant is run.
"""

import importlib.util
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
