"""Every name a convcheck module lists in ``__all__`` exists, so that
``from convcheck.<module> import *`` cannot fail on a stale entry."""

import importlib
import pkgutil

import pytest

import convcheck


def modules_with_all():
    names = ["convcheck"] + [
        info.name for info in pkgutil.walk_packages(convcheck.__path__, "convcheck.")
    ]
    return sorted(n for n in names if hasattr(importlib.import_module(n), "__all__"))


@pytest.mark.parametrize("name", modules_with_all())
def test_all_lists_only_existing_names(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
