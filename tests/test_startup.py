"""What a fresh interpreter does to start convcheck.

Each command is a new process, so its start-up is part of every run:
registering the catalog must neither import the standard library's
heavy introspection modules nor read the anchors no check evaluates.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# -E ignores PYTHONPATH, so the package is put on sys.path by hand; -S
# keeps site hooks outside the program out of the modules counted
PROBE = f"""
import json, sys
sys.path.insert(0, {SRC!r})
import convcheck.identities.catalog as catalog
from convcheck.identities import notation
catalog.register_catalog()
anchors_read = notation._read.cache_info().currsize
import convcheck.cli
heavy = [name for name in ("dataclasses", "inspect", "ast") if name in sys.modules]
print(json.dumps({{"anchors_read": anchors_read, "heavy": heavy}}))
"""


def test_start_up_imports_no_introspection_and_reads_only_the_rewritten_anchors():
    proc = subprocess.run([sys.executable, "-E", "-S", "-c", PROBE],
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout)
    assert got["heavy"] == []
    # the corrected T3 records rewrite the statements of T3.2 and T3.5a;
    # every other record reads its anchor when a check first reads its sides
    assert got["anchors_read"] == 2
