"""The refactor oracle: the bytes of the catalog-wide outputs.

A change that only restructures the code must leave every verdict, every
first failing index and every byte of these documents as they are.  Each
command runs in-process through ``convcheck.cli.main``; the per-ring
contexts keep their memos across the calls, so after the first full run
the others mostly render.
"""

import hashlib
import re

import pytest

from convcheck.cli import main

REPORT_MARKDOWN = "4b4c215bd2d1306c53bc0672dc669794137dd4e4de8181c579772d6010b57340"


@pytest.mark.parametrize("command, sha256", [
    ("verify --all --format json",
     "04db3ddc987293f759fec7cf500e68643ede857f439fcacd789af31442ccd49d"),
    ("verify --all --format json --max-n 2",
     "ae7749f52a346b53daa067949f03c440acd622b1e3130be2b55d8582dd98e505"),
    ("verify --all --format markdown", REPORT_MARKDOWN),
    ("report", REPORT_MARKDOWN),
    ("report --format json",
     "ab7078ffbe5e7ea3bc6ea8abf20c027d2cf4fef825341f06a59fc50cb35c7f6f"),
    ("report --variant corrected",
     "c3d3269e6b6574648c2533655d785b81626b35658f43aa7f053438c2fe1e85c5"),
])
def test_output_bytes_are_pinned(command, sha256, capsys):
    assert main(command.split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == sha256


# the failing as-printed records of the generic ring: each failure diff
# prints a polynomial in the letters x1, x2, whatever basis the ring
# computes in; the elapsed time of the run is masked
@pytest.mark.parametrize("ident, sha256", [
    ("L1.2S", "0a4ea8be90c0d1ab134bce7e2eaf8ea499c1035aa7ac12f94d8d0a8ec0214919"),
    ("R1.1", "4a17f49277b7de8a13ad9f6499b281d85b113e2e5144cb68ac5e5bdd4dba3bad"),
    ("R1.2", "2c0ed5ed07e2d563846cf25c9237c2cb90061572a6cccf8e3f43f64b03df46e9"),
    ("T3.3", "fa05659383b64a73a03813005d6c83d5112d9d4fccc091954c7101c03868f8c2"),
    ("T3.5b", "7f5bbef6c23c078b971855c375eea18ec36052042cd0378c3418123d64574fbf"),
    ("T3.6a", "0fadf45458b35e4911284b2cf971ad19e32b3ef4dcfc35e2f2eba899c6222ded"),
    ("T3.6b", "a98e7de6ec4735ec73ab104bec3d13f4c5032af5052e468c7a0485be67dfd1f3"),
])
def test_failure_diffs_are_pinned(ident, sha256, capsys):
    assert main(["verify", "--id", ident, "--format", "text"]) == 0
    out = re.sub(r"\(\d+\.\d\ds\)", "(N.NNs)", capsys.readouterr().out)
    assert "FAIL" in out and "diff = " in out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
