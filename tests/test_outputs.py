"""The refactor oracle: the bytes of the catalog-wide outputs.

A change that only restructures the code must leave every verdict, every
first failing index and every byte of these documents as they are.  Each
command runs in-process through ``convcheck.cli.main``; the per-ring
contexts keep their memos across the calls, so after the first full run
the others mostly render.
"""

import hashlib

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
