"""Command-line behavior: formats, determinism, exit codes."""

import dataclasses
import json
import subprocess
import sys

import convcheck.cli as cli
from convcheck import __version__


def run_cli(*args, check=False):
    return subprocess.run(
        [sys.executable, "-m", "convcheck.cli", *args],
        capture_output=True, text=True, check=check,
    )


def test_verify_single_identity_prints_per_n_lines():
    result = run_cli("verify", "--id", "T2.1a", "--max-n", "4")
    assert result.returncode == 0
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    assert lines[0].startswith("PASS T2.1a:as_printed")
    per_n = [ln for ln in lines if ln.strip().startswith("n=")]
    assert len(per_n) == 5


def test_verify_unknown_identity_exits_2():
    result = run_cli("verify", "--id", "NOPE")
    assert result.returncode == 2
    assert "unknown identity: NOPE" in result.stderr


def test_verify_variant_lookup_by_key():
    result = run_cli("verify", "--id", "L1.2S:corrected", "--max-n", "6")
    assert result.returncode == 0
    assert "L1.2S:corrected" in result.stdout
    assert "as_printed" not in result.stdout


def test_verify_json_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    first = run_cli("verify", "--all", "--format", "json",
                    "--max-n", "6", "--out", str(a))
    second = run_cli("verify", "--all", "--format", "json",
                     "--max-n", "6", "--out", str(b))
    assert first.returncode == 0 and second.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert list(doc) == ["version", "config", "results", "errata"]
    assert doc["version"] == __version__
    assert doc["config"]["max_n"] == 6
    for row in doc["results"]:
        assert list(row) == ["id", "variant", "range", "status", "first_fail_n"]
        assert row["status"] in ("pass", "fail")
    ids = [(row["id"], row["variant"]) for row in doc["results"]]
    assert ids == sorted(ids)
    # every registered identity appears exactly once per variant
    assert len(ids) == len(set(ids)) == 113
    for err in doc["errata"]:
        assert list(err) == ["id", "anchor", "note"]


def test_verify_rejects_negative_max_n():
    result = run_cli("verify", "--all", "--max-n", "-3")
    assert result.returncode == 2
    assert "non-negative" in result.stderr


def test_report_markdown_mentions_known_discrepancies():
    result = run_cli("report", "--max-n", "8")
    assert result.returncode == 0
    for ident in ("T3.3", "C2.1.2", "BINET.C", "T3.6b"):
        assert f"| {ident} |" in result.stdout, ident


def test_report_corrected_variant_has_no_failures():
    result = run_cli("report", "--variant", "corrected", "--format", "json",
                     "--max-n", "8")
    doc = json.loads(result.stdout)
    assert doc["results"], "corrected slice must not be empty"
    assert all(row["status"] == "pass" for row in doc["results"])
    assert all(row["variant"] == "corrected" for row in doc["results"])


def test_compute_number_and_polynomials():
    assert run_cli("compute", "bernoulli", "12").stdout.strip() == "-691/2730"
    assert run_cli("compute", "biv_lucas", "2").stdout.strip() == "y^2 + 2*t"
    assert run_cli("compute", "bernoulli_poly", "2").stdout.strip() == "x^2 - x + 1/6"


def test_compute_at_point():
    result = run_cli("compute", "biv_balancing", "3", "--at", "y=1,t=1")
    assert result.stdout.strip() == "35"
    result = run_cli("compute", "biv_lucas_balancing", "2", "--at", "y=1,t=1")
    assert result.stdout.strip() == "17"
    result = run_cli("compute", "euler_poly", "1", "--at", "x=1/2")
    assert result.stdout.strip() == "0"
    # binding only some of the kind's own variables is allowed
    result = run_cli("compute", "biv_lucas", "0", "--at", "y=1")
    assert (result.returncode, result.stdout.strip()) == (0, "2")


def test_compute_negative_index_exits_2():
    result = run_cli("compute", "bernoulli", "-1")
    assert result.returncode == 2
    assert "non-negative" in result.stderr


def test_compute_bad_point_exits_2(tmp_path):
    # bad user input: exit 2 with a one-line message, never a traceback
    unwritable = str(tmp_path / "missing" / "out.txt")
    cases = [
        ("compute", "biv_lucas", "2", "--at", "y=abc"),
        ("compute", "bernoulli", "4", "--at", "y=1/0"),
        ("verify", "--id", "T2.1a", "--max-n", "1", "--out", unwritable),
        ("report", "--max-n", "0", "--out", unwritable),
        ("series", "genocchi", "--order", "-1"),
        ("compute", "euler", "4", "--at", "x=3"),
        ("compute", "biv_lucas", "2", "--at", "x=1"),
        ("compute", "bernoulli_poly", "2", "--at", "y=1"),
    ]
    for args in cases:
        result = run_cli(*args)
        assert result.returncode == 2, args
        assert len(result.stderr.splitlines()) == 1, (args, result.stderr)


def test_compute_unknown_kind_exits_2():
    result = run_cli("compute", "nonsense", "3")
    assert result.returncode == 2


def test_series_prints_coefficients():
    result = run_cli("series", "genocchi", "--order", "8")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 9
    assert lines[0] == "0: 0"
    assert lines[1] == "1: 1"
    assert lines[8] == "8: 17"


def test_exit_code_1_when_a_corrected_check_fails(monkeypatch):
    # force a corrected-variant failure to exercise the error exit path
    real = cli.select_records

    def broken(ids, variant):
        rec = real(["T2.1a"], "both")[0]
        bad = dataclasses.replace(
            rec, variant="corrected", rhs=lambda ctx, n: ctx.zero + 1,
        )
        return [bad]

    monkeypatch.setattr(cli, "select_records", broken)
    for argv in (["verify", "--all", "--max-n", "4"], ["report", "--max-n", "4"]):
        assert cli.main(argv) == 1, argv


def test_main_returns_zero_in_process(capsys):
    assert cli.main(["verify", "--id", "T2.2a", "--max-n", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
