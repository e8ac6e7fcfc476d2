"""Command-line behavior: formats, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

import convcheck.cli as cli
from convcheck import __version__
from convcheck.arith import MAX_EXP


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


def test_verify_id_text_lists_every_index_past_the_first_failure(capsys):
    # the per-index listing is the one output that reads past a failure
    assert cli.main(["verify", "--id", "C3.1:as_printed"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL C3.1:as_printed  n in [0,20]  first failure at n=3"
    per_n = [ln.split() for ln in lines if ln.strip().startswith("n=")]
    assert [int(words[0][2:]) for words in per_n] == list(range(21))
    assert [words[1] for words in per_n] == ["ok"] * 3 + ["FAIL"] * 18


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


def test_compute_prints_a_value_past_the_int_string_limit(capsys):
    # E_2000 has 5,344 digits, more than Python's default limit of 4,300
    # on int -> str conversion; the value is printed whole, exit 0, and
    # the process's limit is left as it was
    from convcheck.sequences import euler_number

    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert cli.main(["compute", "euler", "2000"]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    text = capsys.readouterr().out.strip()
    assert len(text) == 5344 and text.isdigit()
    # read back in chunks that each stay under the limit
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == euler_number(2000)


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
        ("compute", "bernoulli_poly", "3", "--at", "x=1,x=2"),
    ]
    for args in cases:
        result = run_cli(*args)
        assert result.returncode == 2, args
        assert len(result.stderr.splitlines()) == 1, (args, result.stderr)


@pytest.mark.parametrize("point, line", [
    ("x=abc", "not a rational number in 'x=abc'"),
    ("x=", "not a rational number in 'x='"),
    ("x=1/2/3", "not a rational number in 'x=1/2/3'"),
    ("x=1/0", "zero denominator in 'x=1/0'"),
    # past Python's 4,300-digit limit on str -> int, Python's own message
    ("x=" + "9" * 5000, None),
], ids=["letters", "empty", "two-slashes", "zero-denominator", "past-the-digit-limit"])
def test_a_malformed_at_number_names_its_binding(capsys, point, line):
    if line is None:
        with pytest.raises(ValueError) as limit:
            int(point[2:])
        line = str(limit.value)
    assert cli.main(["compute", "bernoulli_poly", "3", "--at", point]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [line]


@pytest.mark.parametrize("argv, code, line", [
    (["compute", "bernoulli_poly", str(MAX_EXP + 1)], 2,
     f"bernoulli_poly {MAX_EXP + 1} has total degree {MAX_EXP + 1}, past the largest a polynomial "
     f"may have, {MAX_EXP}"),
    (["compute", "biv_lucas", str(MAX_EXP + 1), "--at", "y=1,t=1"], 2,
     f"biv_lucas {MAX_EXP + 1} has total degree {MAX_EXP + 1}, past the largest a polynomial "
     f"may have, {MAX_EXP}"),
    (["compute", "biv_fibonacci", str(MAX_EXP + 2)], 2,
     f"biv_fibonacci {MAX_EXP + 2} has total degree {MAX_EXP + 1}, past the largest a polynomial "
     f"may have, {MAX_EXP}"),
], ids=["bernoulli_poly", "biv_lucas", "biv_fibonacci"])
def test_compute_refuses_an_index_past_the_degree_bound_before_computing(
        monkeypatch, capsys, argv, code, line):
    def refused(*args):
        raise AssertionError(f"computed {args} for a refused index")

    for name in ("bivariate_sequence", "number_polynomial"):
        monkeypatch.setattr(cli, name, refused)
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [line] and "Traceback" not in err


def test_verify_selection_that_checks_nothing_exits_2():
    # T2.1b has no corrected variant: "0/0 records pass" is not a verdict
    result = run_cli("verify", "--id", "T2.1b", "--variant", "corrected")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["no corrected variant of T2.1b"]


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
        bad = rec.replace(
            variant="corrected", rhs=lambda ctx, n: ctx.zero + 1,
        )
        return [bad]

    monkeypatch.setattr(cli, "select_records", broken)
    for argv in (["verify", "--all", "--max-n", "4"], ["report", "--max-n", "4"]):
        assert cli.main(argv) == 1, argv


def test_main_returns_zero_in_process(capsys):
    assert cli.main(["verify", "--id", "T2.2a", "--max-n", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_mixed_selection_with_an_id_the_variant_empties_exits_2():
    # L1.2S has a corrected variant, T2.1b has none: T2.1b is not dropped
    result = run_cli("verify", "--id", "L1.2S", "--id", "T2.1b",
                     "--variant", "corrected", "--max-n", "3")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["no corrected variant of T2.1b"]


def test_a_capped_range_with_no_index_is_skipped_not_passed(capsys):
    # L1.1a starts at n = 1, so --max-n 0 leaves its range [1, 0] empty
    assert cli.main(["verify", "--id", "L1.1a", "--id", "T2.1a", "--max-n", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "SKIP L1.1a:as_printed  n in [1,0]"
    assert lines[1] == "PASS T2.1a:as_printed  n in [0,0]"
    assert lines[-1].startswith("1/1 records pass, 1 skipped (")

    assert cli.main(["verify", "--all", "--max-n", "0", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    (row,) = [r for r in doc["results"] if r["id"] == "L1.1a"]
    assert (row["range"], row["status"], row["first_fail_n"]) == ([1, 0], "skipped", None)
    assert "L1.1a" not in {e["id"] for e in doc["errata"]}


def test_verify_selection_whose_every_range_is_empty_exits_2():
    result = run_cli("verify", "--id", "L1.1a", "--max-n", "0")
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert "nothing was checked" in result.stderr


# The CLI contract, one row per argv: every subcommand, each option at an
# invalid, a boundary and a large value, unknown ids, variants, kinds and
# formats, and unwritable paths.  Exit 0 or 1 writes nothing to stderr;
# exit 2 writes one line, never a traceback.  {out} is a writable file and
# {bad} one in a directory that does not exist.
CONTRACT = [
    ([], 2),
    (["nonsense"], 2),
    (["--help"], 0),
    (["verify", "--help"], 0),
    (["verify", "--id", "T2.1a", "--max-n", "3"], 0),
    (["verify", "--id", "T2.1a", "--max-n", "0"], 0),
    (["verify", "--id", "T2.1a", "--max-n", str(10 ** 30)], 0),
    (["verify", "--id", "T2.1a", "--max-n", "-1"], 2),
    (["verify", "--id", "T2.1a", "--max-n", "three"], 2),
    (["verify", "--id", "L1.1a", "--max-n", "0"], 2),
    (["verify", "--id", "NOPE"], 2),
    (["verify", "--id", "T2.1a:misprinted"], 2),
    (["verify", "--id", "T2.1b", "--variant", "corrected"], 2),
    (["verify", "--id", "L1.2S:corrected", "--max-n", "4"], 0),
    (["verify", "--variant", "misprinted"], 2),
    (["verify", "--format", "yaml"], 2),
    (["verify", "--all", "--id", "T2.1a"], 2),
    (["verify", "--bogus"], 2),
    (["verify", "--all", "--max-n", "2", "--format", "json", "--out", "{out}"], 0),
    (["verify", "--id", "C4.1", "--format", "markdown", "--out", "{out}"], 0),
    (["verify", "--id", "T2.1a", "--max-n", "2", "--out", "{bad}"], 2),
    (["report", "--max-n", "2"], 0),
    (["report", "--max-n", str(10 ** 30), "--format", "json", "--out", "{out}"], 0),
    (["report", "--max-n", "-5"], 2),
    (["report", "--max-n", "2.5"], 2),
    (["report", "--format", "pdf"], 2),
    (["report", "--variant", "both", "--max-n", "0", "--format", "text"], 0),
    (["report", "--variant", "all"], 2),
    (["report", "--max-n", "0", "--out", "{bad}"], 2),
    (["compute", "bernoulli", "0"], 0),
    (["compute", "bernoulli", "1000"], 0),
    (["compute", "bernoulli", "-1"], 2),
    (["compute", "bernoulli", "twelve"], 2),
    (["compute", "bernoulli"], 2),
    (["compute", "pell", "3"], 2),
    (["compute", "euler", "4", "--at", "x=3"], 2),
    (["compute", "genocchi_poly", "0", "--at", "x=1/2"], 0),
    (["compute", "euler_poly", str(MAX_EXP + 1)], 2),
    (["compute", "biv_fibonacci", "0"], 0),
    (["compute", "biv_fibonacci", "4000"], 0),
    (["compute", "biv_balancing", str(MAX_EXP + 2)], 2),
    (["compute", "biv_lucas_balancing", "300", "--at", "y=1,t=-2/3"], 0),
    (["compute", "biv_lucas", "3", "--at", "y=1/0"], 2),
    (["compute", "biv_lucas", "3", "--at", ""], 2),
    (["compute", "biv_lucas", "3", "--at", "y=1,y=2"], 2),
    (["compute", "biv_lucas", "3", "--at", "x=1"], 2),
    (["compute", "bernoulli_poly", "3", "--at", "x=" + "9" * 5000], 2),
    (["series", "euler", "--order", "0"], 0),
    (["series", "euler", "--order", "150"], 0),
    (["series", "euler", "--order", "-1"], 2),
    (["series", "euler", "--order", "many"], 2),
    (["series", "pell"], 2),
]


@pytest.mark.parametrize("argv, code", CONTRACT, ids=[" ".join(argv)[:60] or "(none)" for argv, _ in CONTRACT])
def test_the_cli_contract(tmp_path, capsys, argv, code):
    paths = {"out": str(tmp_path / "out.txt"), "bad": str(tmp_path / "missing" / "out.txt")}
    argv = [arg.format(**paths) if arg in ("{out}", "{bad}") else arg for arg in argv]
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert "Traceback" not in err
    assert len(err.splitlines()) == (1 if code == 2 else 0), err
