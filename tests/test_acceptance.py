"""Acceptance suite: one test per acceptance criterion, one line each.

Every criterion prints a single ``criterion N (...): PASS/FAIL`` line on
the real stdout (bypassing capture) so a plain pytest run shows the
checklist at a glance.  Ranges here are the full contractual ranges --
the per-module tests use shorter prefixes for speed, this file does not.
"""

import contextlib
import json
import math
import subprocess
import sys
import time

from convcheck._scalar import Rational
from convcheck.egf import egf_exp_linear, egf_special
from convcheck.identities import (
    THEOREM_TO_COROLLARY,
    derive_corollary,
    get_context,
    get_record,
    run_record,
    run_record_substituted,
)
from convcheck.sequences import (
    bernoulli_number,
    bivariate_sequence,
    euler_number,
    genocchi_number,
)
from convcheck.symfun import sym_ehp
import convcheck.cli as cli
from convcheck.arith import MultiPoly
from test_quadext import ROOTS, binet_ratio


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        sys.__stdout__.write(f"criterion {num} ({label}): FAIL\n")
        raise
    sys.__stdout__.write(f"criterion {num} ({label}): PASS\n")


def all_pass(verdicts):
    bad = [v for v in verdicts if not v.passed]
    assert not bad, f"{bad[0].ident}:{bad[0].variant} fails first at n={bad[0].n}"


def pick(ident):
    """The true form of an identity: corrected variant when one exists."""
    try:
        return get_record(f"{ident}:corrected")
    except KeyError:
        return get_record(f"{ident}:as_printed")


THEOREM_SUITE = [
    "T2.1a", "T2.1b", "T2.1c", "T2.2a", "T2.2b", "T2.2c",
    "T3.1", "T3.2", "T3.4a", "T3.4b", "T3.5a", "T3.5b", "T3.7",
    "T4.1", "T4.2", "T4.3",
]


def test_criterion_1_theorem_suite():
    with criterion(1, "theorem suite, n in [0,30], under 60s"):
        started = time.perf_counter()
        for ident in THEOREM_SUITE:
            rec = pick(ident)
            all_pass(run_record(rec, (0, 30)))
        elapsed = time.perf_counter() - started
        assert elapsed < 60, f"theorem suite took {elapsed:.1f}s"


def test_criterion_2_reindexed_suite():
    with criterion(2, "re-indexed suite, m in [0,24]"):
        for ident, src in (("T3.3", "T3.2"), ("T3.6a", "T3.5a"), ("T3.6b", "T3.5b")):
            rec = get_record(f"{ident}:corrected")
            assert rec.source == src, f"{ident} must be produced mechanically"
            all_pass(run_record(rec, (0, 24)))
        printed = run_record(get_record("T3.3:as_printed"), (0, 8))
        first_bad = next((v.n for v in printed if not v.passed), None)
        assert first_bad is not None and first_bad <= 8


def test_criterion_3_corollary_suite():
    with criterion(3, "derived corollaries, symbolic + t=1 + y=t=1, n in [0,20]"):
        for (tid, family) in sorted(THEOREM_TO_COROLLARY):
            rec = derive_corollary(tid, family)
            all_pass(run_record(rec, (0, 20)))
            all_pass(run_record_substituted(rec, {"t": 1}, (0, 20)))
            all_pass(run_record_substituted(rec, {"y": 1, "t": 1}, (0, 20)))
        # spot anchor: the first Fibonacci corollary line at (1,1), n = 3
        point = {"y": 1, "t": 1}
        fib = [bivariate_sequence("fibonacci", k).substitute(point).constant_value()
               for k in range(4)]
        lhs = sum(math.comb(3, k) * fib[k] * fib[3 - k] for k in range(4))
        lucas3 = bivariate_sequence("lucas", 3).substitute(point).constant_value()
        rhs = (Rational(2) ** 3 * lucas3 - 2 * Rational(1) ** 3) / (1 ** 2 + 4 * 1)
        assert lhs == 6 and rhs == 6


def test_criterion_4_number_sequences_against_egf_oracle():
    with criterion(4, "Bernoulli/Euler/Genocchi vs EGF oracle, n in [0,60]"):
        oracle_b = egf_special("bernoulli", 60)
        oracle_e = egf_special("euler", 60)
        oracle_g = egf_special("genocchi", 60)
        for n in range(61):
            b = bernoulli_number(n)
            assert oracle_b[n].constant_value() == b
            assert oracle_e[n].constant_value() == euler_number(n)
            g = genocchi_number(n)
            assert oracle_g[n].constant_value() == g
            assert g == 2 * (1 - Rational(2) ** n) * b
        assert bernoulli_number(1) == Rational(-1, 2)
        assert bernoulli_number(12) == Rational(-691, 2730)


def test_criterion_5_bivariate_sequences_against_binet():
    with criterion(5, "bivariate sequences vs root-pair closed forms, n in [0,30]"):
        fib, bal = ROOTS["fibonacci"][0], ROOTS["balancing"][0]
        for n in range(31):
            assert binet_ratio("fibonacci", n) == bivariate_sequence("fibonacci", n)
            assert 2 * (fib ** n).a == bivariate_sequence("lucas", n)
            assert binet_ratio("balancing", n) == bivariate_sequence("balancing", n)
            assert (bal ** n).a == bivariate_sequence("lucas_balancing", n)
        point = {"y": 1, "t": 1}
        assert bivariate_sequence("balancing", 3).substitute(point).constant_value() == 35
        assert bivariate_sequence("lucas_balancing", 2).substitute(point).constant_value() == 17


def test_criterion_6_symmetric_function_relations():
    with criterion(6, "letter-pair relations and basis bridges, n in [0,40]"):
        # first relation: stated for positive n; the n = 0 edge is false
        # under the S_(j<0) = 0 convention and is asserted as such
        rec_a = get_record("L1.1a:as_printed")
        assert rec_a.default_range() == (1, 40)
        all_pass(run_record(rec_a, (1, 40)))
        ctx = get_context(rec_a.ring)
        assert rec_a.lhs(ctx, 0) != rec_a.rhs(ctx, 0)
        # the other two relations and the difference realization
        all_pass(run_record(get_record("L1.1b:as_printed"), (0, 40)))
        all_pass(run_record(get_record("L1.1c:as_printed"), (0, 40)))
        all_pass(run_record(get_record("L1.2S:corrected"), (0, 40)))
        # EGF realizations over the letters: coefficient n of
        # e^(uz) + e^(vz) is phi_n, and of e^(uz) - e^(vz) is D*S_(n-1)
        u, v = MultiPoly.var("x1"), MultiPoly.var("x2")
        exp_u = egf_exp_linear(u, 40)
        exp_v = egf_exp_linear(v, 40)
        ctx = get_context("indeterminate")
        for n in range(41):
            assert exp_u[n] + exp_v[n] == sym_ehp("p", n, u, v)
            assert exp_u[n] - exp_v[n] == (u - v) * ctx.S(n - 1)
        # basis bridges at two variables
        for n in range(41):
            assert ctx.S(n) == sym_ehp("h", n, u, v)
            assert ctx.phi(n) == sym_ehp("p", n, u, v)
        all_pass(run_record(get_record("R1.1:corrected"), (0, 40)))
        all_pass(run_record(get_record("R1.2:corrected"), (0, 40)))


def test_criterion_7_cli_determinism_and_exit_codes(tmp_path, monkeypatch):
    with criterion(7, "CLI: byte-identical JSON, exit codes 0/1/2"):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            proc = subprocess.run(
                [sys.executable, "-m", "convcheck.cli",
                 "verify", "--all", "--format", "json", "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        assert list(payload) == ["version", "config", "results", "errata"]

        proc = subprocess.run(
            [sys.executable, "-m", "convcheck.cli", "verify", "--id", "NOPE"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "unknown identity: NOPE" in proc.stderr

        # exit 1 requires an unexpected failure; inject one corrected miss
        real = cli.select_records

        def broken(ids, variant):
            rec = real(["T2.1b"], "both")[0]
            bad = rec.replace(
                variant="corrected", rhs=lambda c, n: c.zero + 1,
            )
            return [bad]

        monkeypatch.setattr(cli, "select_records", broken)
        assert cli.main(["verify", "--all", "--max-n", "3"]) == 1
        monkeypatch.undo()
        assert cli.main(["verify", "--id", "T2.1b", "--max-n", "3"]) == 0
