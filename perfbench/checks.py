"""Correctness gates: each workload's outputs against its golden results.

``golden.json`` was taken from convcheck at the commit that introduced
this benchmark: ``sha256`` is the digest of the stdout of
``convcheck verify --all --format json`` (``smoke_sha256`` the same
with ``--max-n 2``), ``records`` is that run's result table as
[key, lo, hi, first failing n], and the root-ring record lists are the
corrected or sole-variant records of the two root rings and the
parity-restricted records that carry an unrestricted companion.

The sequence values are checked against identities convcheck does not
use: the Euler zigzag numbers from the Seidel-Entringer triangle
(integer additions only), the von Staudt-Clausen theorem, and the
difference equations of the Appell polynomials at the seeded point.

Every check returns (attempted, failed, problems).  A crash counts as
a failure of everything the iteration attempted.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Tuple

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())

Outcome = Tuple[int, int, List[str]]


def expected_attempts(inp: Dict) -> int:
    """Verdicts (or value checks) one iteration of these inputs makes."""
    if inp["workload"] == "catalog":
        cap = inp["max_n"]
        return sum((hi if cap is None else min(hi, cap)) - lo + 1
                   for _, lo, hi, _ in GOLDEN["catalog"]["records"])
    if inp["workload"] == "t4_deep":
        return len(inp["records"]) * (inp["n_max"] + 1)
    if inp["workload"] == "roots_subst":
        per_point = sum(hi - lo + 1 for _, lo, hi in inp["records"])
        return per_point * len(inp["points"]) + sum(hi - lo + 1 for _, lo, hi in inp["companions"])
    return len(_SEQUENCE_CHECKS)


def check(inp: Dict, outputs) -> Outcome:
    return _CHECKS[inp["workload"]](inp, outputs)


# -- catalog -------------------------------------------------------------


def _check_catalog(inp: Dict, outputs) -> Outcome:
    golden = GOLDEN["catalog"]
    cap = inp["max_n"]
    expected = {}
    for key, lo, hi, first in golden["records"]:
        if cap is not None:
            hi = min(hi, cap)
            first = first if first is not None and first <= cap else None
        expected[key] = (lo, hi, first)
    attempted = sum(hi - lo + 1 for lo, hi, _ in expected.values())
    (rc, stdout), = outputs
    problems: List[str] = []
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return attempted, attempted, [f"catalog: unreadable JSON ({exc})"]
    failed = 0
    seen = set()
    for row in results:
        key = f"{row['id']}:{row['variant']}"
        seen.add(key)
        got = (row["range"][0], row["range"][1], row["first_fail_n"])
        want = expected.get(key)
        if got != want:
            problems.append(f"catalog: {key} gave range/first failure {got}, expected {want}")
            failed += (want[1] - want[0] + 1) if want else 1
    for key in expected.keys() - seen:
        lo, hi, _ = expected[key]
        problems.append(f"catalog: {key} missing from the output")
        failed += hi - lo + 1
    passing = sum(1 for row in results if row["status"] == "pass")
    if cap is None and passing != golden["passing_records"]:
        problems.append(f"catalog: {passing}/{len(results)} records pass, "
                        f"expected {golden['passing_records']}")
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    if digest != (golden["sha256"] if cap is None else golden["smoke_sha256"]):
        problems.append("catalog: JSON bytes differ from the golden digest")
    if rc != 0:
        problems.append(f"catalog: exit status {rc}, expected 0")
    if problems and not failed:
        failed = 1
    return attempted, failed, problems


# -- t4_deep and roots_subst ----------------------------------------------


def _tally(label: str, summary: Dict, lo: int, hi: int) -> Tuple[int, List[str]]:
    want = hi - lo + 1
    if "error" in summary:
        return want, [f"{label}: {summary['error']}"]
    problems = []
    failed = len(summary["failed"])
    if failed:
        problems.append(f"{label}: fails at n = {summary['failed']}")
    if summary["count"] != want:
        problems.append(f"{label}: {summary['count']} verdicts, expected {want}")
        failed = max(failed, abs(want - summary["count"]))
    return failed, problems


def _check_t4(inp: Dict, outputs) -> Outcome:
    failed, problems = 0, []
    for key in inp["records"]:
        f, p = _tally(f"t4_deep: {key}", outputs.get(key, {"error": "missing"}), 0, inp["n_max"])
        failed += f
        problems += p
    return expected_attempts(inp), failed, problems


def _check_roots(inp: Dict, outputs) -> Outcome:
    failed, problems = 0, []
    for (y, t), per_record in zip(inp["points"], outputs["points"]):
        for key, lo, hi in inp["records"]:
            summary = per_record.get(key, {"error": "missing"})
            f, p = _tally(f"roots_subst: {key} at y={y}, t={t}", summary, lo, hi)
            failed += f
            problems += p
    for key, lo, hi in inp["companions"]:
        summary = outputs["companions"].get(key, {"error": "missing"})
        f, p = _tally(f"roots_subst: companion of {key}", summary, lo, hi)
        failed += f
        problems += p
    if len(outputs["points"]) != len(inp["points"]):
        problems.append("roots_subst: missing points")
        failed = max(failed, 1)
    return expected_attempts(inp), failed, problems


# -- sequences -----------------------------------------------------------


@lru_cache(maxsize=4)
def zigzag(nmax: int) -> Tuple[int, ...]:
    """Euler zigzag numbers A_0..A_nmax by the Seidel-Entringer triangle:
    A_2m = |E_2m| (secant numbers), A_2m-1 = tangent numbers."""
    row, out = [1], [1]
    for n in range(1, nmax + 1):
        new = [0]
        for k in range(n):
            new.append(new[-1] + row[n - 1 - k])
        row = new
        out.append(row[-1])
    return tuple(out)


def staudt_clausen_denominator(n: int) -> int:
    """Denominator of B_n for even n >= 2: product of primes p, (p-1) | n."""
    sieve = bytearray([1]) * (n + 2)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int((n + 1) ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    den = 1
    for p in range(2, n + 2):
        if sieve[p] and n % (p - 1) == 0:
            den *= p
    return den


def sequence_calls(n: int, m: int, x: Fraction) -> List[List[str]]:
    """CLI calls of the sequences workload, in the order checked below."""
    calls = [["compute", kind, str(n)] for kind in ("bernoulli", "euler", "genocchi")]
    for kind in ("bernoulli_poly", "euler_poly", "genocchi_poly"):
        for at in (x, x + 1):
            calls.append(["compute", kind, str(m), "--at", f"x={at}"])
    return calls


def _bernoulli_number(n, m, x, v):
    h = n // 2
    a = zigzag(n)
    want = Fraction((-1) ** (h - 1) * n * a[n - 1], 2 ** n * (2 ** n - 1))
    return v[0] == want and v[0].denominator == staudt_clausen_denominator(n)


def _euler_number(n, m, x, v):
    return v[1] == (-1) ** (n // 2) * zigzag(n)[n]


def _genocchi_number(n, m, x, v):
    return v[2] == Fraction((-1) ** (n // 2) * 2 * n * zigzag(n)[n - 1], 2 ** n)


def _bernoulli_poly(n, m, x, v):
    return v[4] - v[3] == m * x ** (m - 1)


def _euler_poly(n, m, x, v):
    return v[6] + v[5] == 2 * x ** m


def _genocchi_poly(n, m, x, v):
    return v[8] + v[7] == 2 * m * x ** (m - 1)


_SEQUENCE_CHECKS = {
    "B_n = (-1)^(n/2-1) n A_(n-1) / (2^n (2^n-1)), von Staudt-Clausen denominator":
        _bernoulli_number,
    "E_n = (-1)^(n/2) A_n": _euler_number,
    "G_n = (-1)^(n/2) 2n A_(n-1) / 2^n": _genocchi_number,
    "B_m(x+1) - B_m(x) = m x^(m-1)": _bernoulli_poly,
    "E_m(x+1) + E_m(x) = 2 x^m": _euler_poly,
    "G_m(x+1) + G_m(x) = 2m x^(m-1)": _genocchi_poly,
}


def _check_sequences(inp: Dict, outputs) -> Outcome:
    n, m, x = inp["number_index"], inp["poly_degree"], Fraction(inp["x"])
    values = []
    problems: List[str] = []
    for argv, (rc, stdout) in zip(inp["calls"], outputs):
        try:
            values.append(Fraction(stdout.strip()) if rc == 0 else None)
        except ValueError:
            values.append(None)
        if values[-1] is None:
            problems.append(f"sequences: {' '.join(argv)} gave exit {rc}, output {stdout[:60]!r}")
    failed = 0
    for name, holds in _SEQUENCE_CHECKS.items():
        try:
            ok = holds(n, m, x, values)
        except (TypeError, IndexError):  # a missing or unreadable value
            ok = False
        if not ok:
            failed += 1
            problems.append(f"sequences: {name} does not hold (n={n}, m={m}, x={x})")
    return len(_SEQUENCE_CHECKS), failed, problems


_CHECKS = {
    "catalog": _check_catalog,
    "t4_deep": _check_t4,
    "roots_subst": _check_roots,
    "sequences": _check_sequences,
}
