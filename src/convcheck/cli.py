"""Command-line front end.

Subcommands
-----------
verify   run identity checks and print verdicts (text, json, or markdown)
report   full catalog run rendered as a discrepancy-focused document
compute  evaluate one sequence element (optionally at a point)
series   print EGF coefficients of one of the special series

Exit status: 0 when everything expected to hold does hold, 1 when a
corrected-variant check (or an as-printed check with no corrected
sibling) fails, 2 for usage errors such as an unknown identity id, a
malformed ``--at`` point, an ``--at`` point given for a number kind,
binding a variable twice or binding one outside the kind's own (``x``
for the ``*_poly`` kinds, ``y`` and ``t`` for ``biv_*``), a ``compute``
index whose value's total degree passes ``arith.MAX_EXP``, an ``--id``
that the ``--variant`` filter leaves without a record, a ``--max-n``
below the first index of every selected record, or an ``--out`` file
that cannot be written.  A record whose capped range holds no index is
reported as skipped, never as a pass.  ``compute`` and ``series`` print
every value whole, however many digits it has.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time
from typing import List, Optional

from ._scalar import as_rational
from .arith import MAX_EXP
from .report import (
    build_payload,
    exit_code_for,
    render_json,
    render_markdown,
    render_text,
    run_records,
    select_records,
)
from .sequences import (
    BIVARIATE_KINDS,
    bernoulli_number,
    bivariate_sequence,
    euler_number,
    genocchi_number,
    number_polynomial,
)
from .egf import SPECIAL_KINDS, egf_special

__all__ = ["main"]

_NUMBER_FNS = {
    "bernoulli": bernoulli_number,
    "euler": euler_number,
    "genocchi": genocchi_number,
}
_POLY_KINDS = ("bernoulli_poly", "euler_poly", "genocchi_poly")
_BIV_NAMES = tuple(f"biv_{kind}" for kind in BIVARIATE_KINDS)
COMPUTE_KINDS = tuple(_NUMBER_FNS) + _POLY_KINDS + _BIV_NAMES
# a polynomial kind's value at n has total degree n, less this lag
_DEGREE_LAG = {"biv_fibonacci": 1, "biv_balancing": 1}


def _parse_point(text: str) -> dict:
    """'y=1,t=-2' -> {'y': 1, 't': -2} with exact rational values."""
    bindings = {}
    for chunk in text.split(","):
        name, sep, value = chunk.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"expected name=value, got {chunk!r}")
        if name in bindings:
            raise ValueError(f"--at binds {name} twice")
        try:
            bindings[name] = as_rational(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {chunk!r}") from None
    return bindings


def _emit(doc: str, out: Optional[str]) -> bool:
    """Write doc to the file out (stdout when None); False, after a
    one-line message, when the file cannot be written."""
    if not out:
        sys.stdout.write(doc)
        return True
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    except OSError as exc:
        print(f"cannot write {out}: {exc.strerror}", file=sys.stderr)
        return False
    return True


@contextlib.contextmanager
def _all_digits():
    """Format integers of any length inside the block.  Python limits
    int -> str conversion to 4,300 digits by default, a guard against
    parsing untrusted text; for a value convcheck computed it would only
    stop the value from being printed (E_2000 has 5,344 digits).  The
    process's limit is restored after the block."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # a Python without the limit
        yield
        return
    limit = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _check_and_emit(args: argparse.Namespace, ids: Optional[List[str]]) -> int:
    """Run the selected records and write them in ``args.format``; shared
    by ``verify`` and ``report``, which differ only in their defaults."""
    if args.max_n is not None and args.max_n < 0:
        print(f"--max-n must be non-negative, got {args.max_n}", file=sys.stderr)
        return 2
    try:
        records = select_records(ids, args.variant)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    # only verify's text for chosen ids lists every index
    per_n = args.format == "text" and bool(ids)
    started = time.perf_counter()
    rows = run_records(records, args.max_n, per_n=per_n)
    elapsed = time.perf_counter() - started
    if all(row.status == "skipped" for row in rows):
        print(f"--max-n {args.max_n} is below the first index of every selected record; "
              "nothing was checked", file=sys.stderr)
        return 2
    if args.format == "text":
        runtime = elapsed if args.command == "verify" else None
        doc = render_text(rows, per_n=per_n, runtime=runtime)
    else:
        config = {
            "command": args.command,
            "ids": sorted(ids) if ids else "all",
            "variant": args.variant,
            "max_n": args.max_n,
        }
        render = render_json if args.format == "json" else render_markdown
        doc = render(build_payload(rows, config))
    if not _emit(doc, args.out):
        return 2
    return exit_code_for(rows)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.id and args.all:
        print("choose either --all or --id, not both", file=sys.stderr)
        return 2
    return _check_and_emit(args, args.id or None)


def _cmd_report(args: argparse.Namespace) -> int:
    return _check_and_emit(args, None)


def _cmd_compute(args: argparse.Namespace) -> int:
    if args.n < 0:
        print(f"index must be non-negative, got {args.n}", file=sys.stderr)
        return 2
    if args.at is not None and args.what in _NUMBER_FNS:
        print(f"--at applies to polynomial kinds; {args.what} is a number", file=sys.stderr)
        return 2
    degree = args.n - _DEGREE_LAG.get(args.what, 0)
    if args.what not in _NUMBER_FNS and degree > MAX_EXP:
        print(f"{args.what} {args.n} has total degree {degree}, past the largest a polynomial "
              f"may have, {MAX_EXP}", file=sys.stderr)
        return 2
    try:
        if args.what in _NUMBER_FNS:
            value = _NUMBER_FNS[args.what](args.n)
        elif args.what in _POLY_KINDS:
            value = number_polynomial(args.what, args.n)
        else:
            value = bivariate_sequence(args.what[len("biv_"):], args.n)
        if args.at is not None:
            point = _parse_point(args.at)
            own = ("x",) if args.what in _POLY_KINDS else ("y", "t")
            stray = sorted(set(point) - set(own))
            if stray:
                raise ValueError(
                    f"--at binds {', '.join(stray)}, but {args.what} "
                    f"is a polynomial in {', '.join(own)}"
                )
            value = value.substitute(point)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    with _all_digits():
        text = str(value)
    print(text)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    if args.order < 0:
        print(f"order must be non-negative, got {args.order}", file=sys.stderr)
        return 2
    series = egf_special(args.which, args.order)
    with _all_digits():
        text = "".join(f"{n}: {coeff}\n" for n, coeff in enumerate(series.coeffs))
    sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage error is one line on stderr, with
    exit status 2; ``-h`` still prints the full usage."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="convcheck",
        description="exact verification of convolution identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("--all", action="store_true",
                          help="check the whole catalog (default)")
    p_verify.add_argument("--id", action="append", metavar="ID[:variant]",
                          help="check one identity; repeatable")
    p_verify.add_argument("--max-n", type=int, default=None,
                          help="cap the upper end of every range")
    p_verify.add_argument("--variant", default="both",
                          choices=("as_printed", "corrected", "both"))
    p_verify.add_argument("--format", default="text",
                          choices=("text", "json", "markdown"))
    p_verify.add_argument("--out", default=None, help="write to a file")
    p_verify.set_defaults(func=_cmd_verify)

    p_report = sub.add_parser("report", help="full catalog report with errata")
    p_report.add_argument("--variant", default="both",
                          choices=("as_printed", "corrected", "both"))
    p_report.add_argument("--max-n", type=int, default=None)
    p_report.add_argument("--format", default="markdown",
                          choices=("markdown", "json", "text"))
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=_cmd_report)

    p_compute = sub.add_parser("compute", help="evaluate one sequence element")
    p_compute.add_argument("what", choices=COMPUTE_KINDS)
    p_compute.add_argument("n", type=int)
    p_compute.add_argument("--at", default=None, metavar="y=1,t=1",
                           help="evaluate the polynomial at a rational point")
    p_compute.set_defaults(func=_cmd_compute)

    p_series = sub.add_parser("series", help="EGF coefficients")
    p_series.add_argument("which", choices=SPECIAL_KINDS)
    p_series.add_argument("--order", type=int, default=12)
    p_series.set_defaults(func=_cmd_series)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
