"""Verification runs and their deterministic renderings.

The JSON layout is frozen (field names and ordering are part of the
interface contract):

    {"version": ..., "config": {...},
     "results": [{"id", "variant", "range", "status", "first_fail_n"}, ...],
     "errata":  [{"id", "anchor", "note"}, ...]}

Results are ordered by (id, variant); errata rows are the as-printed
failures confirmed by the run (with pointers to their corrected
siblings) followed by the static printing anomalies.  Nothing
time-dependent is ever emitted in JSON, so identical runs are
byte-identical.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from . import __version__
from ._fields import Fields
from .identities.catalog import STATIC_ERRATA, _lookup, register_catalog
from .identities.core import IdentityVerdict, run_record
from .identities.notation import IdentityRecord

__all__ = [
    "ResultRow",
    "build_payload",
    "exit_code_for",
    "render_json",
    "render_markdown",
    "render_text",
    "run_records",
    "select_records",
]


class ResultRow(Fields):
    """One record's outcome over its evaluated range.

    ``verdicts`` ends at the first failing index unless the run was
    asked for every index (``run_records``'s ``per_n``).  A range that
    holds no index (``--max-n`` below the record's first n) checks
    nothing: the row is ``skipped``, neither a pass nor a failure.
    """

    _fields = ("record", "lo", "hi", "verdicts")

    def __init__(self, record: IdentityRecord, lo: int, hi: int,
                 verdicts: List[IdentityVerdict]):
        self.record = record
        self.lo = lo
        self.hi = hi
        self.verdicts = verdicts

    @property
    def first_fail_n(self) -> Optional[int]:
        for v in self.verdicts:
            if not v.passed:
                return v.n
        return None

    @property
    def status(self) -> str:
        """"pass", "fail", or "skipped" when no index was checked."""
        if not self.verdicts:
            return "skipped"
        return "fail" if self.first_fail_n is not None else "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def select_records(
    ids: Optional[Sequence[str]] = None, variant: str = "both"
) -> List[IdentityRecord]:
    """Catalog slice for an id list (None = all) and a variant filter.

    Each selected record appears once, in catalog order; an unknown id,
    or an id of which the variant filter leaves no record, raises
    ``KeyError``.
    """
    def kept(rec: IdentityRecord) -> bool:
        return variant in ("both", rec.variant)

    catalog = register_catalog()
    if not ids:
        return [r for r in catalog if kept(r)]
    chosen = {ident: [rec.key for rec in _lookup(ident) if kept(rec)] for ident in ids}
    empty = [ident for ident, got in chosen.items() if not got]
    if empty:
        raise KeyError(f"no {variant} variant of {', '.join(empty)}")
    wanted = {key for got in chosen.values() for key in got}
    return [r for r in catalog if r.key in wanted]


def run_records(
    records: Sequence[IdentityRecord], max_n: Optional[int] = None, per_n: bool = False
) -> List[ResultRow]:
    """Evaluate each record over its range (optionally capped at max_n).

    A record's checks stop after its first failing index, wrong or
    undefined: status, ``first_fail_n``, errata and exit code read no
    later one.  ``per_n`` checks every index, for the per-index listing.
    Each index is its own ``run_record`` call, so the stop is here and a
    wrapper that splits ``run_record`` by index sees only what ran.
    """
    rows: List[ResultRow] = []
    for rec in records:
        lo, hi = rec.default_range()
        if max_n is not None:
            hi = min(hi, max_n)
        verdicts: List[IdentityVerdict] = []
        for n in range(lo, hi + 1):
            verdicts += run_record(rec, (n, n))
            if not (per_n or verdicts[-1].passed):
                break
        rows.append(ResultRow(rec, lo, hi, verdicts))
    return rows


def _corrected_siblings() -> Dict[str, IdentityRecord]:
    out: Dict[str, IdentityRecord] = {}
    for rec in register_catalog():
        if rec.variant == "corrected":
            out[rec.ident] = rec
    return out


def _errata_rows(rows: Sequence[ResultRow]) -> List[Dict[str, str]]:
    siblings = _corrected_siblings()
    found: List[Dict[str, str]] = []
    for row in rows:
        rec = row.record
        if rec.variant != "as_printed" or not row.failed:
            continue
        note = rec.note or "fails as printed"
        note += f"; first failing index {row.first_fail_n}"
        sib = siblings.get(rec.ident)
        if sib is not None:
            note += f"; corrected form: {sib.anchor}"
        found.append({"id": rec.ident, "anchor": rec.anchor, "note": note})
    found.sort(key=lambda e: (e["id"], e["anchor"]))
    static = sorted(STATIC_ERRATA, key=lambda e: (e["id"], e["anchor"]))
    return found + static


def build_payload(rows: Sequence[ResultRow], config: Dict) -> Dict:
    """The frozen report dictionary (insertion order = emission order)."""
    results = [
        {
            "id": row.record.ident,
            "variant": row.record.variant,
            "range": [row.lo, row.hi],
            "status": row.status,
            "first_fail_n": row.first_fail_n,
        }
        for row in sorted(rows, key=lambda r: (r.record.ident, r.record.variant))
    ]
    return {
        "version": __version__,
        "config": config,
        "results": results,
        "errata": _errata_rows(rows),
    }


def exit_code_for(rows: Sequence[ResultRow]) -> int:
    """0 iff nothing unexpected failed.

    A corrected record failing means the implementation (or the
    mechanical derivation) is wrong.  An as-printed record failing is
    expected -- that is the documented erratum -- but only when a
    corrected sibling exists in the catalog; an as-printed failure with
    no sibling is unexplained and therefore also an error.
    """
    siblings = _corrected_siblings()
    for row in rows:
        if not row.failed:
            continue
        if row.record.variant == "corrected":
            return 1
        if row.record.ident not in siblings:
            return 1
    return 0


def render_json(payload: Dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


_TEXT_STATUS = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}


def render_text(
    rows: Sequence[ResultRow], per_n: bool = False, runtime: Optional[float] = None
) -> str:
    lines: List[str] = []
    ordered = sorted(rows, key=lambda r: (r.record.ident, r.record.variant))
    for row in ordered:
        status = _TEXT_STATUS[row.status]
        extra = f"  first failure at n={row.first_fail_n}" if row.failed else ""
        lines.append(
            f"{status} {row.record.key}  n in [{row.lo},{row.hi}]{extra}"
        )
        if per_n:
            for v in row.verdicts:
                mark = "ok" if v.passed else "FAIL"
                lines.append(f"  n={v.n:<3d} {mark}" + ("" if v.passed else f"  diff = {v.diff}"))
    npass = sum(1 for r in ordered if r.status == "pass")
    nchecked = sum(1 for r in ordered if r.status != "skipped")
    summary = f"{npass}/{nchecked} records pass"
    if nchecked < len(ordered):
        summary += f", {len(ordered) - nchecked} skipped"
    if runtime is not None:
        summary += f" ({runtime:.2f}s)"
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_markdown(payload: Dict) -> str:
    lines: List[str] = []
    lines.append("# Identity verification report")
    lines.append("")
    skipped = sum(1 for row in payload["results"] if row["status"] == "skipped")
    checked = f"{len(payload['results']) - skipped} records checked"
    if skipped:
        checked += f", {skipped} skipped"
    lines.append(f"Tool version {payload['version']}; {checked}.")
    lines.append("")
    lines.append("## Results")
    lines.append("")
    lines.append("| id | variant | range | status | first failing n |")
    lines.append("|---|---|---|---|---|")
    for row in payload["results"]:
        first = row["first_fail_n"]
        lines.append(
            "| {id} | {variant} | [{lo}, {hi}] | {status} | {first} |".format(
                id=row["id"], variant=row["variant"],
                lo=row["range"][0], hi=row["range"][1],
                status=row["status"], first="-" if first is None else first,
            )
        )
    lines.append("")
    lines.append("## Errata")
    lines.append("")
    if payload["errata"]:
        lines.append("| id | printed form | note |")
        lines.append("|---|---|---|")
        for err in payload["errata"]:
            anchor = err["anchor"].replace("|", "\\|")
            note = err["note"].replace("|", "\\|")
            lines.append(f"| {err['id']} | {anchor} | {note} |")
    else:
        lines.append("No discrepancies recorded on this run.")
    lines.append("")
    return "\n".join(lines)
