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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from . import __version__
from .identities.catalog import STATIC_ERRATA, _lookup, register_catalog
from .identities.core import IdentityRecord, IdentityVerdict, run_record

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


@dataclass
class ResultRow:
    """One record's outcome over its evaluated range."""

    record: IdentityRecord
    lo: int
    hi: int
    verdicts: List[IdentityVerdict]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def first_fail_n(self) -> Optional[int]:
        for v in self.verdicts:
            if not v.passed:
                return v.n
        return None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


def select_records(
    ids: Optional[Sequence[str]] = None, variant: str = "both"
) -> List[IdentityRecord]:
    """Catalog slice for an id list (None = all) and a variant filter.

    Each selected record appears once, in catalog order; an unknown id,
    or ids of which the variant filter leaves no record, raise
    ``KeyError``.
    """
    catalog = register_catalog()
    if ids:
        wanted = {rec.key for ident in ids for rec in _lookup(ident)}
        catalog = [r for r in catalog if r.key in wanted]
    if variant != "both":
        catalog = [r for r in catalog if r.variant == variant]
    if ids and not catalog:
        raise KeyError(f"no {variant} variant of {', '.join(ids)}")
    return catalog


def run_records(
    records: Sequence[IdentityRecord], max_n: Optional[int] = None
) -> List[ResultRow]:
    """Evaluate each record over its range (optionally capped at max_n)."""
    rows: List[ResultRow] = []
    for rec in records:
        lo, hi = rec.default_range()
        if max_n is not None:
            hi = min(hi, max_n)
        rows.append(ResultRow(rec, lo, hi, run_record(rec, (lo, hi))))
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
        if rec.variant != "as_printed" or row.passed:
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
        if row.passed:
            continue
        if row.record.variant == "corrected":
            return 1
        if row.record.ident not in siblings:
            return 1
    return 0


def render_json(payload: Dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def render_text(
    rows: Sequence[ResultRow], per_n: bool = False, runtime: Optional[float] = None
) -> str:
    lines: List[str] = []
    ordered = sorted(rows, key=lambda r: (r.record.ident, r.record.variant))
    for row in ordered:
        status = "PASS" if row.passed else "FAIL"
        extra = "" if row.passed else f"  first failure at n={row.first_fail_n}"
        lines.append(
            f"{status} {row.record.key}  n in [{row.lo},{row.hi}]{extra}"
        )
        if per_n:
            for v in row.verdicts:
                mark = "ok" if v.passed else "FAIL"
                lines.append(f"  n={v.n:<3d} {mark}" + ("" if v.passed else f"  diff = {v.diff}"))
    npass = sum(1 for r in ordered if r.passed)
    summary = f"{npass}/{len(ordered)} records pass"
    if runtime is not None:
        summary += f" ({runtime:.2f}s)"
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_markdown(payload: Dict) -> str:
    lines: List[str] = []
    lines.append("# Identity verification report")
    lines.append("")
    lines.append(f"Tool version {payload['version']}; "
                 f"{len(payload['results'])} records checked.")
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
