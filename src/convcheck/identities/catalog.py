"""Assembled catalog: every checkable statement, plus the static errata.

``register_catalog`` concatenates, in a fixed deterministic order:

* lemma-level entries and the Binet closed forms,
* the generic-ring statements (as printed),
* their machine-corrected variants,
* the family corollaries as printed,
* the machine-derived family form of every generic statement.

Statements known to be misprinted therefore appear twice (``as_printed``
and ``corrected``), and the report treats an ``as_printed`` failure as an
erratum precisely when a corrected sibling exists and passes.

``STATIC_ERRATA`` lists the printing anomalies that are not themselves
checkable equations (duplicated root labels, argument-pair mixups);
everything checkable is reported from verdicts instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .corollaries import corollary_records
from .derive import corrected_theorem_records, derived_corollary_records
from .notation import IdentityRecord
from .theorems import binet_records, lemma_records, theorem_records

__all__ = [
    "STATIC_ERRATA",
    "get_record",
    "register_catalog",
]

# printing anomalies with no equation to evaluate
STATIC_ERRATA: List[Dict[str, str]] = [
    {
        "id": "BINET.F",
        "anchor": "lam1 = (y + sqrt(y^2+4t))/2 and lam1 = (y + sqrt(y^2+4t))/2",
        "note": (
            "the two conjugate roots are printed identically (the second "
            "should be lam2 with a minus); the root pair used throughout is "
            "(y +- sqrt(y^2+4t))/2"
        ),
    },
    {
        "id": "BINET.Bst",
        "anchor": "lam1 = 3y + sqrt(9y^2-t) and lam2 = 3y + sqrt(9y^2-t)",
        "note": (
            "both roots are printed with a plus sign; the root pair used "
            "throughout is 3y +- sqrt(9y^2-t)"
        ),
    },
    {
        "id": "C2.4.2",
        "anchor": "(n+1) C_n(y,t) + B*_(n+1)(x,y)",
        "note": (
            "the trailing term's argument pair is printed in the other "
            "family's letters; read as B*_(n+1)(y,t), under which the "
            "statement checks out"
        ),
    },
    {
        "id": "T2.1a",
        "anchor": "sum_(n=0)^(n) C(n,k) ...",
        "note": "the summation subscript prints n = 0 where the index is k",
    },
    {
        "id": "L1.2S",
        "anchor": "(1/(e1-e2)) (exp(u z) - exp(v z))",
        "note": (
            "the printed normalizer e1 - e2 = u + v - u v; the series of "
            "S_(n-1) requires the letter difference u - v"
        ),
    },
]

_CATALOG: Optional[List[IdentityRecord]] = None
_BY_KEY: Dict[str, IdentityRecord] = {}
_BY_IDENT: Dict[str, List[IdentityRecord]] = {}


def register_catalog() -> List[IdentityRecord]:
    """The full, deterministic record list (built once per process)."""
    global _CATALOG
    if _CATALOG is None:
        theorems = theorem_records()
        corrected = corrected_theorem_records(theorems)
        records = lemma_records() + binet_records() + theorems + corrected
        records.extend(corollary_records())
        records.extend(derived_corollary_records(theorems, corrected))
        for rec in records:
            if rec.key in _BY_KEY:
                raise RuntimeError(f"duplicate catalog key {rec.key}")
            _BY_KEY[rec.key] = rec
            _BY_IDENT.setdefault(rec.ident, []).append(rec)
        _CATALOG = records
    return list(_CATALOG)


def _lookup(identifier: str) -> List[IdentityRecord]:
    register_catalog()
    if ":" in identifier:
        rec = _BY_KEY.get(identifier)
        if rec is None:
            raise KeyError(f"unknown identity: {identifier}")
        return [rec]
    recs = _BY_IDENT.get(identifier)
    if not recs:
        raise KeyError(f"unknown identity: {identifier}")
    return list(recs)


def get_record(identifier: str) -> IdentityRecord:
    """Single record for a fully qualified or single-variant identifier."""
    recs = _lookup(identifier)
    if len(recs) > 1:
        raise KeyError(
            f"ambiguous identity: {identifier} has variants "
            + ", ".join(r.variant for r in recs)
        )
    return recs[0]

