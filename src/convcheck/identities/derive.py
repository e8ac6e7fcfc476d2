"""Mechanical transforms that produce the corrected catalog entries.

Three operations, none re-derived by hand.  The first two are rewrites
of the parsed source statement (:mod:`convcheck.identities.notation`
reads every new piece, written here in the anchors' notation), so a
corrected record is evaluated by the same compiled closures as a
printed one:

* :func:`convert_genocchi_to_bernoulli` -- apply ``G_j = 2 (1 - 2^j) B_j``
  to the summand's Genocchi weight: ``G_(n-k)`` becomes
  ``(1-2^(n-k)) B_(n-k)`` and the right side is halved.

* :func:`reindex_shift_two` -- put ``n = m+2`` into a sum
  ``sum C(n,k) (n-k-1) X(n,k)`` and divide by ``(m+1)(m+2)``: by
  ``C(m+2,k)(m+1-k) = C(m,k)(m+1)(m+2)/(m-k+2)`` the summand becomes
  ``C(m,k) X(m+2,k)/(m-k+2)`` for k <= m, and the two boundary summands
  k = m+1, m+2 move to the right side.

* :func:`derive_corollary` -- state a generic-ring entry with the
  letters bound to the conjugate roots of a recurrence family.  The
  entry shares its theorem's side callables, and in the shared root
  context each side is φ of the theorem's generic value, φ being the
  ring map that puts the roots in place of the letters
  (:meth:`~convcheck.identities.core.Context.from_generic`).  Every
  ring holds its elements in Sig, D and x, so φ shares the generic
  polynomial, and each side is evaluated once for both families, in
  the shared generic context.  As φ is injective, a derived corollary
  passes at n exactly when its theorem does: it restates the theorem
  in root coordinates.  The root charts themselves are checked by the
  tests of the extension ring's arithmetic and the paper's roots, and
  by the BINET records.

The corrected variants of the false printed statements are assembled
here from the true entries they should have followed from.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .core import FAMILIES
from .corollaries import THEOREM_TO_COROLLARY
from .notation import (
    IdentityRecord,
    difference,
    product,
    quotient,
    substitute,
    sum_of,
    summand,
    without,
)

__all__ = [
    "COROLLARY_TO_THEOREM",
    "THEOREM_TO_COROLLARY",
    "convert_genocchi_to_bernoulli",
    "corrected_theorem_records",
    "derive_corollary",
    "derived_corollary_records",
    "reindex_shift_two",
]


def convert_genocchi_to_bernoulli(
    src: IdentityRecord,
    ident: str,
    *,
    anchor: str,
    note: Optional[str] = None,
) -> IdentityRecord:
    """Rewrite a G-weighted sum as its B-weighted equivalent."""
    lhs, rhs = src.statement
    term = product(without(summand(lhs), "G_(n-k)"), "(1-2^(n-k)) B_(n-k)")
    return IdentityRecord(
        ident, "corrected", src.ring, src.lo, src.hi, anchor, note,
        source=src.ident, rewritten=(sum_of(term), quotient(rhs, "2")),
    )


def reindex_shift_two(
    src: IdentityRecord,
    ident: str,
    *,
    flip: bool = False,
    lo: int = 0,
    hi: int = 24,
    anchor: str,
    note: Optional[str] = None,
) -> IdentityRecord:
    """Shift a ``(n-k-1)``-weighted sum by n = m+2 into its ratio-weighted form.

    With ``flip=True`` both sides are negated, which turns a halving
    factor ``(1 - 2^(m-k+2))`` into the printed orientation
    ``(2^(m-k+2) - 1)``.
    """
    lhs, rhs = src.statement
    term = summand(lhs)
    shifted = substitute(without(term, "C(n,k)", "(n-k-1)"), n="n+2")
    boundary = [substitute(term, n="n+2", k=k) for k in ("n+1", "n+2")]
    statement = (
        sum_of(product("C(n,k)", shifted, "1/(n-k+2)")),
        quotient(difference(substitute(rhs, n="n+2"), *boundary), "(n+1)(n+2)"),
    )
    if flip:
        statement = (product("-1", statement[0]), product("-1", statement[1]))
    return IdentityRecord(
        ident, "corrected", src.ring, lo, hi, anchor, note,
        source=src.ident, rewritten=statement,
    )


def corrected_theorem_records(theorems: List[IdentityRecord]) -> List[IdentityRecord]:
    """The machine-corrected variants of the false printed statements,
    rewritten from the records of ``theorems`` (:func:`theorem_records`)."""
    by_id = {r.ident: r for r in theorems if r.variant == "as_printed"}

    t35b = convert_genocchi_to_bernoulli(
        by_id["T3.2"], "T3.5b",
        anchor=(
            "sum C(n,k) D^(n-k) (n-k-1) (1-2^(n-k)) (2^k phi_k + 2 Sig^k) B_(n-k) "
            "= n(1-n) D^2 Sig^(n-2)"
        ),
        note="G_j = 2(1-2^j) B_j applied to the G-weighted sum; right side halved",
    )
    t33 = reindex_shift_two(
        by_id["T3.2"], "T3.3",
        anchor=(
            "sum C(m,k) D^(m-k+2) G_(m-k+2)/(m-k+2) (2^k phi_k + 2 Sig^k) "
            "= -2 D^2 Sig^m"
        ),
        note="index shift n = m+2 of the (n-k-1)-weighted sum; boundary terms vanish",
    )
    t36a = reindex_shift_two(
        by_id["T3.5a"], "T3.6a",
        anchor=(
            "sum C(m,k) D^(m-k+2) B_(m-k+2)/(m-k+2) (2^k phi_k - 2 Sig^k) "
            "= ((2^(m+2) phi_(m+2) - 2 Sig^(m+2)) - (m+1)(m+2) D^2 Sig^m) / ((m+1)(m+2))"
        ),
        note="index shift n = m+2; the k = m+2 boundary summand moves to the right side",
    )
    t36b = reindex_shift_two(
        t35b, "T3.6b", flip=True,
        anchor=(
            "sum C(m,k) D^(m-k+2) (2^(m-k+2)-1) B_(m-k+2)/(m-k+2) "
            "(2^k phi_k + 2 Sig^k) = D^2 Sig^m"
        ),
        note="index shift n = m+2 of the corrected halved sum, both sides negated",
    )
    return [t35b, t33, t36a, t36b]


COROLLARY_TO_THEOREM: Dict[str, Tuple[str, str]] = {
    cid: pair for pair, cid in THEOREM_TO_COROLLARY.items()
}


def _corollary_from(src: IdentityRecord, family: str) -> IdentityRecord:
    # a printed source's anchor, with the letters annotated, reads to the
    # source's own trees; a rewritten source's tree carries over
    return src.replace(
        ident=THEOREM_TO_COROLLARY[(src.ident, family)],
        variant="corrected",
        ring=f"{family}-roots",
        lo=0,
        hi=20,
        anchor=f"{src.anchor}  [letters = {family} roots]",
        note=f"derived from {src.ident} over the {family} root pair",
        source=src.ident,
    )


def derive_corollary(theorem_ident: str, family: str) -> IdentityRecord:
    """Family form of a generic catalog entry, over the root letters.

    The returned entry states its source's statement in the family's
    root ring, where ``u``/``v`` are the conjugate roots, ``D`` their
    difference, and the symmetric functions become the family
    sequences.  The source is the catalog's own record, its corrected
    variant where one exists, so the entry shares its sides with the
    catalog's corollary.
    """
    from .catalog import _lookup  # the catalog is built from this module

    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if (theorem_ident, family) not in THEOREM_TO_COROLLARY:
        raise ValueError(f"no generic catalog entry named {theorem_ident!r}")
    # a corrected variant follows its printed one in the catalog
    return _corollary_from(_lookup(theorem_ident)[-1], family)


def derived_corollary_records(
    theorems: List[IdentityRecord], corrected: List[IdentityRecord]
) -> List[IdentityRecord]:
    """Every theorem stated over both root families, in catalog order,
    each from the ``corrected`` variant of its source in ``theorems``
    where one exists."""
    sources = {r.ident: r for r in theorems + corrected}
    return [
        _corollary_from(sources[tid], family)
        for (tid, family) in sorted(
            THEOREM_TO_COROLLARY, key=lambda p: THEOREM_TO_COROLLARY[p]
        )
    ]
