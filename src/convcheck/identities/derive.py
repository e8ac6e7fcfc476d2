"""Mechanical transforms that produce the corrected catalog entries.

Three operations, all shape-driven so nothing is re-derived by hand:

* :func:`reindex_shift_two` -- rewrite a weighted convolution
  ``sum C(n,k) D^(n-k) (n-k-1) [..] num_(n-k)`` at ``n = m+2`` as a sum
  over ``k <= m`` with the weight absorbed into ``num_(m-k+2)/(m-k+2)``,
  using ``C(m+2,k)(m+1-k) = C(m,k)(m+1)(m+2)/(m-k+2)``.  The two
  boundary summands ``k = m+1, m+2`` are evaluated literally and moved
  to the right side, which is then divided by ``(m+1)(m+2)``.

* :func:`convert_genocchi_to_bernoulli` -- replace the Genocchi weight
  via ``G_j = 2 (1 - 2^j) B_j``: the left side keeps its shape but gains
  the factor ``(1 - 2^(n-k))`` and a Bernoulli weight, the right side is
  halved.

* :func:`derive_corollary` -- evaluate a generic-ring entry with the
  letters bound to the conjugate roots of a recurrence family.  The
  entry's side callables are ring-generic, so the "substitution" is
  nothing more than running them in the root context.

The corrected variants of the false printed statements are assembled
here from the true entries they should have followed from.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .._scalar import Rational
from ..arith import binomial
from ..quadext import FAMILIES
from .core import Context, IdentityRecord, eval_convolution_sum
from .theorems import (
    WeightedShape,
    _bracket_fn,
    _halving_factor,
    _number_fn,
    theorem_records,
    weighted_conv_lhs,
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
    """Rewrite a G-weighted entry as its B-weighted equivalent."""
    shape = src.shape
    if shape is None or shape.num != "G" or shape.halving:
        raise ValueError("conversion needs a plain Genocchi-weighted shape")
    new_shape = WeightedShape(num="B", bracket=shape.bracket, halving=1)
    half = Rational(1, 2)
    src_rhs = src.rhs

    def rhs(ctx: Context, n: int):
        return half * src_rhs(ctx, n)

    return IdentityRecord(
        ident, "corrected", src.ring, src.lo, src.hi,
        weighted_conv_lhs(new_shape), rhs,
        anchor=anchor, note=note, source=src.ident, shape=new_shape,
    )


def _boundary_term(ctx: Context, m: int, shape: WeightedShape):
    """Summands k = m+1, m+2 of the source sum at n = m+2, literally."""
    n = m + 2
    numf = _number_fn(ctx, shape.num)
    bracket = _bracket_fn(ctx, shape.bracket)
    total = ctx.zero
    for k in (m + 1, m + 2):
        j = n - k
        w = (j - 1) * _halving_factor(shape.halving, j) * numf(j)
        if not w:
            continue
        scalar = binomial(n, k) * w
        total = total + scalar * (ctx.Dpow(j) * bracket(k))
    return total


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
    """Shift a weighted entry by n = m+2 into its ratio-weighted form.

    With ``flip=True`` both sides are negated, which turns a halving
    factor ``(1 - 2^(m-k+2))`` into the printed orientation
    ``(2^(m-k+2) - 1)``.
    """
    shape = src.shape
    if shape is None:
        raise ValueError("re-indexing needs a weighted shape")
    sign = -1 if flip else 1
    numf_name = shape.num
    halving = shape.halving
    bracket_sign = shape.bracket
    src_rhs = src.rhs

    def lhs(ctx: Context, m: int):
        numf = _number_fn(ctx, numf_name)

        def weight(m_: int, k: int):
            j2 = m_ - k + 2
            return sign * _halving_factor(halving, j2) * numf(j2) * Rational(1, j2)

        return eval_convolution_sum(
            ctx, m, _bracket_fn(ctx, bracket_sign),
            lambda j: ctx.Dpow(j + 2),
            weight=weight,
        )

    def rhs(ctx: Context, m: int):
        full = src_rhs(ctx, m + 2) - _boundary_term(ctx, m, shape)
        return (sign * Rational(1, (m + 1) * (m + 2))) * full

    return IdentityRecord(
        ident, "corrected", src.ring, lo, hi, lhs, rhs,
        anchor=anchor, note=note, source=src.ident,
    )


def corrected_theorem_records() -> List[IdentityRecord]:
    """The machine-corrected variants of the false printed statements."""
    by_id = {r.ident: r for r in theorem_records() if r.variant == "as_printed"}

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


# --------------------------------------------------------------------------
# theorem -> corollary naming, per recurrence family
# --------------------------------------------------------------------------

THEOREM_TO_COROLLARY: Dict[Tuple[str, str], str] = {
    ("T2.1a", "fibonacci"): "C2.1.1",
    ("T2.1b", "fibonacci"): "C2.1.2",
    ("T2.1c", "fibonacci"): "C2.1.3",
    ("T2.2b", "fibonacci"): "C2.2.1",
    ("T2.2a", "fibonacci"): "C2.2.2",
    ("T2.2c", "fibonacci"): "C2.2.3",
    ("T2.1a", "balancing"): "C2.3.1",
    ("T2.1b", "balancing"): "C2.3.2",
    ("T2.1c", "balancing"): "C2.3.3",
    ("T2.2b", "balancing"): "C2.4.1",
    ("T2.2a", "balancing"): "C2.4.2",
    ("T2.2c", "balancing"): "C2.4.3",
    ("T3.1", "fibonacci"): "C3.1",
    ("T3.2", "fibonacci"): "C3.2",
    ("T3.3", "fibonacci"): "C3.3",
    ("T3.4a", "fibonacci"): "C3.4a",
    ("T3.4b", "fibonacci"): "C3.4b",
    ("T3.5a", "fibonacci"): "C3.5a",
    ("T3.5b", "fibonacci"): "C3.5b",
    ("T3.6a", "fibonacci"): "C3.6a",
    ("T3.6b", "fibonacci"): "C3.6b",
    ("T3.7", "fibonacci"): "C3.7",
    ("T3.1", "balancing"): "C3.8",
    ("T3.2", "balancing"): "C3.9",
    ("T3.3", "balancing"): "C3.10",
    ("T3.4a", "balancing"): "C3.11a",
    ("T3.4b", "balancing"): "C3.11b",
    ("T3.5a", "balancing"): "C3.12a",
    ("T3.5b", "balancing"): "C3.12b",
    ("T3.6a", "balancing"): "C3.13a",
    ("T3.6b", "balancing"): "C3.13b",
    ("T3.7", "balancing"): "C3.14",
    ("T4.1", "fibonacci"): "C4.1",
    ("T4.2", "fibonacci"): "C4.2",
    ("T4.3", "fibonacci"): "C4.3",
    ("T4.1", "balancing"): "C4.4",
    ("T4.2", "balancing"): "C4.5",
    ("T4.3", "balancing"): "C4.6",
}

COROLLARY_TO_THEOREM: Dict[str, Tuple[str, str]] = {
    cid: pair for pair, cid in THEOREM_TO_COROLLARY.items()
}


def _generic_theorems() -> Dict[str, IdentityRecord]:
    """Generic-ring sources, preferring the corrected variant if one exists."""
    out = {r.ident: r for r in theorem_records()}
    for rec in corrected_theorem_records():
        out[rec.ident] = rec
    return out


def _corollary_from(
    sources: Dict[str, IdentityRecord], theorem_ident: str, family: str
) -> IdentityRecord:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    src = sources.get(theorem_ident)
    if src is None:
        raise ValueError(f"no generic catalog entry named {theorem_ident!r}")
    cid = THEOREM_TO_COROLLARY[(theorem_ident, family)]
    return IdentityRecord(
        cid, "corrected", f"{family}-roots", 0, 20,
        src.lhs, src.rhs,
        anchor=f"{src.anchor}  [letters = {family} roots]",
        note=f"derived from {theorem_ident} over the {family} root pair",
        source=theorem_ident,
        parity=src.parity,
        unrestricted_lhs=src.unrestricted_lhs,
        unrestricted_rhs=src.unrestricted_rhs,
    )


def derive_corollary(theorem_ident: str, family: str) -> IdentityRecord:
    """Family form of a generic entry, by evaluation over the root letters.

    The returned entry keeps the source's side callables: the only change
    is the ring, where ``u``/``v`` are the conjugate roots, ``D`` their
    difference, and the symmetric functions become the family sequences.
    """
    return _corollary_from(_generic_theorems(), theorem_ident, family)


def derived_corollary_records() -> List[IdentityRecord]:
    """Every theorem evaluated over both root families, in catalog order."""
    sources = _generic_theorems()
    return [
        _corollary_from(sources, tid, family)
        for (tid, family) in sorted(
            THEOREM_TO_COROLLARY, key=lambda p: THEOREM_TO_COROLLARY[p]
        )
    ]
