"""Generic-ring catalog entries.

This module states every equation of the catalog that lives in the
generic two-letter ring: the T2.x binomial/plain convolutions of the
two-letter symmetric functions, the T3.x convolutions against
Bernoulli/Euler/Genocchi numbers, the T4.x convolutions against the
corresponding polynomials, plus the lemma-level identities (L1.x, R1.x)
and the closed-form entries for the recurrence families (BINET.x).

Each record is its anchor, read by :mod:`convcheck.identities.notation`
(which states the notation and the clearing conventions), plus a note
on what is known to be wrong with it as printed.  A record also keeps
its parsed, cleared statement, which the mechanical transforms rewrite.

Corrected variants of the false printed statements are not written by
hand here: they are produced mechanically in
:mod:`convcheck.identities.derive`.
"""

from __future__ import annotations

from typing import List

from .notation import IdentityRecord, printed

__all__ = ["binet_records", "lemma_records", "theorem_records"]

_IND = "indeterminate"

# ident, variant, ring, lo, hi, anchor, note
_THEOREMS = [
    ("T2.1a", "as_printed", _IND, 0, 30,
     "sum C(n,k) S_(n-k-1) S_(k-1) = (2^n phi_n - 2 Sig^n) / D^2",
     "recorded cleared by D^2; the printed sum subscript reads n=0 for k=0"),
    ("T2.1b", "as_printed", _IND, 0, 30,
     "sum C(n,k) phi_(n-k) phi_k = 2^n phi_n + 2 Sig^n", None),
    ("T2.1c", "as_printed", _IND, 0, 30,
     "sum C(n,k) S_(n-k-1) phi_k = 2^n S_(n-1)", None),
    ("T2.2a", "as_printed", _IND, 0, 30,
     "sum phi_k phi_(n-k) = (n+1) phi_n + 2 S_n", None),
    ("T2.2b", "as_printed", _IND, 0, 30,
     "sum S_(k-1) S_(n-k-1) = ((n+1) phi_n - 2 S_n) / D^2",
     "recorded cleared by D^2"),
    ("T2.2c", "as_printed", _IND, 0, 30,
     "sum phi_k S_(n-k-1) = (n+1) S_(n-1)", None),
    ("T3.1", "as_printed", _IND, 0, 30,
     "sum[n=k(2)] C(n,k) D^(n-k) (2^k phi_k + 2 Sig^k) G_(n-k) = -n 2^(n-1) D^2 S_(n-2)", None),
    ("T3.2", "as_printed", _IND, 0, 30,
     "sum C(n,k) D^(n-k) (n-k-1) (2^k phi_k + 2 Sig^k) G_(n-k) = -2n(n-1) D^2 Sig^(n-2)", None),
    ("T3.3", "as_printed", _IND, 0, 24,
     "sum[m=k(2)] C(m,k) D^(m-k) G_(m-k-2)/(m-k-2) (2^k phi_k + 2 Sig^k) = -2 D^2 Sig^m",
     "printed number index reads m-k-2 where the index shift n=m+2 "
     "yields m-k+2 (and D^(m-k) for D^(m-k+2)); a 0/0 summand is read as 0"),
    ("T3.4a", "as_printed", _IND, 0, 30,
     "sum[n=k(2)] C(n,k) D^(n-k) (2^k phi_k - 2 Sig^k) B_(n-k) = n 2^(n-2) D^2 S_(n-2)", None),
    ("T3.4b", "as_printed", _IND, 0, 30,
     "sum[n=k(2)] C(n,k) D^(n-k) (1-2^(n-k)) (2^k phi_k + 2 Sig^k) B_(n-k) "
     "= -n 2^(n-2) D^2 S_(n-2)", None),
    ("T3.5a", "as_printed", _IND, 0, 30,
     "sum C(n,k) D^(n-k) (n-k-1) (2^k phi_k - 2 Sig^k) B_(n-k) = n(1-n) D^2 Sig^(n-2)", None),
    ("T3.5b", "as_printed", _IND, 0, 30,
     "sum C(n,k) D^(n-k) (n-k-1) (2^k phi_k + 2 Sig^k) B_(n-k) = -n(1-n) D^2 Sig^(n-2)",
     "the stated route (G_n = 2(1-2^n) B_n applied to the G-weighted "
     "convolution) produces an extra factor (1-2^(n-k)) inside the sum "
     "and the opposite right-side sign; both are missing as printed"),
    ("T3.6a", "as_printed", _IND, 0, 24,
     "sum[m=k(2)] C(m,k) D^(m-k) B_(m-k-2)/(m-k-2) (2^k phi_k - 2 Sig^k) "
     "= 2^(m+2)(phi_(m+2) - 2 Sig^(m+2)) / (D^2 (m+2)(m+1)) - 2 Sig^m",
     "recorded cleared by (m+1)(m+2) D^2; printed indices read m-k-2 "
     "where the shift yields m-k+2, the 2^(m+2) factor multiplies the "
     "whole bracket, and a B_0/0 summand makes the form non-evaluable "
     "for m >= 2"),
    ("T3.6b", "as_printed", _IND, 0, 24,
     "sum[m=k(2)] C(m,k) D^(m-k) (2^(m-k+2)-1) B_(m-k-2)/(m-k-2) "
     "(2^k phi_k + 2 Sig^k) = (e1+e2)^m",
     "printed right side (e1+e2)^m mixes the elementary symmetric "
     "functions e1 = Sig, e2 = u*v; the derived right side is D^2 Sig^m; "
     "a B_0/0 summand makes the form non-evaluable for m >= 2"),
    ("T3.7", "as_printed", _IND, 0, 30,
     "sum[n=k(2)] C(n,k) (D/2)^(n-k) (2^k phi_k + 2 Sig^k) E_(n-k) "
     "= 2^(1-n) ((3u+v)^n + (u+3v)^n)", None),
    ("T4.1", "as_printed", _IND, 0, 30,
     "sum C(n,k) D^(n-k) (2^k phi_k + 2 Sig^k) G_(n-k)(x) "
     "= 2n D ((Sig + xD)^(n-1) + (2v + xD)^(n-1))", None),
    ("T4.2", "as_printed", _IND, 0, 30,
     "sum C(n,k) D^(n-k-1) (2^k phi_k - 2 Sig^k) B_(n-k)(x) "
     "= n ((Sig + xD)^(n-1) - (2v + xD)^(n-1))",
     "recorded cleared by D"),
    ("T4.3", "as_printed", _IND, 0, 30,
     "sum C(n,k) D^(n-k) (2^k phi_k + 2 Sig^k) E_(n-k)(x) "
     "= 2 ((Sig + xD)^n + (2v + xD)^n)", None),
]
# the closed form of each parity-restricted sum taken over every k
_COMPANIONS = {
    "T3.1": "2n D (Sig^(n-1) + (2v)^(n-1))",
    "T3.4a": "n D (Sig^(n-1) - (2v)^(n-1))",
    "T3.4b": "n D (Sig^(n-1) + (2v)^(n-1))",
    "T3.7": "2^(1-n) ((3u+v)^n + (u+3v)^n)",
}
_LEMMAS = [
    ("L1.1a", "as_printed", _IND, 1, 40,
     "S_n - u v S_(n-2) = phi_n  (n positive)",
     "stated for positive n only: at n = 0 the left side is 1 and "
     "the right side 2 under the S_(j<0) = 0 convention"),
    ("L1.1b", "as_printed", _IND, 0, 40,
     "(phi_n + D S_(n-1)) / 2 = u^n", None),
    ("L1.1c", "as_printed", _IND, 0, 40,
     "(phi_n - D S_(n-1)) / 2 = v^n", None),
    ("L1.2S", "as_printed", _IND, 0, 40,
     "(e1 - e2) S_(n-1) = u^n - v^n",
     "the printed normalizer e1 - e2 is u + v - u*v (elementary "
     "symmetric functions); the generating-function identity needs "
     "the letter difference u - v"),
    ("L1.2S", "corrected", _IND, 0, 40,
     "D S_(n-1) = u^n - v^n", None),
    ("R1.1", "as_printed", _IND, 0, 40,
     "S_n = h_2(u, v)",
     "the printed subscript is the fixed 2; S_n equals h_n at two letters"),
    ("R1.1", "corrected", _IND, 0, 40,
     "S_n = h_n(u, v)", None),
    ("R1.2", "as_printed", _IND, 0, 40,
     "phi_n = p_2(u, v)",
     "the printed subscript is the fixed 2; phi_n equals p_n at two letters"),
    ("R1.2", "corrected", _IND, 0, 40,
     "phi_n = p_n(u, v)", None),
]
_BINET = [
    ("BINET.F", "as_printed", "fibonacci-roots", 0, 30,
     "F_n = (lam1^n - lam2^n) / (lam1 - lam2)",
     "recorded cleared by lam1 - lam2"),
    ("BINET.L", "as_printed", "fibonacci-roots", 0, 30,
     "L_n = lam1^n + lam2^n", None),
    ("BINET.Bst", "as_printed", "balancing-roots", 0, 30,
     "B*_n = (lam1^n - lam2^n) / (lam1 - lam2)",
     "recorded cleared by lam1 - lam2"),
    ("BINET.C", "as_printed", "balancing-roots", 0, 30,
     "C_n = (lam1^n - lam2^n) / 2",
     "the printed closed form subtracts the conjugate powers; the sequence matches their half-sum"),
    ("BINET.C", "corrected", "balancing-roots", 0, 30,
     "C_n = (lam1^n + lam2^n) / 2", None),
]


def _records(rows) -> List[IdentityRecord]:
    # a hand-stated corrected record is its own source's correction
    return [
        printed(*row, source=row[0] if row[1] == "corrected" else None,
                companion=_COMPANIONS.get(row[0]))
        for row in rows
    ]


def theorem_records() -> List[IdentityRecord]:
    return _records(_THEOREMS)


def lemma_records() -> List[IdentityRecord]:
    return _records(_LEMMAS)


def binet_records() -> List[IdentityRecord]:
    return _records(_BINET)
