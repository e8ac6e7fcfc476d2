"""Family-level catalog entries, transcribed as printed.

These records state every corollary in the root ring of its recurrence
family exactly as the source prints it -- including the statements that
are false as printed (wrong factors, swapped letters, shifted indices).
Each record is its anchor, read by :mod:`convcheck.identities.notation`
(which also states the transcription conventions), plus a note on the
misprint.  Their machine-derived counterparts come from
:func:`convcheck.identities.derive.derive_corollary`; comparing the two
variants is what localizes each misprint.  Each row also names the
generic theorem its corollary is the family form of, and
:data:`THEOREM_TO_COROLLARY` is read off the rows.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .notation import IdentityRecord, printed

__all__ = ["THEOREM_TO_COROLLARY", "corollary_records"]

_FIB = "fibonacci-roots"
_BAL = "balancing-roots"
_VARS = "printed in the other variable pair; transcribed via x -> y, y -> t"

# ident, ring, source theorem, anchor, note: each as printed, checked
# for n in [0, 20]
_ROWS = [
    # section 2: plain products of the family sequences
    ("C2.1.1", _FIB, "T2.1a",
     "sum C(n,k) F_k F_(n-k) = (2^n L_n - 2 y^n) / (y^2+4t)",
     "recorded cleared by y^2+4t"),
    ("C2.1.2", _FIB, "T2.1b",
     "sum C(n,k) L_k L_(n-k) = 2^n F_n + 2 y^n",
     "the printed right side names F_n where the derivation gives L_n"),
    ("C2.1.3", _FIB, "T2.1c",
     "sum C(n,k) F_k L_(n-k) = 2^n F_n", None),
    ("C2.2.1", _FIB, "T2.2b",
     "sum F_k F_(n-k) = ((n+1) L_n - 2 F_(n+1)) / (y^2+4t)",
     "recorded cleared by y^2+4t"),
    ("C2.2.2", _FIB, "T2.2a",
     "sum L_k L_(n-k) = (n+1) L_n + 2 F_(n+1)", None),
    ("C2.2.3", _FIB, "T2.2c",
     "sum F_k L_(n-k) = (n+1) F_n", None),
    ("C2.3.1", _BAL, "T2.1a",
     "sum C(n,k) B*_k B*_(n-k) = (2^n C_n - (6y)^n) / (2 (9y^2-t))",
     "recorded cleared by 2 (9y^2-t)"),
    ("C2.3.2", _BAL, "T2.1b",
     "sum C(n,k) 2 C_k C_(n-k) = 2^n C_n + (6y)^n", None),
    ("C2.3.3", _BAL, "T2.1c",
     "sum C(n,k) B*_k C_(n-k) = 2^(n-1) B*_n", None),
    ("C2.4.1", _BAL, "T2.2b",
     "sum B*_k B*_(n-k) = ((n+1) C_n - B*_(n+1)) / (2 (9y^2-t))",
     "recorded cleared by 2 (9y^2-t)"),
    ("C2.4.2", _BAL, "T2.2a",
     "sum 2 C_k C_(n-k) = (n+1) C_n + B*_(n+1)",
     "the printed right side writes the argument pair of B*_(n+1) "
     "in the other family's letters; read as the balancing pair"),
    ("C2.4.3", _BAL, "T2.2c",
     "sum 2 B*_k C_(n-k) = (n+1) B*_n", None),
    # section 3, first family
    ("C3.1", _FIB, "T3.1",
     "sum[n=k(2)] C(n,k) d^(n-k) (2^k L_k + 2 x^k) G_(n-k) "
     "= -n 2^(n-1) (y^2+4t) F_(n-1)   [d = sqrt(y^2+4t)]",
     "the printed bracket carries x^k where the substitution gives y^k"),
    ("C3.2", _FIB, "T3.2",
     "sum C(n,k) d^(n-k) (n-k-1) (2^k L_k + 2 x^k) G_(n-k) "
     "= 2n(1-n) (y^2+4t) x^(n-2)",
     "printed with x^k in the bracket and x^(n-2) on the right for y powers"),
    ("C3.3", _FIB, "T3.3",
     "sum[m=k(2)] C(m,k) d^(m-k) G_(m-k-2)/(m-k-2) (2^k L_k + 2 y^k) "
     "= -2 (y^2+4t) x^m",
     "printed indices mix n and m (read uniformly as m) and keep the "
     "un-shifted m-k-2; the right side prints x^m for y^m"),
    ("C3.4a", _FIB, "T3.4a",
     "sum C(n,k) d^(n-k) (2^k L_k - 2 y^k) B_(n-k) "
     "= n 2^(n-2) (y^2+4t) L_(n-1)",
     "printed without the parity restriction of its source and with "
     "L_(n-1) where the substitution gives F_(n-1)"),
    ("C3.4b", _FIB, "T3.4b",
     "sum C(n,k) (1-2^(n-k)) d^(n-k) (2^k L_k + 2 y^k) B_(n-k) "
     "= -n 2^(n-2) (y^2+4t) L_(n-1)",
     "printed without the parity restriction of its source and with "
     "L_(n-1) where the substitution gives F_(n-1)"),
    ("C3.5a", _FIB, "T3.5a",
     "sum[n=k(2)] C(n,k) d^(n-k) (n-k-1) (2^k L_k - 2 y^k) B_(n-k) "
     "= n(1-n) (y^2+4t)^2 x^(n-2)",
     "the right side squares y^2+4t and prints x^(n-2) for y^(n-2)"),
    ("C3.5b", _FIB, "T3.5b",
     "sum[n=k(2)] C(n,k) (2^(n-k)-1) d^(n-k) (n-k-1) (2^k L_k + 2 y^k) "
     "B_(n-k) = -n(1-n) (y^2+4t)^2 y^(n-2)",
     "the right side squares y^2+4t"),
    ("C3.6a", _FIB, "T3.6a",
     "sum[m=k(2)] C(m,k) d^(m-k) B_(m-k-2)/(m-k-2) (2^k L_k - 2 y^k) "
     "= 2^(m+2)(L_(m+2) - 2 x^(m+2)) / ((y^2+4t)(m+2)(m+1)) - y^m",
     "recorded cleared by (y^2+4t)(m+1)(m+2); printed with the "
     "un-shifted index m-k-2 (B_0/0 makes it non-evaluable for "
     "m >= 2), x for y inside the bracket, and a final term missing "
     "its y^2+4t factor"),
    ("C3.6b", _FIB, "T3.6b",
     "sum[m=k(2)] C(m,k) (2^(m-k)-1) d^(m-k) B_(m-k-2)/(m-k-2) "
     "(2^k L_k + 2 y^k) = y^m",
     "printed with the un-shifted exponents (the factor reads 2^(m-k)-1 "
     "for 2^(m-k+2)-1, B_0/0 makes it non-evaluable for m >= 2) and a "
     "right side missing its y^2+4t factor"),
    ("C3.7", _FIB, "T3.7",
     "sum[n=k(2)] C(n,k) (d/2)^(n-k) (2^k L_k + 2 y^k) E_(n-k) "
     "= 2^(1-n) ((2y+d)^n + (2y-d)^n)", None),
    # section 3, second family: printed in (x, y), transcribed in (y, t)
    ("C3.8", _BAL, "T3.1",
     "sum[n=k(2)] C(n,k) (2d)^(n-k) (2^(k+1) C_k + 2 (6y)^k) G_(n-k) "
     "= -n 2^(n+1) (9y^2-t)^2 B*_(n-1)   [d = sqrt(9y^2-t)]",
     f"{_VARS}; the right side squares 9y^2-t"),
    ("C3.9", _BAL, "T3.2",
     "sum C(n,k) (2d)^(n-k) (n-k-1) (2^(k+1) C_k + 2 (6y)^k) G_(n-k) "
     "= 8n(1-n) (9y^2-t) (6y)^(n-2)",
     _VARS),
    ("C3.10", _BAL, "T3.3",
     "sum[m=k(2)] C(m,k) (2d)^(m-k) G_(m-k-2)/(m-k-2) "
     "(2^(k+1) C_k + 2 (6y)^k) = -8 (9y^2-t) (6y)^m",
     f"{_VARS}; printed with the un-shifted index m-k-2"),
    ("C3.11a", _BAL, "T3.4a",
     "sum C(n,k) (2d)^(n-k) (2^k C_k - (6y)^k) B_(n-k) "
     "= n 2^(n-1) (9y^2-t) B*_(n-1)",
     f"{_VARS}; printed without the parity restriction of its source"),
    ("C3.11b", _BAL, "T3.4b",
     "sum C(n,k) (1-2^(n-k)) d^(n-k) (2^k C_k + (6y)^k) B_(n-k) "
     "= -n 2^(n-1) (9y^2-t) B*_(n-1)",
     f"{_VARS}; printed without the parity restriction and with "
     "d^(n-k) where the substitution gives (2d)^(n-k)"),
    ("C3.12a", _BAL, "T3.5a",
     "sum[n=k(2)] C(n,k) (2d)^(n-k) (n-k-1) (2^k C_k - (6y)^k) B_(n-k) "
     "= 2n(1-n) (9y^2-t) (6y)^(n-2)",
     _VARS),
    ("C3.12b", _BAL, "T3.5b",
     "sum[n=k(2)] C(n,k) (1-2^(n-k)) (2d)^(n-k) (n-k-1) "
     "(2^k C_k + (6y)^k) B_(n-k) = -2n(1-n) (9y^2-t) (6y)^(n-2)",
     f"{_VARS}; the printed right side has the opposite sign"),
    ("C3.13a", _BAL, "T3.6a",
     "sum[m=k(2)] C(m,k) (2d)^(m-k) B_(m-k-2)/(m-k-2) (2^k C_k - (6y)^k) "
     "= 2^(m+2)(C_(m+2) - (6y)^(m+2)) / (4(9y^2-t)(m+2)(m+1)) - (6y)^m",
     f"{_VARS}; recorded cleared by 4(9y^2-t)(m+1)(m+2); printed "
     "with the un-shifted index m-k-2 (B_0/0 makes it non-evaluable "
     "for m >= 2) and a final term missing its 2(9y^2-t) factor"),
    ("C3.13b", _BAL, "T3.6b",
     "sum[m=k(2)] C(m,k) (2^(m-k+2)-1) (2d)^(m-k) B_(m-k-2)/(m-k-2) "
     "(2^(k+1) C_k + 2 (6y)^k) = -2 (6y)^m",
     f"{_VARS}; printed with the un-shifted index m-k-2 (B_0/0 "
     "makes it non-evaluable for m >= 2) and a right side missing its "
     "2(9y^2-t) factor"),
    ("C3.14", _BAL, "T3.7",
     "sum[n=k(2)] C(n,k) d^(n-k) (2^k C_k + (6y)^k) E_(n-k) "
     "= (6y+d)^n + (6y-d)^n",
     _VARS),
    # section 4: polynomial-weighted sums at the family roots
    ("C4.1", _FIB, "T4.1",
     "sum C(n,k) d^(n-k) (2^k L_k + 2 y^k) G_(n-k)(x) "
     "= 2n ((y+xd)^(n-1) + (y+(x-1)d)^(n-1))",
     "the printed right side is missing its factor d"),
    ("C4.2", _FIB, "T4.2",
     "sum C(n,k) d^(n-k-1) (2^k L_k - 2 y^k) B_(n-k)(x) "
     "= n (y+dx)^(n-1) - n (y+(x-1)d)^(n-1)",
     "recorded cleared by d"),
    ("C4.3", _FIB, "T4.3",
     "sum C(n,k) d^(n-k) (2^k L_k + 2 y^k) E_(n-k)(x) "
     "= 2 (y+dx)^n + 2 (y+(x-1)d)^n", None),
    ("C4.4", _BAL, "T4.1",
     "sum C(n,k) (2d)^(n-k) (2^(k+1) C_k + 2 (6y)^k) G_(n-k)(x) "
     "= n 2^(n+1) d ((3y+xd)^(n-1) + (3y+(x-1)d)^(n-1))", None),
    ("C4.5", _BAL, "T4.2",
     "sum C(n,k) (2d)^(n-k-1) (2^(k+1) C_k - (6y)^k) B_(n-k)(x) "
     "= n (6y+2xd)^(n-1) - n (6y+(2x-2)d)^(n-1)",
     "recorded cleared by 2d; the printed bracket reads -(6y)^k "
     "where the substitution gives -2 (6y)^k"),
    ("C4.6", _BAL, "T4.3",
     "sum C(n,k) (2d)^(n-k) (2^(k+1) C_k + 2 (6y)^k) E_(n-k)(x) "
     "= 2 (6y+2dx)^n + 2 (6y+(x-2)d)^n",
     "the printed second base reads (x-2)d where the substitution gives (2x-2)d"),
]


def corollary_records() -> List[IdentityRecord]:
    """Every printed corollary, in source order."""
    return [printed(ident, "as_printed", ring, 0, 20, anchor, note)
            for ident, ring, _, anchor, note in _ROWS]


#: (theorem, family) -> the corollary that is the theorem over the
#: family's root pair
THEOREM_TO_COROLLARY: Dict[Tuple[str, str], str] = {
    (theorem, ring.removesuffix("-roots")): ident for ident, ring, theorem, _, _ in _ROWS
}
