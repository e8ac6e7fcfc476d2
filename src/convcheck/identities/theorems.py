"""Generic-ring catalog entries.

This module states every equation of the catalog that lives in the
generic two-letter ring: the T2.x binomial/plain convolutions of the
two-letter symmetric functions, the T3.x convolutions against
Bernoulli/Euler/Genocchi numbers, the T4.x convolutions against the
corresponding polynomials, plus the lemma-level identities (L1.x, R1.x)
and the closed-form entries for the recurrence families (BINET.x).

Notation used throughout: ``u`` and ``v`` are the letters,
``D = u - v``, ``Sig = u + v``, ``S(j)`` the complete homogeneous sum,
``phi(j)`` the power sum, and ``bp/bm(k) = 2^k phi_k +- 2 Sig^k``.
Statements whose printed source divides by D (or D^2) are recorded in
cleared form -- both sides multiplied by that power of D -- which is an
exact, reversible restatement; anchors quote the printed shape.

Corrected variants of the false printed statements are not written by
hand here: they are produced mechanically in
:mod:`convcheck.identities.derive`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .._scalar import Rational
from ..sequences import bernoulli_number, genocchi_number
from ..symfun import LetterPair, sym_ehp
from .core import Context, IdentityRecord, eval_convolution_sum, printed_ratio

__all__ = [
    "WeightedShape",
    "binet_records",
    "lemma_records",
    "theorem_records",
    "weighted_conv_lhs",
]


@dataclass(frozen=True)
class WeightedShape:
    """Summand shape sum_k C(n,k) D^(n-k) (n-k-1) [2-power] bracket(k) num(n-k).

    ``num`` picks the number sequence ("G" or "B"), ``bracket`` the sign
    in 2^k phi_k +- 2 Sig^k, and ``halving`` an optional extra factor:
    0 for none, +1 for (1 - 2^(n-k)), -1 for (2^(n-k) - 1).
    The shape is what the mechanical index-shift and sequence-conversion
    transforms operate on.
    """

    num: str
    bracket: str
    halving: int = 0


def _bracket_fn(ctx: Context, sign: str):
    return ctx.bracket_plus if sign == "+" else ctx.bracket_minus


def _number_fn(ctx: Context, num: str):
    return ctx.G if num == "G" else ctx.B


def _halving_factor(halving: int, j: int):
    if not halving:
        return 1
    return halving * (1 - Rational(2) ** j)


def weighted_conv_lhs(shape: WeightedShape):
    """LHS evaluator for a :class:`WeightedShape` (full sum over k)."""

    def lhs(ctx: Context, n: int):
        numf = _number_fn(ctx, shape.num)

        def weight(n_: int, k: int):
            j = n_ - k
            return (j - 1) * numf(j) * _halving_factor(shape.halving, j)

        return eval_convolution_sum(
            ctx, n, _bracket_fn(ctx, shape.bracket), ctx.Dpow, weight=weight
        )

    return lhs


# --------------------------------------------------------------------------
# T2.x -- convolutions of the symmetric functions themselves
# --------------------------------------------------------------------------


def _t21a_lhs(ctx, n):
    conv = eval_convolution_sum(ctx, n, lambda k: ctx.S(k - 1), lambda j: ctx.S(j - 1))
    return ctx.Dpow(2) * conv


def _t21a_rhs(ctx, n):
    return (2 ** n) * ctx.phi(n) - 2 * ctx.Sigpow(n)


def _t21b_lhs(ctx, n):
    return eval_convolution_sum(ctx, n, ctx.phi, ctx.phi)


def _t21b_rhs(ctx, n):
    return (2 ** n) * ctx.phi(n) + 2 * ctx.Sigpow(n)


def _t21c_lhs(ctx, n):
    return eval_convolution_sum(ctx, n, ctx.phi, lambda j: ctx.S(j - 1))


def _t21c_rhs(ctx, n):
    return (2 ** n) * ctx.S(n - 1)


def _t22a_lhs(ctx, n):
    return eval_convolution_sum(ctx, n, ctx.phi, ctx.phi, use_binomial=False)


def _t22a_rhs(ctx, n):
    return (n + 1) * ctx.phi(n) + 2 * ctx.S(n)


def _t22b_lhs(ctx, n):
    conv = eval_convolution_sum(
        ctx, n, lambda k: ctx.S(k - 1), lambda j: ctx.S(j - 1), use_binomial=False
    )
    return ctx.Dpow(2) * conv


def _t22b_rhs(ctx, n):
    return (n + 1) * ctx.phi(n) - 2 * ctx.S(n)


def _t22c_lhs(ctx, n):
    return eval_convolution_sum(ctx, n, ctx.phi, lambda j: ctx.S(j - 1), use_binomial=False)


def _t22c_rhs(ctx, n):
    return (n + 1) * ctx.S(n - 1)


# --------------------------------------------------------------------------
# T3.x -- convolutions against Bernoulli/Euler/Genocchi numbers
# --------------------------------------------------------------------------


def _t31_lhs(parity: bool):
    def lhs(ctx, n):
        return eval_convolution_sum(
            ctx, n, _bracket_fn(ctx, "+"), ctx.Dpow,
            weight=lambda n_, k: ctx.G(n_ - k), parity=parity,
        )

    return lhs


def _t31_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    return (-n * 2 ** (n - 1)) * (ctx.Dpow(2) * ctx.S(n - 2))


def _t31_unrestricted_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    return (2 * n) * (ctx.D * (ctx.Sigpow(n - 1) + ctx.power(2 * ctx.v, n - 1)))


_T32_SHAPE = WeightedShape(num="G", bracket="+")


def _t32_rhs(ctx, n):
    c = -2 * n * (n - 1)
    if c == 0:
        return ctx.zero
    return c * (ctx.Dpow(2) * ctx.Sigpow(n - 2))


def _b_at(i: int) -> Rational:
    return bernoulli_number(i) if i >= 0 else Rational(0)


def _g_at(i: int) -> Rational:
    return genocchi_number(i) if i >= 0 else Rational(0)


def _t33_printed_lhs(ctx, m):
    def weight(m_: int, k: int):
        return printed_ratio(_g_at(m_ - k - 2), m_ - k - 2)

    return eval_convolution_sum(
        ctx, m, _bracket_fn(ctx, "+"), ctx.Dpow,
        weight=weight, parity=True,
    )


def _t33_printed_rhs(ctx, m):
    return -2 * (ctx.Dpow(2) * ctx.Sigpow(m))


def _t34a_lhs(parity: bool):
    def lhs(ctx, n):
        return eval_convolution_sum(
            ctx, n, _bracket_fn(ctx, "-"), ctx.Dpow,
            weight=lambda n_, k: ctx.B(n_ - k), parity=parity,
        )

    return lhs


def _t34a_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    return (n * Rational(2) ** (n - 2)) * (ctx.Dpow(2) * ctx.S(n - 2))


def _t34a_unrestricted_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    return n * (ctx.D * (ctx.Sigpow(n - 1) - ctx.power(2 * ctx.v, n - 1)))


def _t34b_lhs(parity: bool):
    def lhs(ctx, n):
        def weight(n_: int, k: int):
            j = n_ - k
            return (1 - Rational(2) ** j) * ctx.B(j)

        return eval_convolution_sum(
            ctx, n, _bracket_fn(ctx, "+"), ctx.Dpow,
            weight=weight, parity=parity,
        )

    return lhs


def _t34b_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    return (-n * Rational(2) ** (n - 2)) * (ctx.Dpow(2) * ctx.S(n - 2))


def _t34b_unrestricted_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    return n * (ctx.D * (ctx.Sigpow(n - 1) + ctx.power(2 * ctx.v, n - 1)))


_T35A_SHAPE = WeightedShape(num="B", bracket="-")
_T35B_PRINTED_SHAPE = WeightedShape(num="B", bracket="+")


def _t35a_rhs(ctx, n):
    c = n * (1 - n)
    if c == 0:
        return ctx.zero
    return c * (ctx.Dpow(2) * ctx.Sigpow(n - 2))


def _t35b_printed_rhs(ctx, n):
    c = -n * (1 - n)
    if c == 0:
        return ctx.zero
    return c * (ctx.Dpow(2) * ctx.Sigpow(n - 2))


def _t36a_printed_lhs(ctx, m):
    # cleared by (m+1)(m+2) D^2: the printed right side divides by both
    def weight(m_: int, k: int):
        return printed_ratio(_b_at(m_ - k - 2), m_ - k - 2)

    conv = eval_convolution_sum(
        ctx, m, _bracket_fn(ctx, "-"), ctx.Dpow,
        weight=weight, parity=True,
    )
    return ((m + 1) * (m + 2)) * (ctx.Dpow(2) * conv)


def _t36a_printed_rhs(ctx, m):
    bracket = ctx.phi(m + 2) - 2 * ctx.Sigpow(m + 2)
    return (2 ** (m + 2)) * bracket - (2 * (m + 1) * (m + 2)) * (ctx.Dpow(2) * ctx.Sigpow(m))


def _t36b_printed_lhs(ctx, m):
    def weight(m_: int, k: int):
        j = m_ - k
        return (Rational(2) ** (j + 2) - 1) * printed_ratio(_b_at(j - 2), j - 2)

    return eval_convolution_sum(
        ctx, m, _bracket_fn(ctx, "+"), ctx.Dpow,
        weight=weight, parity=True,
    )


def _t36b_printed_rhs(ctx, m):
    # (e1 + e2)^m with e1, e2 the elementary symmetric functions
    return ctx.power(ctx.Sig + ctx.Prod, m)


def _t37_lhs(parity: bool):
    def lhs(ctx, n):
        def weight(n_: int, k: int):
            j = n_ - k
            return Rational(1, 2) ** j * ctx.E(j)

        return eval_convolution_sum(
            ctx, n, _bracket_fn(ctx, "+"), ctx.Dpow,
            weight=weight, parity=parity,
        )

    return lhs


def _t37_rhs(ctx, n):
    a = ctx.power(3 * ctx.u + ctx.v, n)
    b = ctx.power(ctx.u + 3 * ctx.v, n)
    return Rational(2) ** (1 - n) * (a + b)


# --------------------------------------------------------------------------
# T4.x -- convolutions against Bernoulli/Euler/Genocchi polynomials
# --------------------------------------------------------------------------


def _npoly_conv_lhs(kind: str, sign: str):
    def lhs(ctx, n):
        return eval_convolution_sum(
            ctx, n, _bracket_fn(ctx, sign),
            lambda j: ctx.Dpow(j) * ctx.npoly(kind, j),
        )

    return lhs


def _t4_powers(ctx, e: int):
    # the two exponential directions of the T4.x right sides, to the e-th
    xd = ctx.x * ctx.D
    return ctx.power(ctx.Sig + xd, e), ctx.power(2 * ctx.v + xd, e)


def _t41_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    a, b = _t4_powers(ctx, n - 1)
    return (2 * n) * (ctx.D * (a + b))


def _t42_rhs(ctx, n):
    # cleared by D: the printed statement carries D^(n-k-1) on the left
    if n == 0:
        return ctx.zero
    a, b = _t4_powers(ctx, n - 1)
    return n * (ctx.D * (a - b))


def _t43_rhs(ctx, n):
    a, b = _t4_powers(ctx, n)
    return 2 * (a + b)


# --------------------------------------------------------------------------
# lemma-level entries and Binet closed forms
# --------------------------------------------------------------------------


def _pair(ctx):
    return LetterPair(ctx.u, ctx.v)


def theorem_records() -> List[IdentityRecord]:
    recs = [
        IdentityRecord(
            "T2.1a", "as_printed", "indeterminate", 0, 30,
            _t21a_lhs, _t21a_rhs,
            anchor="sum C(n,k) S_(n-k-1) S_(k-1) = (2^n phi_n - 2 Sig^n) / D^2",
            note="recorded cleared by D^2; the printed sum subscript reads n=0 for k=0",
        ),
        IdentityRecord(
            "T2.1b", "as_printed", "indeterminate", 0, 30,
            _t21b_lhs, _t21b_rhs,
            anchor="sum C(n,k) phi_(n-k) phi_k = 2^n phi_n + 2 Sig^n",
        ),
        IdentityRecord(
            "T2.1c", "as_printed", "indeterminate", 0, 30,
            _t21c_lhs, _t21c_rhs,
            anchor="sum C(n,k) S_(n-k-1) phi_k = 2^n S_(n-1)",
        ),
        IdentityRecord(
            "T2.2a", "as_printed", "indeterminate", 0, 30,
            _t22a_lhs, _t22a_rhs,
            anchor="sum phi_k phi_(n-k) = (n+1) phi_n + 2 S_n",
        ),
        IdentityRecord(
            "T2.2b", "as_printed", "indeterminate", 0, 30,
            _t22b_lhs, _t22b_rhs,
            anchor="sum S_(k-1) S_(n-k-1) = ((n+1) phi_n - 2 S_n) / D^2",
            note="recorded cleared by D^2",
        ),
        IdentityRecord(
            "T2.2c", "as_printed", "indeterminate", 0, 30,
            _t22c_lhs, _t22c_rhs,
            anchor="sum phi_k S_(n-k-1) = (n+1) S_(n-1)",
        ),
        IdentityRecord(
            "T3.1", "as_printed", "indeterminate", 0, 30,
            _t31_lhs(True), _t31_rhs,
            anchor="sum[n=k(2)] C(n,k) D^(n-k) (2^k phi_k + 2 Sig^k) G_(n-k) = -n 2^(n-1) D^2 S_(n-2)",
            parity=True,
            unrestricted_lhs=_t31_lhs(False),
            unrestricted_rhs=_t31_unrestricted_rhs,
        ),
        IdentityRecord(
            "T3.2", "as_printed", "indeterminate", 0, 30,
            weighted_conv_lhs(_T32_SHAPE), _t32_rhs,
            anchor="sum C(n,k) D^(n-k) (n-k-1) (2^k phi_k + 2 Sig^k) G_(n-k) = -2n(n-1) D^2 Sig^(n-2)",
            shape=_T32_SHAPE,
        ),
        IdentityRecord(
            "T3.3", "as_printed", "indeterminate", 0, 24,
            _t33_printed_lhs, _t33_printed_rhs,
            anchor="sum[m=k(2)] C(m,k) D^(m-k) G_(m-k-2)/(m-k-2) (2^k phi_k + 2 Sig^k) = -2 D^2 Sig^m",
            parity=True,
            note=(
                "printed number index reads m-k-2 where the index shift n=m+2 "
                "yields m-k+2 (and D^(m-k) for D^(m-k+2)); a 0/0 summand is read as 0"
            ),
        ),
        IdentityRecord(
            "T3.4a", "as_printed", "indeterminate", 0, 30,
            _t34a_lhs(True), _t34a_rhs,
            anchor="sum[n=k(2)] C(n,k) D^(n-k) (2^k phi_k - 2 Sig^k) B_(n-k) = n 2^(n-2) D^2 S_(n-2)",
            parity=True,
            unrestricted_lhs=_t34a_lhs(False),
            unrestricted_rhs=_t34a_unrestricted_rhs,
        ),
        IdentityRecord(
            "T3.4b", "as_printed", "indeterminate", 0, 30,
            _t34b_lhs(True), _t34b_rhs,
            anchor="sum[n=k(2)] C(n,k) D^(n-k) (1-2^(n-k)) (2^k phi_k + 2 Sig^k) B_(n-k) = -n 2^(n-2) D^2 S_(n-2)",
            parity=True,
            unrestricted_lhs=_t34b_lhs(False),
            unrestricted_rhs=_t34b_unrestricted_rhs,
        ),
        IdentityRecord(
            "T3.5a", "as_printed", "indeterminate", 0, 30,
            weighted_conv_lhs(_T35A_SHAPE), _t35a_rhs,
            anchor="sum C(n,k) D^(n-k) (n-k-1) (2^k phi_k - 2 Sig^k) B_(n-k) = n(1-n) D^2 Sig^(n-2)",
            shape=_T35A_SHAPE,
        ),
        IdentityRecord(
            "T3.5b", "as_printed", "indeterminate", 0, 30,
            weighted_conv_lhs(_T35B_PRINTED_SHAPE), _t35b_printed_rhs,
            anchor="sum C(n,k) D^(n-k) (n-k-1) (2^k phi_k + 2 Sig^k) B_(n-k) = -n(1-n) D^2 Sig^(n-2)",
            shape=_T35B_PRINTED_SHAPE,
            note=(
                "the stated route (G_n = 2(1-2^n) B_n applied to the G-weighted "
                "convolution) produces an extra factor (1-2^(n-k)) inside the sum "
                "and the opposite right-side sign; both are missing as printed"
            ),
        ),
        IdentityRecord(
            "T3.6a", "as_printed", "indeterminate", 0, 24,
            _t36a_printed_lhs, _t36a_printed_rhs,
            anchor=(
                "sum[m=k(2)] C(m,k) D^(m-k) B_(m-k-2)/(m-k-2) (2^k phi_k - 2 Sig^k) "
                "= 2^(m+2)(phi_(m+2) - 2 Sig^(m+2)) / (D^2 (m+2)(m+1)) - 2 Sig^m"
            ),
            parity=True,
            note=(
                "recorded cleared by (m+1)(m+2) D^2; printed indices read m-k-2 "
                "where the shift yields m-k+2, the 2^(m+2) factor multiplies the "
                "whole bracket, and a B_0/0 summand makes the form non-evaluable "
                "for m >= 2"
            ),
        ),
        IdentityRecord(
            "T3.6b", "as_printed", "indeterminate", 0, 24,
            _t36b_printed_lhs, _t36b_printed_rhs,
            anchor=(
                "sum[m=k(2)] C(m,k) D^(m-k) (2^(m-k+2)-1) B_(m-k-2)/(m-k-2) "
                "(2^k phi_k + 2 Sig^k) = (e1+e2)^m"
            ),
            parity=True,
            note=(
                "printed right side (e1+e2)^m mixes the elementary symmetric "
                "functions e1 = Sig, e2 = u*v; the derived right side is D^2 Sig^m; "
                "a B_0/0 summand makes the form non-evaluable for m >= 2"
            ),
        ),
        IdentityRecord(
            "T3.7", "as_printed", "indeterminate", 0, 30,
            _t37_lhs(True), _t37_rhs,
            anchor=(
                "sum[n=k(2)] C(n,k) (D/2)^(n-k) (2^k phi_k + 2 Sig^k) E_(n-k) "
                "= 2^(1-n) ((3u+v)^n + (u+3v)^n)"
            ),
            parity=True,
            unrestricted_lhs=_t37_lhs(False),
            unrestricted_rhs=_t37_rhs,
        ),
        IdentityRecord(
            "T4.1", "as_printed", "indeterminate", 0, 30,
            _npoly_conv_lhs("genocchi", "+"), _t41_rhs,
            anchor=(
                "sum C(n,k) D^(n-k) (2^k phi_k + 2 Sig^k) G_(n-k)(x) "
                "= 2n D ((Sig + xD)^(n-1) + (2v + xD)^(n-1))"
            ),
        ),
        IdentityRecord(
            "T4.2", "as_printed", "indeterminate", 0, 30,
            _npoly_conv_lhs("bernoulli", "-"), _t42_rhs,
            anchor=(
                "sum C(n,k) D^(n-k-1) (2^k phi_k - 2 Sig^k) B_(n-k)(x) "
                "= n ((Sig + xD)^(n-1) - (2v + xD)^(n-1))"
            ),
            note="recorded cleared by D",
        ),
        IdentityRecord(
            "T4.3", "as_printed", "indeterminate", 0, 30,
            _npoly_conv_lhs("euler", "+"), _t43_rhs,
            anchor=(
                "sum C(n,k) D^(n-k) (2^k phi_k + 2 Sig^k) E_(n-k)(x) "
                "= 2 ((Sig + xD)^n + (2v + xD)^n)"
            ),
        ),
    ]
    return recs


def lemma_records() -> List[IdentityRecord]:
    half = Rational(1, 2)
    return [
        IdentityRecord(
            "L1.1a", "as_printed", "indeterminate", 1, 40,
            lambda ctx, n: ctx.S(n) - ctx.Prod * ctx.S(n - 2),
            lambda ctx, n: ctx.phi(n),
            anchor="S_n - u v S_(n-2) = phi_n  (n positive)",
            note=(
                "stated for positive n only: at n = 0 the left side is 1 and "
                "the right side 2 under the S_(j<0) = 0 convention"
            ),
        ),
        IdentityRecord(
            "L1.1b", "as_printed", "indeterminate", 0, 40,
            lambda ctx, n: half * (ctx.phi(n) + ctx.D * ctx.S(n - 1)),
            lambda ctx, n: ctx.upow(n),
            anchor="(phi_n + D S_(n-1)) / 2 = u^n",
        ),
        IdentityRecord(
            "L1.1c", "as_printed", "indeterminate", 0, 40,
            lambda ctx, n: half * (ctx.phi(n) - ctx.D * ctx.S(n - 1)),
            lambda ctx, n: ctx.vpow(n),
            anchor="(phi_n - D S_(n-1)) / 2 = v^n",
        ),
        IdentityRecord(
            "L1.2S", "as_printed", "indeterminate", 0, 40,
            lambda ctx, n: (ctx.Sig - ctx.Prod) * ctx.S(n - 1),
            lambda ctx, n: ctx.upow(n) - ctx.vpow(n),
            anchor="(e1 - e2) S_(n-1) = u^n - v^n",
            note=(
                "the printed normalizer e1 - e2 is u + v - u*v (elementary "
                "symmetric functions); the generating-function identity needs "
                "the letter difference u - v"
            ),
        ),
        IdentityRecord(
            "L1.2S", "corrected", "indeterminate", 0, 40,
            lambda ctx, n: ctx.D * ctx.S(n - 1),
            lambda ctx, n: ctx.upow(n) - ctx.vpow(n),
            anchor="D S_(n-1) = u^n - v^n",
            source="L1.2S",
        ),
        IdentityRecord(
            "R1.1", "as_printed", "indeterminate", 0, 40,
            lambda ctx, n: ctx.S(n),
            lambda ctx, n: sym_ehp("h", 2, _pair(ctx)),
            anchor="S_n = h_2(u, v)",
            note="the printed subscript is the fixed 2; S_n equals h_n at two letters",
        ),
        IdentityRecord(
            "R1.1", "corrected", "indeterminate", 0, 40,
            lambda ctx, n: ctx.S(n),
            lambda ctx, n: sym_ehp("h", n, _pair(ctx)),
            anchor="S_n = h_n(u, v)",
            source="R1.1",
        ),
        IdentityRecord(
            "R1.2", "as_printed", "indeterminate", 0, 40,
            lambda ctx, n: ctx.phi(n),
            lambda ctx, n: sym_ehp("p", 2, _pair(ctx)),
            anchor="phi_n = p_2(u, v)",
            note="the printed subscript is the fixed 2; phi_n equals p_n at two letters",
        ),
        IdentityRecord(
            "R1.2", "corrected", "indeterminate", 0, 40,
            lambda ctx, n: ctx.phi(n),
            lambda ctx, n: sym_ehp("p", n, _pair(ctx)),
            anchor="phi_n = p_n(u, v)",
            source="R1.2",
        ),
    ]


def _seq_times_diff_lhs(kind: str):
    def lhs(ctx, n):
        return ctx.seq(kind, n) * ctx.D

    return lhs


def _power_diff_rhs(ctx, n):
    return ctx.upow(n) - ctx.vpow(n)


def binet_records() -> List[IdentityRecord]:
    half = Rational(1, 2)
    return [
        IdentityRecord(
            "BINET.F", "as_printed", "fibonacci-roots", 0, 30,
            _seq_times_diff_lhs("fibonacci"), _power_diff_rhs,
            anchor="F_n = (lam1^n - lam2^n) / (lam1 - lam2)",
            note="recorded cleared by lam1 - lam2",
        ),
        IdentityRecord(
            "BINET.L", "as_printed", "fibonacci-roots", 0, 30,
            lambda ctx, n: ctx.seq("lucas", n),
            lambda ctx, n: ctx.phi(n),
            anchor="L_n = lam1^n + lam2^n",
        ),
        IdentityRecord(
            "BINET.Bst", "as_printed", "balancing-roots", 0, 30,
            _seq_times_diff_lhs("balancing"), _power_diff_rhs,
            anchor="B*_n = (lam1^n - lam2^n) / (lam1 - lam2)",
            note="recorded cleared by lam1 - lam2",
        ),
        IdentityRecord(
            "BINET.C", "as_printed", "balancing-roots", 0, 30,
            lambda ctx, n: ctx.seq("lucas_balancing", n),
            lambda ctx, n: half * (ctx.upow(n) - ctx.vpow(n)),
            anchor="C_n = (lam1^n - lam2^n) / 2",
            note="the printed closed form subtracts the conjugate powers; the sequence matches their half-sum",
        ),
        IdentityRecord(
            "BINET.C", "corrected", "balancing-roots", 0, 30,
            lambda ctx, n: ctx.seq("lucas_balancing", n),
            lambda ctx, n: half * (ctx.upow(n) + ctx.vpow(n)),
            anchor="C_n = (lam1^n + lam2^n) / 2",
            source="BINET.C",
        ),
    ]
