"""Family-level catalog entries, transcribed as printed.

These records state every corollary in the root ring of its recurrence
family exactly as the source prints it -- including the statements that
are false as printed (wrong factors, swapped letters, shifted indices).
Their machine-derived counterparts come from
:func:`convcheck.identities.derive.derive_corollary`; comparing the two
variants is what localizes each misprint.

Transcription conventions, recorded once here:

* The balancing-family corollaries of the number-weighted sums are
  printed in variables ``(x, y)``; they are transcribed in ``(y, t)``
  (``x -> y``, ``y -> t``) so both families share one variable scheme.
  The *polynomial*-weighted balancing corollaries are printed in
  ``(y, t)`` already.
* A handful of statements mix two index letters (``n`` vs ``m``); the
  sum's own index letter wins and the note says so.
* Statements printed with a nonzero denominator D, delta, or a disc
  factor are recorded cleared (both sides multiplied by it); notes mark
  every cleared record.
* A printed summand ``B_0/0`` (or ``G_0/0``) is read leniently: 0/0
  contributes nothing, nonzero/0 makes the form non-evaluable at that
  index (reported as such).
"""

from __future__ import annotations

from typing import List

from .._scalar import Rational
from ..arith import MultiPoly
from ..sequences import bernoulli_number, genocchi_number
from .core import Context, IdentityRecord, eval_convolution_sum, printed_ratio

__all__ = ["corollary_records"]

_Y = MultiPoly.var("y")
_SIX_Y = 6 * _Y
_FIB_DISC = MultiPoly.var("y") ** 2 + 4 * MultiPoly.var("t")
_BAL_DISC = 9 * MultiPoly.var("y") ** 2 - MultiPoly.var("t")
_HALF = Rational(1, 2)


def _F(ctx: Context, j: int):
    return ctx.seq("fibonacci", j)


def _L(ctx: Context, j: int):
    return ctx.seq("lucas", j)


def _Bst(ctx: Context, j: int):
    return ctx.seq("balancing", j)


def _C(ctx: Context, j: int):
    return ctx.seq("lucas_balancing", j)


def _yk(ctx: Context, k: int):
    return ctx.pow_named("var:y", ctx.embed(_Y), k)


def _six_yk(ctx: Context, k: int):
    return ctx.pow_named("var:6y", ctx.embed(_SIX_Y), k)


def _xk(ctx: Context, k: int):
    return ctx.pow_named("var:x", ctx.x, k)


def _fib_disc(ctx: Context):
    return ctx.embed(_FIB_DISC)


def _bal_disc(ctx: Context):
    return ctx.embed(_BAL_DISC)


def _two_delta_pow(ctx: Context, e: int):
    return ctx.pow_named("2delta", 2 * ctx.delta, e)


def _b_at(i: int) -> Rational:
    return bernoulli_number(i) if i >= 0 else Rational(0)


def _g_at(i: int) -> Rational:
    return genocchi_number(i) if i >= 0 else Rational(0)


# --------------------------------------------------------------------------
# the printed brackets (family forms of 2^k phi_k +- 2 Sig^k and halves)
# --------------------------------------------------------------------------


def _fib_bp(ctx: Context):
    # 2^k L_k + 2 y^k
    return lambda k: (2 ** k) * _L(ctx, k) + 2 * _yk(ctx, k)


def _fib_bp_xtypo(ctx: Context):
    # 2^k L_k + 2 x^k: the printed bracket of the first two G-weighted sums
    return lambda k: (2 ** k) * _L(ctx, k) + 2 * _xk(ctx, k)


def _fib_bm(ctx: Context):
    # 2^k L_k - 2 y^k
    return lambda k: (2 ** k) * _L(ctx, k) - 2 * _yk(ctx, k)


def _bal_bp(ctx: Context):
    # 2^(k+1) C_k + 2 (6y)^k
    return lambda k: (2 ** (k + 1)) * _C(ctx, k) + 2 * _six_yk(ctx, k)


def _bal_bp_half(ctx: Context):
    # 2^k C_k + (6y)^k
    return lambda k: (2 ** k) * _C(ctx, k) + _six_yk(ctx, k)


def _bal_bm_half(ctx: Context):
    # 2^k C_k - (6y)^k
    return lambda k: (2 ** k) * _C(ctx, k) - _six_yk(ctx, k)


def _bal_bm_typo(ctx: Context):
    # 2^(k+1) C_k - (6y)^k: printed bracket of the polynomial-weighted sum
    return lambda k: (2 ** (k + 1)) * _C(ctx, k) - _six_yk(ctx, k)


# --------------------------------------------------------------------------
# section-2 corollaries: plain products of the family sequences
# --------------------------------------------------------------------------


def _c211_lhs(ctx, n):
    conv = eval_convolution_sum(ctx, n, lambda k: _F(ctx, k), lambda j: _F(ctx, j))
    return _fib_disc(ctx) * conv


def _c211_rhs(ctx, n):
    return (2 ** n) * _L(ctx, n) - 2 * _yk(ctx, n)


def _c212_lhs(ctx, n):
    return eval_convolution_sum(ctx, n, lambda k: _L(ctx, k), lambda j: _L(ctx, j))


def _c212_rhs(ctx, n):
    return (2 ** n) * _F(ctx, n) + 2 * _yk(ctx, n)


def _c213_lhs(ctx, n):
    return eval_convolution_sum(ctx, n, lambda k: _F(ctx, k), lambda j: _L(ctx, j))


def _c213_rhs(ctx, n):
    return (2 ** n) * _F(ctx, n)


def _c221_lhs(ctx, n):
    conv = eval_convolution_sum(
        ctx, n, lambda k: _F(ctx, k), lambda j: _F(ctx, j), use_binomial=False
    )
    return _fib_disc(ctx) * conv


def _c221_rhs(ctx, n):
    return (n + 1) * _L(ctx, n) - 2 * _F(ctx, n + 1)


def _c222_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, lambda k: _L(ctx, k), lambda j: _L(ctx, j), use_binomial=False
    )


def _c222_rhs(ctx, n):
    return (n + 1) * _L(ctx, n) + 2 * _F(ctx, n + 1)


def _c223_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, lambda k: _F(ctx, k), lambda j: _L(ctx, j), use_binomial=False
    )


def _c223_rhs(ctx, n):
    return (n + 1) * _F(ctx, n)


def _c231_lhs(ctx, n):
    conv = eval_convolution_sum(ctx, n, lambda k: _Bst(ctx, k), lambda j: _Bst(ctx, j))
    return 2 * (_bal_disc(ctx) * conv)


def _c231_rhs(ctx, n):
    return (2 ** n) * _C(ctx, n) - _six_yk(ctx, n)


def _c232_lhs(ctx, n):
    return eval_convolution_sum(ctx, n, lambda k: 2 * _C(ctx, k), lambda j: _C(ctx, j))


def _c232_rhs(ctx, n):
    return (2 ** n) * _C(ctx, n) + _six_yk(ctx, n)


def _c233_lhs(ctx, n):
    return eval_convolution_sum(ctx, n, lambda k: _Bst(ctx, k), lambda j: _C(ctx, j))


def _c233_rhs(ctx, n):
    return Rational(2) ** (n - 1) * _Bst(ctx, n)


def _c241_lhs(ctx, n):
    conv = eval_convolution_sum(
        ctx, n, lambda k: _Bst(ctx, k), lambda j: _Bst(ctx, j), use_binomial=False
    )
    return 2 * (_bal_disc(ctx) * conv)


def _c241_rhs(ctx, n):
    return (n + 1) * _C(ctx, n) - _Bst(ctx, n + 1)


def _c242_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, lambda k: 2 * _C(ctx, k), lambda j: _C(ctx, j), use_binomial=False
    )


def _c242_rhs(ctx, n):
    return (n + 1) * _C(ctx, n) + _Bst(ctx, n + 1)


def _c243_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, lambda k: 2 * _Bst(ctx, k), lambda j: _C(ctx, j), use_binomial=False
    )


def _c243_rhs(ctx, n):
    return (n + 1) * _Bst(ctx, n)


def _section2_records() -> List[IdentityRecord]:
    return [
        IdentityRecord(
            "C2.1.1", "as_printed", "fibonacci-roots", 0, 20, _c211_lhs, _c211_rhs,
            anchor="sum C(n,k) F_k F_(n-k) = (2^n L_n - 2 y^n) / (y^2+4t)",
            note="recorded cleared by y^2+4t",
        ),
        IdentityRecord(
            "C2.1.2", "as_printed", "fibonacci-roots", 0, 20, _c212_lhs, _c212_rhs,
            anchor="sum C(n,k) L_k L_(n-k) = 2^n F_n + 2 y^n",
            note="the printed right side names F_n where the derivation gives L_n",
        ),
        IdentityRecord(
            "C2.1.3", "as_printed", "fibonacci-roots", 0, 20, _c213_lhs, _c213_rhs,
            anchor="sum C(n,k) F_k L_(n-k) = 2^n F_n",
        ),
        IdentityRecord(
            "C2.2.1", "as_printed", "fibonacci-roots", 0, 20, _c221_lhs, _c221_rhs,
            anchor="sum F_k F_(n-k) = ((n+1) L_n - 2 F_(n+1)) / (y^2+4t)",
            note="recorded cleared by y^2+4t",
        ),
        IdentityRecord(
            "C2.2.2", "as_printed", "fibonacci-roots", 0, 20, _c222_lhs, _c222_rhs,
            anchor="sum L_k L_(n-k) = (n+1) L_n + 2 F_(n+1)",
        ),
        IdentityRecord(
            "C2.2.3", "as_printed", "fibonacci-roots", 0, 20, _c223_lhs, _c223_rhs,
            anchor="sum F_k L_(n-k) = (n+1) F_n",
        ),
        IdentityRecord(
            "C2.3.1", "as_printed", "balancing-roots", 0, 20, _c231_lhs, _c231_rhs,
            anchor="sum C(n,k) B*_k B*_(n-k) = (2^n C_n - (6y)^n) / (2 (9y^2-t))",
            note="recorded cleared by 2 (9y^2-t)",
        ),
        IdentityRecord(
            "C2.3.2", "as_printed", "balancing-roots", 0, 20, _c232_lhs, _c232_rhs,
            anchor="sum C(n,k) 2 C_k C_(n-k) = 2^n C_n + (6y)^n",
        ),
        IdentityRecord(
            "C2.3.3", "as_printed", "balancing-roots", 0, 20, _c233_lhs, _c233_rhs,
            anchor="sum C(n,k) B*_k C_(n-k) = 2^(n-1) B*_n",
        ),
        IdentityRecord(
            "C2.4.1", "as_printed", "balancing-roots", 0, 20, _c241_lhs, _c241_rhs,
            anchor="sum B*_k B*_(n-k) = ((n+1) C_n - B*_(n+1)) / (2 (9y^2-t))",
            note="recorded cleared by 2 (9y^2-t)",
        ),
        IdentityRecord(
            "C2.4.2", "as_printed", "balancing-roots", 0, 20, _c242_lhs, _c242_rhs,
            anchor="sum 2 C_k C_(n-k) = (n+1) C_n + B*_(n+1)",
            note=(
                "the printed right side writes the argument pair of B*_(n+1) "
                "in the other family's letters; read as the balancing pair"
            ),
        ),
        IdentityRecord(
            "C2.4.3", "as_printed", "balancing-roots", 0, 20, _c243_lhs, _c243_rhs,
            anchor="sum 2 B*_k C_(n-k) = (n+1) B*_n",
        ),
    ]


# --------------------------------------------------------------------------
# section-3 corollaries, first family
# --------------------------------------------------------------------------


def _c31_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, _fib_bp_xtypo(ctx), ctx.deltapow,
        weight=lambda n_, k: ctx.G(n_ - k), parity=True,
    )


def _c31_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    return (-n * 2 ** (n - 1)) * (_fib_disc(ctx) * _F(ctx, n - 1))


def _c32_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, _fib_bp_xtypo(ctx), ctx.deltapow,
        weight=lambda n_, k: (n_ - k - 1) * ctx.G(n_ - k),
    )


def _c32_rhs(ctx, n):
    c = 2 * n * (1 - n)
    if c == 0:
        return ctx.zero
    return c * (_fib_disc(ctx) * _xk(ctx, n - 2))


def _c33_lhs(ctx, m):
    def weight(m_: int, k: int):
        return printed_ratio(_g_at(m_ - k - 2), m_ - k - 2)

    return eval_convolution_sum(
        ctx, m, _fib_bp(ctx), ctx.deltapow, weight=weight, parity=True
    )


def _c33_rhs(ctx, m):
    return -2 * (_fib_disc(ctx) * _xk(ctx, m))


def _c34a_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, _fib_bm(ctx), ctx.deltapow,
        weight=lambda n_, k: ctx.B(n_ - k),
    )


def _c34a_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    return (n * Rational(2) ** (n - 2)) * (_fib_disc(ctx) * _L(ctx, n - 1))


def _c34b_lhs(ctx, n):
    def weight(n_: int, k: int):
        j = n_ - k
        return (1 - Rational(2) ** j) * ctx.B(j)

    return eval_convolution_sum(ctx, n, _fib_bp(ctx), ctx.deltapow, weight=weight)


def _c34b_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    return (-n * Rational(2) ** (n - 2)) * (_fib_disc(ctx) * _L(ctx, n - 1))


def _c35a_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, _fib_bm(ctx), ctx.deltapow,
        weight=lambda n_, k: (n_ - k - 1) * ctx.B(n_ - k), parity=True,
    )


def _c35a_rhs(ctx, n):
    c = n * (1 - n)
    if c == 0:
        return ctx.zero
    disc = _fib_disc(ctx)
    return c * (disc * disc * _xk(ctx, n - 2))


def _c35b_lhs(ctx, n):
    def weight(n_: int, k: int):
        j = n_ - k
        return (Rational(2) ** j - 1) * (j - 1) * ctx.B(j)

    return eval_convolution_sum(
        ctx, n, _fib_bp(ctx), ctx.deltapow, weight=weight, parity=True
    )


def _c35b_rhs(ctx, n):
    c = -n * (1 - n)
    if c == 0:
        return ctx.zero
    disc = _fib_disc(ctx)
    return c * (disc * disc * _yk(ctx, n - 2))


def _c36a_lhs(ctx, m):
    # cleared by (y^2+4t)(m+1)(m+2)
    def weight(m_: int, k: int):
        return printed_ratio(_b_at(m_ - k - 2), m_ - k - 2)

    conv = eval_convolution_sum(
        ctx, m, _fib_bm(ctx), ctx.deltapow, weight=weight, parity=True
    )
    return ((m + 1) * (m + 2)) * (_fib_disc(ctx) * conv)


def _c36a_rhs(ctx, m):
    bracket = _L(ctx, m + 2) - 2 * _xk(ctx, m + 2)
    return (2 ** (m + 2)) * bracket - ((m + 1) * (m + 2)) * (
        _fib_disc(ctx) * _yk(ctx, m)
    )


def _c36b_lhs(ctx, m):
    def weight(m_: int, k: int):
        j = m_ - k
        return (Rational(2) ** j - 1) * printed_ratio(_b_at(j - 2), j - 2)

    return eval_convolution_sum(
        ctx, m, _fib_bp(ctx), ctx.deltapow, weight=weight, parity=True
    )


def _c36b_rhs(ctx, m):
    return _yk(ctx, m)


def _c37_lhs(ctx, n):
    def weight(n_: int, k: int):
        j = n_ - k
        return _HALF ** j * ctx.E(j)

    return eval_convolution_sum(
        ctx, n, _fib_bp(ctx), ctx.deltapow, weight=weight, parity=True
    )


def _c37_rhs(ctx, n):
    yy = ctx.embed(2 * _Y)
    a = ctx.pow_named("2y+d", yy + ctx.delta, n)
    b = ctx.pow_named("2y-d", yy - ctx.delta, n)
    return Rational(2) ** (1 - n) * (a + b)


def _case1_records() -> List[IdentityRecord]:
    return [
        IdentityRecord(
            "C3.1", "as_printed", "fibonacci-roots", 0, 20, _c31_lhs, _c31_rhs,
            anchor=(
                "sum[n=k(2)] C(n,k) d^(n-k) (2^k L_k + 2 x^k) G_(n-k) "
                "= -n 2^(n-1) (y^2+4t) F_(n-1)   [d = sqrt(y^2+4t)]"
            ),
            parity=True,
            note="the printed bracket carries x^k where the substitution gives y^k",
        ),
        IdentityRecord(
            "C3.2", "as_printed", "fibonacci-roots", 0, 20, _c32_lhs, _c32_rhs,
            anchor=(
                "sum C(n,k) d^(n-k) (n-k-1) (2^k L_k + 2 x^k) G_(n-k) "
                "= 2n(1-n) (y^2+4t) x^(n-2)"
            ),
            note="printed with x^k in the bracket and x^(n-2) on the right for y powers",
        ),
        IdentityRecord(
            "C3.3", "as_printed", "fibonacci-roots", 0, 20, _c33_lhs, _c33_rhs,
            anchor=(
                "sum[m=k(2)] C(m,k) d^(m-k) G_(m-k-2)/(m-k-2) (2^k L_k + 2 y^k) "
                "= -2 (y^2+4t) x^m"
            ),
            parity=True,
            note=(
                "printed indices mix n and m (read uniformly as m) and keep the "
                "un-shifted m-k-2; the right side prints x^m for y^m"
            ),
        ),
        IdentityRecord(
            "C3.4a", "as_printed", "fibonacci-roots", 0, 20, _c34a_lhs, _c34a_rhs,
            anchor=(
                "sum C(n,k) d^(n-k) (2^k L_k - 2 y^k) B_(n-k) "
                "= n 2^(n-2) (y^2+4t) L_(n-1)"
            ),
            note=(
                "printed without the parity restriction of its source and with "
                "L_(n-1) where the substitution gives F_(n-1)"
            ),
        ),
        IdentityRecord(
            "C3.4b", "as_printed", "fibonacci-roots", 0, 20, _c34b_lhs, _c34b_rhs,
            anchor=(
                "sum C(n,k) (1-2^(n-k)) d^(n-k) (2^k L_k + 2 y^k) B_(n-k) "
                "= -n 2^(n-2) (y^2+4t) L_(n-1)"
            ),
            note=(
                "printed without the parity restriction of its source and with "
                "L_(n-1) where the substitution gives F_(n-1)"
            ),
        ),
        IdentityRecord(
            "C3.5a", "as_printed", "fibonacci-roots", 0, 20, _c35a_lhs, _c35a_rhs,
            anchor=(
                "sum[n=k(2)] C(n,k) d^(n-k) (n-k-1) (2^k L_k - 2 y^k) B_(n-k) "
                "= n(1-n) (y^2+4t)^2 x^(n-2)"
            ),
            parity=True,
            note="the right side squares y^2+4t and prints x^(n-2) for y^(n-2)",
        ),
        IdentityRecord(
            "C3.5b", "as_printed", "fibonacci-roots", 0, 20, _c35b_lhs, _c35b_rhs,
            anchor=(
                "sum[n=k(2)] C(n,k) (2^(n-k)-1) d^(n-k) (n-k-1) (2^k L_k + 2 y^k) "
                "B_(n-k) = -n(1-n) (y^2+4t)^2 y^(n-2)"
            ),
            parity=True,
            note="the right side squares y^2+4t",
        ),
        IdentityRecord(
            "C3.6a", "as_printed", "fibonacci-roots", 0, 20, _c36a_lhs, _c36a_rhs,
            anchor=(
                "sum[m=k(2)] C(m,k) d^(m-k) B_(m-k-2)/(m-k-2) (2^k L_k - 2 y^k) "
                "= 2^(m+2)(L_(m+2) - 2 x^(m+2)) / ((y^2+4t)(m+2)(m+1)) - y^m"
            ),
            parity=True,
            note=(
                "recorded cleared by (y^2+4t)(m+1)(m+2); printed with the "
                "un-shifted index m-k-2 (B_0/0 makes it non-evaluable for "
                "m >= 2), x for y inside the bracket, and a final term missing "
                "its y^2+4t factor"
            ),
        ),
        IdentityRecord(
            "C3.6b", "as_printed", "fibonacci-roots", 0, 20, _c36b_lhs, _c36b_rhs,
            anchor=(
                "sum[m=k(2)] C(m,k) (2^(m-k)-1) d^(m-k) B_(m-k-2)/(m-k-2) "
                "(2^k L_k + 2 y^k) = y^m"
            ),
            parity=True,
            note=(
                "printed with the un-shifted exponents (the factor reads 2^(m-k)-1 "
                "for 2^(m-k+2)-1, B_0/0 makes it non-evaluable for m >= 2) and a "
                "right side missing its y^2+4t factor"
            ),
        ),
        IdentityRecord(
            "C3.7", "as_printed", "fibonacci-roots", 0, 20, _c37_lhs, _c37_rhs,
            anchor=(
                "sum[n=k(2)] C(n,k) (d/2)^(n-k) (2^k L_k + 2 y^k) E_(n-k) "
                "= 2^(1-n) ((2y+d)^n + (2y-d)^n)"
            ),
            parity=True,
        ),
    ]


# --------------------------------------------------------------------------
# section-3 corollaries, second family (printed in (x, y); transcribed (y, t))
# --------------------------------------------------------------------------


def _c38_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, _bal_bp(ctx), lambda j: _two_delta_pow(ctx, j),
        weight=lambda n_, k: ctx.G(n_ - k), parity=True,
    )


def _c38_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    disc = _bal_disc(ctx)
    return (-n * 2 ** (n + 1)) * (disc * disc * _Bst(ctx, n - 1))


def _c39_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, _bal_bp(ctx), lambda j: _two_delta_pow(ctx, j),
        weight=lambda n_, k: (n_ - k - 1) * ctx.G(n_ - k),
    )


def _c39_rhs(ctx, n):
    c = 8 * n * (1 - n)
    if c == 0:
        return ctx.zero
    return c * (_bal_disc(ctx) * _six_yk(ctx, n - 2))


def _c310_lhs(ctx, m):
    def weight(m_: int, k: int):
        return printed_ratio(_g_at(m_ - k - 2), m_ - k - 2)

    return eval_convolution_sum(
        ctx, m, _bal_bp(ctx), lambda j: _two_delta_pow(ctx, j),
        weight=weight, parity=True,
    )


def _c310_rhs(ctx, m):
    return -8 * (_bal_disc(ctx) * _six_yk(ctx, m))


def _c311a_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, _bal_bm_half(ctx), lambda j: _two_delta_pow(ctx, j),
        weight=lambda n_, k: ctx.B(n_ - k),
    )


def _c311a_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    return (n * Rational(2) ** (n - 1)) * (_bal_disc(ctx) * _Bst(ctx, n - 1))


def _c311b_lhs(ctx, n):
    def weight(n_: int, k: int):
        j = n_ - k
        return (1 - Rational(2) ** j) * ctx.B(j)

    return eval_convolution_sum(
        ctx, n, _bal_bp_half(ctx), ctx.deltapow, weight=weight
    )


def _c311b_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    return (-n * Rational(2) ** (n - 1)) * (_bal_disc(ctx) * _Bst(ctx, n - 1))


def _c312a_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, _bal_bm_half(ctx), lambda j: _two_delta_pow(ctx, j),
        weight=lambda n_, k: (n_ - k - 1) * ctx.B(n_ - k), parity=True,
    )


def _c312a_rhs(ctx, n):
    c = 2 * n * (1 - n)
    if c == 0:
        return ctx.zero
    return c * (_bal_disc(ctx) * _six_yk(ctx, n - 2))


def _c312b_lhs(ctx, n):
    def weight(n_: int, k: int):
        j = n_ - k
        return (1 - Rational(2) ** j) * (j - 1) * ctx.B(j)

    return eval_convolution_sum(
        ctx, n, _bal_bp_half(ctx), lambda j: _two_delta_pow(ctx, j),
        weight=weight, parity=True,
    )


def _c312b_rhs(ctx, n):
    c = -2 * n * (1 - n)
    if c == 0:
        return ctx.zero
    return c * (_bal_disc(ctx) * _six_yk(ctx, n - 2))


def _c313a_lhs(ctx, m):
    # cleared by 4 (9y^2-t)(m+1)(m+2)
    def weight(m_: int, k: int):
        return printed_ratio(_b_at(m_ - k - 2), m_ - k - 2)

    conv = eval_convolution_sum(
        ctx, m, _bal_bm_half(ctx), lambda j: _two_delta_pow(ctx, j),
        weight=weight, parity=True,
    )
    return (4 * (m + 1) * (m + 2)) * (_bal_disc(ctx) * conv)


def _c313a_rhs(ctx, m):
    bracket = _C(ctx, m + 2) - _six_yk(ctx, m + 2)
    return (2 ** (m + 2)) * bracket - (4 * (m + 1) * (m + 2)) * (
        _bal_disc(ctx) * _six_yk(ctx, m)
    )


def _c313b_lhs(ctx, m):
    def weight(m_: int, k: int):
        j = m_ - k
        return (Rational(2) ** (j + 2) - 1) * printed_ratio(_b_at(j - 2), j - 2)

    return eval_convolution_sum(
        ctx, m, _bal_bp(ctx), lambda j: _two_delta_pow(ctx, j),
        weight=weight, parity=True,
    )


def _c313b_rhs(ctx, m):
    return -2 * _six_yk(ctx, m)


def _c314_lhs(ctx, n):
    def weight(n_: int, k: int):
        return ctx.E(n_ - k)

    return eval_convolution_sum(
        ctx, n, _bal_bp_half(ctx), ctx.deltapow, weight=weight, parity=True
    )


def _c314_rhs(ctx, n):
    yy = ctx.embed(_SIX_Y)
    a = ctx.pow_named("6y+d", yy + ctx.delta, n)
    b = ctx.pow_named("6y-d", yy - ctx.delta, n)
    return a + b


def _case2_records() -> List[IdentityRecord]:
    note_vars = "printed in the other variable pair; transcribed via x -> y, y -> t"
    return [
        IdentityRecord(
            "C3.8", "as_printed", "balancing-roots", 0, 20, _c38_lhs, _c38_rhs,
            anchor=(
                "sum[n=k(2)] C(n,k) (2d)^(n-k) (2^(k+1) C_k + 2 (6y)^k) G_(n-k) "
                "= -n 2^(n+1) (9y^2-t)^2 B*_(n-1)   [d = sqrt(9y^2-t)]"
            ),
            parity=True,
            note=f"{note_vars}; the right side squares 9y^2-t",
        ),
        IdentityRecord(
            "C3.9", "as_printed", "balancing-roots", 0, 20, _c39_lhs, _c39_rhs,
            anchor=(
                "sum C(n,k) (2d)^(n-k) (n-k-1) (2^(k+1) C_k + 2 (6y)^k) G_(n-k) "
                "= 8n(1-n) (9y^2-t) (6y)^(n-2)"
            ),
            note=note_vars,
        ),
        IdentityRecord(
            "C3.10", "as_printed", "balancing-roots", 0, 20, _c310_lhs, _c310_rhs,
            anchor=(
                "sum[m=k(2)] C(m,k) (2d)^(m-k) G_(m-k-2)/(m-k-2) "
                "(2^(k+1) C_k + 2 (6y)^k) = -8 (9y^2-t) (6y)^m"
            ),
            parity=True,
            note=f"{note_vars}; printed with the un-shifted index m-k-2",
        ),
        IdentityRecord(
            "C3.11a", "as_printed", "balancing-roots", 0, 20, _c311a_lhs, _c311a_rhs,
            anchor=(
                "sum C(n,k) (2d)^(n-k) (2^k C_k - (6y)^k) B_(n-k) "
                "= n 2^(n-1) (9y^2-t) B*_(n-1)"
            ),
            note=f"{note_vars}; printed without the parity restriction of its source",
        ),
        IdentityRecord(
            "C3.11b", "as_printed", "balancing-roots", 0, 20, _c311b_lhs, _c311b_rhs,
            anchor=(
                "sum C(n,k) (1-2^(n-k)) d^(n-k) (2^k C_k + (6y)^k) B_(n-k) "
                "= -n 2^(n-1) (9y^2-t) B*_(n-1)"
            ),
            note=(
                f"{note_vars}; printed without the parity restriction and with "
                "d^(n-k) where the substitution gives (2d)^(n-k)"
            ),
        ),
        IdentityRecord(
            "C3.12a", "as_printed", "balancing-roots", 0, 20, _c312a_lhs, _c312a_rhs,
            anchor=(
                "sum[n=k(2)] C(n,k) (2d)^(n-k) (n-k-1) (2^k C_k - (6y)^k) B_(n-k) "
                "= 2n(1-n) (9y^2-t) (6y)^(n-2)"
            ),
            parity=True,
            note=note_vars,
        ),
        IdentityRecord(
            "C3.12b", "as_printed", "balancing-roots", 0, 20, _c312b_lhs, _c312b_rhs,
            anchor=(
                "sum[n=k(2)] C(n,k) (1-2^(n-k)) (2d)^(n-k) (n-k-1) "
                "(2^k C_k + (6y)^k) B_(n-k) = -2n(1-n) (9y^2-t) (6y)^(n-2)"
            ),
            parity=True,
            note=f"{note_vars}; the printed right side has the opposite sign",
        ),
        IdentityRecord(
            "C3.13a", "as_printed", "balancing-roots", 0, 20, _c313a_lhs, _c313a_rhs,
            anchor=(
                "sum[m=k(2)] C(m,k) (2d)^(m-k) B_(m-k-2)/(m-k-2) (2^k C_k - (6y)^k) "
                "= 2^(m+2)(C_(m+2) - (6y)^(m+2)) / (4(9y^2-t)(m+2)(m+1)) - (6y)^m"
            ),
            parity=True,
            note=(
                f"{note_vars}; recorded cleared by 4(9y^2-t)(m+1)(m+2); printed "
                "with the un-shifted index m-k-2 (B_0/0 makes it non-evaluable "
                "for m >= 2) and a final term missing its 2(9y^2-t) factor"
            ),
        ),
        IdentityRecord(
            "C3.13b", "as_printed", "balancing-roots", 0, 20, _c313b_lhs, _c313b_rhs,
            anchor=(
                "sum[m=k(2)] C(m,k) (2^(m-k+2)-1) (2d)^(m-k) B_(m-k-2)/(m-k-2) "
                "(2^(k+1) C_k + 2 (6y)^k) = -2 (6y)^m"
            ),
            parity=True,
            note=(
                f"{note_vars}; printed with the un-shifted index m-k-2 (B_0/0 "
                "makes it non-evaluable for m >= 2) and a right side missing its "
                "2(9y^2-t) factor"
            ),
        ),
        IdentityRecord(
            "C3.14", "as_printed", "balancing-roots", 0, 20, _c314_lhs, _c314_rhs,
            anchor=(
                "sum[n=k(2)] C(n,k) d^(n-k) (2^k C_k + (6y)^k) E_(n-k) "
                "= (6y+d)^n + (6y-d)^n"
            ),
            parity=True,
            note=note_vars,
        ),
    ]


# --------------------------------------------------------------------------
# section-4 corollaries: polynomial-weighted sums at the family roots
# --------------------------------------------------------------------------


def _c41_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, _fib_bp(ctx),
        lambda j: ctx.deltapow(j) * ctx.npoly("genocchi", j),
    )


def _c41_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    base1 = ctx.embed(_Y) + ctx.x * ctx.delta
    base2 = ctx.embed(_Y) + (ctx.x - ctx.one) * ctx.delta
    a = ctx.pow_named("y+xd", base1, n - 1)
    b = ctx.pow_named("y+(x-1)d", base2, n - 1)
    return (2 * n) * (a + b)


def _c42_lhs(ctx, n):
    # cleared by d: the printed power is d^(n-k-1)
    return eval_convolution_sum(
        ctx, n, _fib_bm(ctx),
        lambda j: ctx.deltapow(j) * ctx.npoly("bernoulli", j),
    )


def _c42_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    base1 = ctx.embed(_Y) + ctx.delta * ctx.x
    base2 = ctx.embed(_Y) + (ctx.x - ctx.one) * ctx.delta
    a = ctx.pow_named("y+xd", base1, n - 1)
    b = ctx.pow_named("y+(x-1)d", base2, n - 1)
    return n * (ctx.delta * (a - b))


def _c43_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, _fib_bp(ctx),
        lambda j: ctx.deltapow(j) * ctx.npoly("euler", j),
    )


def _c43_rhs(ctx, n):
    base1 = ctx.embed(_Y) + ctx.delta * ctx.x
    base2 = ctx.embed(_Y) + (ctx.x - ctx.one) * ctx.delta
    a = ctx.pow_named("y+xd", base1, n)
    b = ctx.pow_named("y+(x-1)d", base2, n)
    return 2 * a + 2 * b


def _c44_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, _bal_bp(ctx),
        lambda j: _two_delta_pow(ctx, j) * ctx.npoly("genocchi", j),
    )


def _c44_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    base1 = ctx.embed(3 * _Y) + ctx.x * ctx.delta
    base2 = ctx.embed(3 * _Y) + (ctx.x - ctx.one) * ctx.delta
    a = ctx.pow_named("3y+xd", base1, n - 1)
    b = ctx.pow_named("3y+(x-1)d", base2, n - 1)
    return (n * 2 ** (n + 1)) * (ctx.delta * (a + b))


def _c45_lhs(ctx, n):
    # cleared by 2d: the printed power is (2d)^(n-k-1)
    return eval_convolution_sum(
        ctx, n, _bal_bm_typo(ctx),
        lambda j: _two_delta_pow(ctx, j) * ctx.npoly("bernoulli", j),
    )


def _c45_rhs(ctx, n):
    if n == 0:
        return ctx.zero
    base1 = ctx.embed(_SIX_Y) + 2 * (ctx.x * ctx.delta)
    base2 = ctx.embed(_SIX_Y) + (2 * ctx.x - 2 * ctx.one) * ctx.delta
    a = ctx.pow_named("6y+2xd", base1, n - 1)
    b = ctx.pow_named("6y+(2x-2)d", base2, n - 1)
    return n * ((2 * ctx.delta) * (a - b))


def _c46_lhs(ctx, n):
    return eval_convolution_sum(
        ctx, n, _bal_bp(ctx),
        lambda j: _two_delta_pow(ctx, j) * ctx.npoly("euler", j),
    )


def _c46_rhs(ctx, n):
    base1 = ctx.embed(_SIX_Y) + 2 * (ctx.delta * ctx.x)
    base2 = ctx.embed(_SIX_Y) + (ctx.x - 2 * ctx.one) * ctx.delta
    a = ctx.pow_named("6y+2xd", base1, n)
    b = ctx.pow_named("6y+(x-2)d", base2, n)
    return 2 * a + 2 * b


def _section4_records() -> List[IdentityRecord]:
    return [
        IdentityRecord(
            "C4.1", "as_printed", "fibonacci-roots", 0, 20, _c41_lhs, _c41_rhs,
            anchor=(
                "sum C(n,k) d^(n-k) (2^k L_k + 2 y^k) G_(n-k)(x) "
                "= 2n ((y+xd)^(n-1) + (y+(x-1)d)^(n-1))"
            ),
            note="the printed right side is missing its factor d",
        ),
        IdentityRecord(
            "C4.2", "as_printed", "fibonacci-roots", 0, 20, _c42_lhs, _c42_rhs,
            anchor=(
                "sum C(n,k) d^(n-k-1) (2^k L_k - 2 y^k) B_(n-k)(x) "
                "= n (y+dx)^(n-1) - n (y+(x-1)d)^(n-1)"
            ),
            note="recorded cleared by d",
        ),
        IdentityRecord(
            "C4.3", "as_printed", "fibonacci-roots", 0, 20, _c43_lhs, _c43_rhs,
            anchor=(
                "sum C(n,k) d^(n-k) (2^k L_k + 2 y^k) E_(n-k)(x) "
                "= 2 (y+dx)^n + 2 (y+(x-1)d)^n"
            ),
        ),
        IdentityRecord(
            "C4.4", "as_printed", "balancing-roots", 0, 20, _c44_lhs, _c44_rhs,
            anchor=(
                "sum C(n,k) (2d)^(n-k) (2^(k+1) C_k + 2 (6y)^k) G_(n-k)(x) "
                "= n 2^(n+1) d ((3y+xd)^(n-1) + (3y+(x-1)d)^(n-1))"
            ),
        ),
        IdentityRecord(
            "C4.5", "as_printed", "balancing-roots", 0, 20, _c45_lhs, _c45_rhs,
            anchor=(
                "sum C(n,k) (2d)^(n-k-1) (2^(k+1) C_k - (6y)^k) B_(n-k)(x) "
                "= n (6y+2xd)^(n-1) - n (6y+(2x-2)d)^(n-1)"
            ),
            note=(
                "recorded cleared by 2d; the printed bracket reads -(6y)^k "
                "where the substitution gives -2 (6y)^k"
            ),
        ),
        IdentityRecord(
            "C4.6", "as_printed", "balancing-roots", 0, 20, _c46_lhs, _c46_rhs,
            anchor=(
                "sum C(n,k) (2d)^(n-k) (2^(k+1) C_k + 2 (6y)^k) E_(n-k)(x) "
                "= 2 (6y+2dx)^n + 2 (6y+(x-2)d)^n"
            ),
            note="the printed second base reads (x-2)d where the substitution gives (2x-2)d",
        ),
    ]


def corollary_records() -> List[IdentityRecord]:
    """Every printed corollary, in source order."""
    return (
        _section2_records()
        + _case1_records()
        + _case2_records()
        + _section4_records()
    )
