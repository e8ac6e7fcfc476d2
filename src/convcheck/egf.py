"""Truncated exponential generating functions.

An :class:`EgfSeries` of order N stores coefficients a_0 .. a_N and
stands for sum a_n z^n / n! truncated after z^N.  Coefficients are
:class:`~convcheck.arith.MultiPoly` values, so number-valued series are
just the constant-polynomial case and polynomial-valued series (for the
Bernoulli/Euler/Genocchi polynomial families) come for free.

The product rule is the binomial convolution
(u*v)_n = sum_k C(n,k) u_k v_(n-k); inversion solves that triangular
system when u_0 is an invertible constant.  Each coefficient is one
exact accumulator, a :class:`~convcheck.arith.ProductSum`, that every
product of its sum is multiplied straight into.
"""

from __future__ import annotations

from typing import List, Sequence

from ._scalar import Rational, as_rational, is_scalar
from .arith import MultiPoly, ProductSum

__all__ = [
    "EgfSeries",
    "SPECIAL_KINDS",
    "egf_exp_linear",
    "egf_invert",
    "egf_mul",
    "egf_mul_by_z",
    "egf_special",
]

_ZERO = MultiPoly.constant(0)
_ONE = MultiPoly.constant(1)


def _as_coeff(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if is_scalar(value):
        return MultiPoly.constant(value)
    raise TypeError(f"EGF coefficients must be polynomials or scalars, got {value!r}")


class EgfSeries:
    """Coefficient list a_0..a_N of a series sum a_n z^n / n!."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[MultiPoly | int]):
        if not coeffs:
            raise ValueError("an EGF series needs at least the constant coefficient")
        self.coeffs: List[MultiPoly] = [_as_coeff(c) for c in coeffs]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> MultiPoly:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return isinstance(other, EgfSeries) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:5])
        return f"EgfSeries([{head}{', ...' if self.order > 4 else ''}] order={self.order})"


def _binomial_row(n: int):
    """C(n, 0), ..., C(n, n), each from the one before it."""
    c = 1
    for k in range(n + 1):
        yield c
        c = c * (n - k) // (k + 1)


def egf_mul(u: EgfSeries, v: EgfSeries) -> EgfSeries:
    """Product series, truncated to the smaller order."""
    order = min(u.order, v.order)
    uc, vc = u.coeffs, v.coeffs
    out = []
    for n in range(order + 1):
        acc = ProductSum()
        for k, c in enumerate(_binomial_row(n)):
            acc.add(c, 1, uc[k], vc[n - k])
        out.append(acc.value())
    return EgfSeries(out)


def egf_invert(u: EgfSeries) -> EgfSeries:
    """Multiplicative inverse, requiring an invertible constant term.

    The constant coefficient must be a non-zero rational constant;
    anything else (zero, or a genuine polynomial) raises ValueError
    because the inverse would leave the truncated-polynomial-EGF world.
    """
    u0 = u.coeffs[0]
    if not u0.is_constant() or u0.is_zero():
        raise ValueError(f"cannot invert series with constant term {u0}")
    inv0 = 1 / u0.constant_value()
    # out_n = -inv0 * sum over k >= 1 of C(n,k) u_k out_(n-k)
    num, den = -inv0.numerator, inv0.denominator
    out = [MultiPoly.constant(inv0)]
    uc = u.coeffs
    for n in range(1, u.order + 1):
        acc = ProductSum()
        for k, c in enumerate(_binomial_row(n)):
            if k:
                acc.add(num * c, den, uc[k], out[n - k])
        out.append(acc.value())
    return EgfSeries(out)


def egf_exp_linear(c, order: int) -> EgfSeries:
    """The series of exp(c*z): coefficient n equals c^n."""
    base = _as_coeff(c)
    out = [_ONE]
    for _ in range(order):
        out.append(out[-1] * base)
    return EgfSeries(out)


def egf_mul_by_z(u: EgfSeries) -> EgfSeries:
    """Multiply by z: the EGF coefficients shift as b_n = n * a_(n-1)."""
    out = [_ZERO]
    for n in range(1, u.order + 1):
        out.append(n * u.coeffs[n - 1])
    return EgfSeries(out)


def _exp_z_minus_one_over_z(order: int) -> EgfSeries:
    # (e^z - 1)/z has EGF coefficients 1/(n+1)
    return EgfSeries([MultiPoly.constant(Rational(1, n + 1)) for n in range(order + 1)])


def _exp_z_plus_one_half(order: int) -> EgfSeries:
    # (e^z + 1)/2 has coefficients 1, 1/2, 1/2, ...
    half = MultiPoly.constant(Rational(1, 2))
    return EgfSeries([_ONE] + [half] * order)


SPECIAL_KINDS = (
    "bernoulli",
    "euler",
    "genocchi",
    "bernoulli_poly",
    "euler_poly",
    "genocchi_poly",
)


def egf_special(which: str, order: int) -> EgfSeries:
    """Closed-form special series, assembled from the primitives above.

    bernoulli        z/(e^z - 1)
    euler            2 e^z/(e^(2z) + 1)        (the number sequence)
    genocchi         2z/(e^z + 1)
    bernoulli_poly   e^(xz) * z/(e^z - 1)
    euler_poly       e^(xz) * 2/(e^z + 1)
    genocchi_poly    e^(xz) * 2z/(e^z + 1)
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if which == "bernoulli":
        return egf_invert(_exp_z_minus_one_over_z(order))
    elif which == "euler":
        # 2 e^z / (e^(2z) + 1) = e^z * (2 / (e^(2z) + 1)); the halved
        # denominator (e^(2z)+1)/2 has coefficients 1, 2^(n-1) for n >= 1
        num = egf_exp_linear(1, order)
        den = EgfSeries([_ONE] + [MultiPoly.constant(2 ** (n - 1)) for n in range(1, order + 1)])
        return egf_mul(num, egf_invert(den))
    elif which == "genocchi":
        return egf_mul_by_z(egf_invert(_exp_z_plus_one_half(order)))
    elif which == "bernoulli_poly":
        return egf_mul(egf_special("bernoulli", order), egf_exp_linear(MultiPoly.var("x"), order))
    elif which == "euler_poly":
        return egf_mul(egf_invert(_exp_z_plus_one_half(order)), egf_exp_linear(MultiPoly.var("x"), order))
    elif which == "genocchi_poly":
        return egf_mul(egf_special("genocchi", order), egf_exp_linear(MultiPoly.var("x"), order))
    raise ValueError(f"unknown special series {which!r}; choose from {SPECIAL_KINDS}")
