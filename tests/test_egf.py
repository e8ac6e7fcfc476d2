"""Truncated EGF layer: defining products of every special series."""

import math

import pytest

from convcheck._scalar import Rational
from convcheck.arith import MultiPoly
from convcheck.egf import (
    EgfSeries,
    SPECIAL_KINDS,
    egf_exp_linear,
    egf_invert,
    egf_mul,
    egf_mul_by_z,
    egf_special,
)

ORDER = 40


def const_series(values):
    return EgfSeries([MultiPoly.constant(v) for v in values])


def exp_minus_one_over_z(order):
    # (e^z - 1)/z: coefficient n is 1/(n+1)
    return const_series([Rational(1, n + 1) for n in range(order + 1)])


def exp_plus_one_half(order):
    # (e^z + 1)/2: coefficients 1, 1/2, 1/2, ...
    return const_series([1] + [Rational(1, 2)] * order)


def is_one(series):
    return series.coeffs[0] == 1 and all(c.is_zero() for c in series.coeffs[1:])


def test_mul_matches_binomial_convolution():
    u = egf_exp_linear(2, 10)   # e^(2z): coefficients 2^n
    v = egf_exp_linear(3, 10)   # e^(3z)
    w = egf_mul(u, v)           # e^(5z)
    for n in range(11):
        assert w[n] == MultiPoly.constant(5 ** n)


def test_mul_and_invert_match_the_folded_convolution():
    # polynomial coefficients over mixed denominators, against the sum of
    # C(n,k) u_k v_(n-k) folded one polynomial at a time
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    u = EgfSeries([Rational(2, 3)] + [x ** (n % 3) * Rational(n, 5) - y / (n + 1) for n in range(1, 13)])
    v = EgfSeries([x - Rational(n, 7) * y * y for n in range(13)])
    prod, inv = egf_mul(u, v), egf_invert(u)
    assert inv[0] == Rational(3, 2)
    for n in range(13):
        fold = MultiPoly.constant(0)
        for k in range(n + 1):
            fold = fold + math.comb(n, k) * (u[k] * v[n - k])
        assert prod[n] == fold
        fold = MultiPoly.constant(0)
        for k in range(1, n + 1):
            fold = fold + math.comb(n, k) * (u[k] * inv[n - k])
        assert n == 0 or fold * Rational(-3, 2) == inv[n]


def test_invert_roundtrip():
    series = exp_plus_one_half(ORDER)
    assert is_one(egf_mul(series, egf_invert(series)))
    geom = const_series([Rational(1)] * 12)  # e^z
    assert is_one(egf_mul(geom, egf_invert(geom)))


def test_invert_requires_invertible_constant_term():
    with pytest.raises(ValueError):
        egf_invert(const_series([0, 1, 1]))
    with pytest.raises(ValueError):
        egf_invert(EgfSeries([MultiPoly.var("x"), MultiPoly.constant(1)]))


def test_defining_product_bernoulli():
    # B(z) * (e^z - 1)/z = 1
    series = egf_special("bernoulli", ORDER)
    assert is_one(egf_mul(series, exp_minus_one_over_z(ORDER)))


def test_defining_product_genocchi():
    # G(z) * (e^z + 1)/2 = z
    series = egf_special("genocchi", ORDER)
    prod = egf_mul(series, exp_plus_one_half(ORDER))
    assert prod[0].is_zero() and prod[1] == 1
    assert all(c.is_zero() for c in prod.coeffs[2:])


def test_defining_product_euler():
    # E(z) * (e^(2z) + 1)/2 = e^z
    series = egf_special("euler", ORDER)
    half_cosh = const_series([1] + [Rational(2 ** (n - 1)) for n in range(1, ORDER + 1)])
    prod = egf_mul(series, half_cosh)
    for n in range(ORDER + 1):
        assert prod[n] == 1


def test_polynomial_series_factor_out_exp_xz():
    # dividing the polynomial series by e^(xz) recovers the number series
    x = MultiPoly.var("x")
    emx = egf_exp_linear(-x, 20)
    bernoulli_poly = egf_special("bernoulli_poly", 20)
    recovered = egf_mul(bernoulli_poly, emx)
    number = egf_special("bernoulli", 20)
    assert recovered.coeffs == number.coeffs
    genocchi_poly = egf_special("genocchi_poly", 20)
    assert egf_mul(genocchi_poly, emx).coeffs == egf_special("genocchi", 20).coeffs


def test_euler_poly_at_half_rescales_to_numbers():
    # E_n = 2^n E_n(1/2)
    poly = egf_special("euler_poly", 24)
    numbers = egf_special("euler", 24)
    for n in range(25):
        value = poly[n].substitute({"x": Rational(1, 2)})
        assert MultiPoly.constant(2 ** n) * value == numbers[n]


def test_mul_by_z_shifts_with_index_factor():
    u = egf_exp_linear(1, 8)
    zu = egf_mul_by_z(u)
    assert zu[0].is_zero()
    for n in range(1, 9):
        assert zu[n] == MultiPoly.constant(n)


def egf_scale_arg(u: EgfSeries, c) -> EgfSeries:
    """Substitute z -> c*z, scaling coefficient n by c^n."""
    base = MultiPoly.constant(c)
    out = []
    power = MultiPoly.constant(1)
    for n, a in enumerate(u.coeffs):
        if n:
            power = power * base
        out.append(a * power)
    return EgfSeries(out)


def test_scale_arg_scales_coefficients_geometrically():
    series = egf_special("bernoulli", 12)
    doubled = egf_scale_arg(series, 2)
    for n in range(13):
        assert doubled[n] == MultiPoly.constant(2 ** n) * series[n]


def test_special_kind_validation():
    assert set(SPECIAL_KINDS) == {
        "bernoulli", "euler", "genocchi",
        "bernoulli_poly", "euler_poly", "genocchi_poly",
    }
    with pytest.raises(ValueError):
        egf_special("tangent", 4)
    with pytest.raises(ValueError):
        egf_special("bernoulli", -1)
    with pytest.raises(ValueError):
        EgfSeries([])
