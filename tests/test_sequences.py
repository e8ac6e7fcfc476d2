"""Number and polynomial sequences against their EGF oracles."""

import functools
import math
import time

import pytest

from convcheck import sequences
from convcheck._scalar import Rational
from convcheck.arith import MAX_EXP, MultiPoly
from convcheck.egf import egf_special
from convcheck.sequences import (
    BIVARIATE_KINDS,
    bernoulli_number,
    bivariate_sequence,
    euler_number,
    genocchi_number,
    number_polynomial,
)

y = MultiPoly.var("y")
t = MultiPoly.var("t")


def test_recurrence_values_match_egf_oracle_to_60():
    oracle_b = egf_special("bernoulli", 60)
    oracle_e = egf_special("euler", 60)
    oracle_g = egf_special("genocchi", 60)
    for n in range(61):
        assert oracle_b[n].constant_value() == bernoulli_number(n)
        assert oracle_e[n].constant_value() == euler_number(n)
        assert oracle_g[n].constant_value() == genocchi_number(n)


def test_frozen_number_values():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Rational(-1, 2)
    assert bernoulli_number(12) == Rational(-691, 2730)
    assert euler_number(0) == 1
    assert euler_number(4) == 5
    assert euler_number(10) == -50521
    assert genocchi_number(1) == 1
    assert genocchi_number(8) == 17


def test_odd_indices_vanish():
    for n in range(3, 41, 2):
        assert bernoulli_number(n) == 0
        assert genocchi_number(n) == 0
    for n in range(1, 41, 2):
        assert euler_number(n) == 0


def test_genocchi_bernoulli_relation():
    for n in range(0, 41):
        assert genocchi_number(n) == 2 * (1 - Rational(2) ** n) * bernoulli_number(n)
    # each value is derived once and cached, like B_n and E_n
    assert genocchi_number(40) is genocchi_number(40)
    with pytest.raises(ValueError, match=r"^genocchi: index must be non-negative, got -1$"):
        genocchi_number(-1)


def test_polynomial_frozen_strings():
    assert str(number_polynomial("bernoulli", 2)) == "x^2 - x + 1/6"
    assert str(number_polynomial("euler", 1)) == "x - 1/2"
    assert str(number_polynomial("genocchi", 2)) == "2*x - 1"
    # the _poly suffix is accepted as an alias
    assert number_polynomial("bernoulli_poly", 2) == number_polynomial("bernoulli", 2)


def test_polynomials_specialize_to_numbers():
    for n in range(0, 25):
        at_zero = number_polynomial("bernoulli", n).substitute({"x": 0})
        assert at_zero.constant_value() == bernoulli_number(n)
        at_half = number_polynomial("euler", n).substitute({"x": Rational(1, 2)})
        assert Rational(2) ** n * at_half.constant_value() == euler_number(n)
        g_zero = number_polynomial("genocchi", n).substitute({"x": 0})
        assert g_zero.constant_value() == genocchi_number(n)


def test_bivariate_seed_rows():
    assert bivariate_sequence("fibonacci", 0).is_zero()
    assert bivariate_sequence("fibonacci", 1) == MultiPoly.constant(1)
    assert bivariate_sequence("fibonacci", 2) == y
    assert bivariate_sequence("fibonacci", 3) == y * y + t
    assert bivariate_sequence("lucas", 0) == MultiPoly.constant(2)
    assert str(bivariate_sequence("lucas", 2)) == "y^2 + 2*t"
    assert bivariate_sequence("balancing", 2) == 6 * y
    assert bivariate_sequence("lucas_balancing", 1) == 3 * y


# kind -> (seeds u_0, u_1, and the recurrence's p and q in
# u_n = p u_(n-1) + q u_(n-2)), as the module docstring states them
RECURRENCES = {
    "fibonacci": ((0, 1), y, t),
    "lucas": ((2, y), y, t),
    "balancing": ((0, 1), 6 * y, -t),
    "lucas_balancing": ((1, 3 * y), 6 * y, -t),
}


def test_bivariate_recurrences_hold():
    # the closed binomial sums of all four kinds against their seeds and
    # recurrences
    for kind, (seeds, p, q) in RECURRENCES.items():
        assert [bivariate_sequence(kind, n) for n in (0, 1)] == [MultiPoly.constant(1) * s for s in seeds]
        for n in range(2, 61):
            u = bivariate_sequence(kind, n)
            assert u == p * bivariate_sequence(kind, n - 1) + q * bivariate_sequence(kind, n - 2), (kind, n)
            assert u._deg == u.total_degree()


def test_a_bivariate_value_past_the_degree_bound_is_refused():
    # F_n has total degree n - 1 and L_n degree n, refused before any
    # term is built
    for kind, n in (("fibonacci", MAX_EXP + 2), ("lucas_balancing", MAX_EXP + 1)):
        with pytest.raises(OverflowError, match="exceeds the packed exponent bound"):
            bivariate_sequence(kind, n)


def test_an_appell_polynomial_past_the_degree_bound_is_refused_first():
    # no weight is read, so no Bernoulli number up to n is computed
    before = bernoulli_number.cache_info().currsize
    for kind in ("bernoulli", "euler", "genocchi"):
        with pytest.raises(OverflowError, match="exceeds the packed exponent bound"):
            number_polynomial(kind, MAX_EXP + 1)
    assert bernoulli_number.cache_info().currsize == before


def test_bivariate_frozen_evaluations():
    assert bivariate_sequence("balancing", 3).substitute({"y": 1, "t": 1}).constant_value() == 35
    assert bivariate_sequence("lucas_balancing", 2).substitute({"y": 1, "t": 1}).constant_value() == 17
    # classical integer specializations
    fib_numbers = [bivariate_sequence("fibonacci", n).substitute({"y": 1, "t": 1}).constant_value()
                   for n in range(11)]
    assert fib_numbers == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    lucas_numbers = [bivariate_sequence("lucas", n).substitute({"y": 1, "t": 1}).constant_value()
                     for n in range(8)]
    assert lucas_numbers == [2, 1, 3, 4, 7, 11, 18, 29]


def test_kind_and_index_validation():
    assert set(BIVARIATE_KINDS) == {"fibonacci", "lucas", "balancing", "lucas_balancing"}
    with pytest.raises(ValueError):
        bivariate_sequence("pell", 3)
    with pytest.raises(ValueError):
        number_polynomial("tangent", 2)


REFUSALS = (
    [("bernoulli", bernoulli_number), ("euler", euler_number), ("genocchi", genocchi_number)]
    + [(f"{kind}_poly", functools.partial(number_polynomial, kind))
       for kind in ("bernoulli", "euler", "genocchi")]
    + [(kind, functools.partial(bivariate_sequence, kind))
       for kind in ("fibonacci", "lucas", "balancing", "lucas_balancing")]
)


@pytest.mark.parametrize("name, value", REFUSALS, ids=[name for name, _ in REFUSALS])
def test_a_negative_index_is_refused_in_one_line(name, value):
    # twice: a refusal is not cached
    for _ in range(2):
        with pytest.raises(ValueError, match=rf"^{name}: index must be non-negative, got -1$"):
            value(-1)


# -- the integer recurrences against independent references ----------------


def _reference_bernoulli(count):
    """B_0 .. B_(count-1) by B_n = -(1/(n+1)) sum_{k<n} C(n+1,k) B_k."""
    values = []
    for n in range(count):
        acc = sum((math.comb(n + 1, k) * b for k, b in enumerate(values)), Rational(0))
        values.append(Rational(1) if n == 0 else -acc / (n + 1))
    return values


def _reference_euler(count):
    """E_0 .. E_(count-1) by E_2m = -sum_{j<m} C(2m, 2j) E_2j, odd ones 0."""
    values = []
    for n in range(count):
        if n == 0:
            values.append(Rational(1))
        elif n % 2:
            values.append(Rational(0))
        else:
            values.append(-sum((math.comb(n, j) * values[j] for j in range(0, n, 2)), Rational(0)))
    return values


def test_numbers_match_the_rational_recurrences_to_200():
    for n, (b, e) in enumerate(zip(_reference_bernoulli(201), _reference_euler(201))):
        assert bernoulli_number(n) == b, n
        assert euler_number(n) == e, n


def test_von_staudt_clausen_denominators_to_600():
    primes = [p for p in range(2, 602) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for n in range(2, 601, 2):
        want = math.prod(p for p in primes if n % (p - 1) == 0)
        assert bernoulli_number(n).denominator == want, n


def test_appell_polynomials_match_egf_oracle_to_60():
    for kind in ("bernoulli_poly", "euler_poly", "genocchi_poly"):
        oracle = egf_special(kind, 60)
        for n in range(61):
            poly = number_polynomial(kind, n)
            assert poly.terms == oracle[n].terms, (kind, n)


def _reference_secant(count):
    """S_0 .. S_(count-1), E_2m = (-1)^m S_m, by Brent & Harvey's
    in-place algorithm SecantNumbers (arXiv:1108.0286)."""
    a = [1] * count
    for i in range(1, count):
        a[i] = i * a[i - 1]
    for k in range(1, count):
        for j in range(k, count):
            a[j] = (j - k) * a[j - 1] + (j - k + 1) * a[j]
    return a


def test_tangent_secant_lists_agree_after_doubling():
    numbers = sequences._ZigzagList()
    numbers.get(39)
    short = numbers.values
    assert len(short) == 40
    numbers.get(40)  # one past the end: the list is recomputed to 80
    assert len(numbers.values) == 80
    assert numbers.values[:40] == short
    assert numbers.values == sequences._zigzag_numbers(80)
    # T_1..T_4, and the reference's S_0..S_3
    assert sequences._zigzag_numbers(4) == [1, 2, 16, 272]
    assert _reference_secant(4) == [1, 1, 5, 61]


@pytest.mark.parametrize("tangents_first", [True, False], ids=["tangents-first", "empty"])
def test_euler_numbers_match_the_secant_numbers_to_1000(tangents_first, monkeypatch):
    # E_n reads the tangent list when it holds T_(n/2), else pins E_n by
    # beta(n+1); either way the values are the same, and reading a value
    # grows no list
    monkeypatch.setattr(sequences, "_TANGENT", sequences._ZigzagList())
    euler_number.cache_clear()
    bernoulli_number.cache_clear()
    if tangents_first:
        sequences._TANGENT.get(499)
    secant = _reference_secant(501)
    for n in range(1001):
        assert euler_number(n) == (0 if n % 2 else (-1) ** (n // 2) * secant[n // 2]), n
    assert len(sequences._TANGENT.values) == (500 if tangents_first else 0)


def _numbers_from(monkeypatch, tangents, count):
    """(B_n, E_n, G_n) for n < count, from fresh caches and the given
    tangent list."""
    monkeypatch.setattr(sequences, "_TANGENT", tangents)
    for fn in (bernoulli_number, euler_number, genocchi_number):
        fn.cache_clear()
    return [(bernoulli_number(n), euler_number(n), genocchi_number(n)) for n in range(count)]


def test_pinned_numbers_match_the_list_to_1000(monkeypatch):
    # every even index from an empty list is pinned by zeta(n) or
    # beta(n+1); the values are those of the tangent list and, for E_n,
    # of the secant numbers
    full = sequences._ZigzagList()
    full.get(500)
    listed = _numbers_from(monkeypatch, full, 1001)
    empty = sequences._ZigzagList()
    assert _numbers_from(monkeypatch, empty, 1001) == listed
    assert empty.values == []
    secant = _reference_secant(501)
    for n, (_, e, _) in enumerate(listed):
        assert e == (0 if n % 2 else (-1) ** (n // 2) * secant[n // 2]), n


def test_an_interval_too_wide_to_pin_an_integer_is_computed_again(monkeypatch):
    # with no spare bits, and fewer bits than the value has, the first
    # interval holds more than one integer: the precision doubles until
    # it holds one, and the value is the list's
    full = sequences._ZigzagList()
    full.get(100)
    listed = _numbers_from(monkeypatch, full, 201)
    passes = {}
    for name in ("_zeta_bounds", "_beta_bounds"):
        real = getattr(sequences, name)

        def counted(s, prec, real=real, name=name):
            passes.setdefault((name, s), []).append(prec)
            return real(s, prec)

        monkeypatch.setattr(sequences, name, counted)
    monkeypatch.setattr(sequences, "_GUARD_BITS", -10 ** 6)
    assert _numbers_from(monkeypatch, sequences._ZigzagList(), 201) == listed
    for s in (200, 201):
        name = "_zeta_bounds" if s % 2 == 0 else "_beta_bounds"
        precs = passes[name, s]
        assert precs[0] == 8 and len(precs) > 1, (name, precs)
        assert precs == [8 * 2 ** i for i in range(len(precs))]


def test_an_interval_that_holds_no_integer_fails_closed(monkeypatch):
    # D_10 = 66; with the prime 11 dropped, |B_10| 6 = 5/11 is no integer,
    # so once the interval is narrow it holds none, which correct bounds
    # never give: the call raises instead of doubling the precision
    monkeypatch.setattr(sequences, "_TANGENT", sequences._ZigzagList())
    monkeypatch.setattr(sequences, "_staudt_denominator", lambda n: 6)
    bernoulli_number.cache_clear()
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"^no integer in \[1, 0\] at \d+ bits"):
        bernoulli_number(10)
    assert time.perf_counter() - start < 1


def test_appell_polynomials_grow_the_list_and_pin_no_weight(monkeypatch):
    def refused(*args):
        raise AssertionError("an Appell polynomial pinned one of its weights")

    want = {(kind, n): number_polynomial(kind, n)
            for kind in ("bernoulli", "euler", "genocchi") for n in (200, 201)}
    monkeypatch.setattr(sequences, "_TANGENT", sequences._ZigzagList())
    monkeypatch.setattr(sequences, "_pinned", refused)
    for fn in (bernoulli_number, euler_number, genocchi_number, sequences._appell,
               sequences._WEIGHTS["euler_poly"]):
        fn.cache_clear()
    for (kind, n), poly in want.items():
        assert number_polynomial(kind, n) == poly, (kind, n)
    # E_201(x) reads G_202, so the list holds T_101; it grew by doubling
    # from T_100, and no further
    assert 101 <= len(sequences._TANGENT.values) <= 202


def _reference_pi_scaled(prec):
    """floor(pi 2^prec) from 120 decimal digits of pi by the decimal
    module's own series (its documentation's recipe), not Machin's."""
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = 125
        three = decimal.Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
        return int(s * 2 ** prec)


def test_pi_bounds_hold_pi_and_its_error_bounds_the_sum(monkeypatch):
    monkeypatch.setattr(sequences, "_PI", [0, 0, 0])
    for prec in range(1, 361):
        lo, hi = sequences._pi_bounds(prec)
        assert lo <= _reference_pi_scaled(prec) < hi <= lo + 4, prec
        # the kept sum is within its stated error of pi at its own precision
        wide, value, error = sequences._PI
        assert abs(value - _reference_pi_scaled(wide)) < error, prec
