"""Polynomial ring core: arithmetic laws, canonical form, printing."""

import math
import random

import pytest

from convcheck import arith
from convcheck._scalar import Rational, as_rational
from convcheck.arith import (
    MAX_EXP, MultiPoly, ProductSum, VARIABLES, ZERO_EXP, binomial, format_poly, variable,
)

x1 = MultiPoly.var("x1")
x2 = MultiPoly.var("x2")
x = MultiPoly.var("x")
y = MultiPoly.var("y")
t = MultiPoly.var("t")


def sample_polys(count=12, seed=20260816):
    """Small deterministic stock of polynomials, mixed signs and denominators."""
    rng = random.Random(seed)
    vars_ = [MultiPoly.var(name) for name in VARIABLES]
    out = [MultiPoly.constant(0), MultiPoly.constant(1), MultiPoly.constant(-3)]
    while len(out) < count:
        p = MultiPoly.constant(0)
        for _ in range(rng.randrange(1, 5)):
            term = MultiPoly.constant(Rational(rng.randrange(-9, 10), rng.randrange(1, 7)))
            for _ in range(rng.randrange(0, 3)):
                term = term * rng.choice(vars_)
            p = p + term
        out.append(p)
    return out


POLYS = sample_polys()


def test_ring_axioms_on_sample():
    for a in POLYS:
        for b in POLYS:
            assert a + b == b + a
            assert a * b == b * a
            assert a - b == -(b - a)
    for a in POLYS[:6]:
        for b in POLYS[:6]:
            for c in POLYS[:6]:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_neutral_elements_and_scalars():
    zero = MultiPoly.constant(0)
    one = MultiPoly.constant(1)
    for a in POLYS:
        assert a + zero == a
        assert a * one == a
        assert a * zero == zero
        assert a + 0 == a and 0 + a == a
        assert 2 * a == a + a
        assert a - a == zero
        assert bool(a - a) is False


def test_pow_matches_repeated_multiplication():
    for a in POLYS[:8]:
        acc = MultiPoly.constant(1)
        for e in range(6):
            assert a ** e == acc
            acc = acc * a
    with pytest.raises(ValueError):
        (x1 + x2) ** -1


def test_constant_detection_and_value():
    assert MultiPoly.constant(Rational(7, 2)).constant_value() == Rational(7, 2)
    assert MultiPoly.constant(0).is_constant()
    assert (x1 * 0).is_zero()
    assert not (x1 + 1).is_constant()
    with pytest.raises(ValueError):
        (x1 + 1).constant_value()


def test_substitute_is_simultaneous():
    p = x1 ** 2 - x2 ** 2
    swapped = p.substitute({"x1": x2, "x2": x1})
    assert swapped == x2 ** 2 - x1 ** 2
    # chained (non-simultaneous) substitution would have collapsed this to 0
    assert swapped != p or p.is_zero()


def test_substitute_scalars_and_unbound_vars():
    p = y ** 2 + 2 * t
    assert p.substitute({"y": 1, "t": 1}) == MultiPoly.constant(3)
    assert p.substitute({"y": Rational(1, 2)}) == MultiPoly.constant(Rational(1, 4)) + 2 * t
    assert p.substitute({}) == p


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        MultiPoly.var("z")
    with pytest.raises(ValueError):
        variable("w")
    # a substitution checks its bindings, also on the zero polynomial
    for p in (x1 + y / 2, MultiPoly(), MultiPoly.constant(0)):
        for bindings in ({"z": 1}, {"y": 1, "z": x1}, {"x1": x2, "X": Rational(1, 2)}):
            with pytest.raises(ValueError, match="unknown variable"):
                p.substitute(bindings)


# -- printing conventions -------------------------------------------------

def test_format_zero_one_and_fractions():
    assert str(MultiPoly.constant(0)) == "0"
    assert str(MultiPoly.constant(1)) == "1"
    assert str(MultiPoly.constant(Rational(-691, 2730))) == "-691/2730"


def test_format_no_plus_minus_runs():
    p = x ** 2 - x + MultiPoly.constant(Rational(1, 6))
    s = format_poly(p)
    assert s == "x^2 - x + 1/6"
    assert "+ -" not in s and "- -" not in s


def test_format_variable_order_and_degree_sort():
    # higher total degree first; ties broken by the fixed variable order
    p = x1 * x2 + x1 ** 2 + x2 ** 2 + x1 + 1
    assert str(p) == "x1^2 + x1*x2 + x2^2 + x1 + 1"
    q = 2 * y * t + y ** 3
    assert str(q) == "y^3 + 2*y*t"


def test_format_unit_coefficients_suppressed():
    assert str(-x1) == "-x1"
    assert str(x1 - x2) == "x1 - x2"
    assert str(3 * x1 * t ** 2) == "3*x1*t^2"


def test_str_round_trip_stability():
    for p in POLYS:
        assert str(p) == str(p + MultiPoly.constant(0))


# -- binomial helper -------------------------------------------------------

def test_binomial_against_math_comb():
    for n in range(0, 25):
        for k in range(-2, n + 3):
            expected = math.comb(n, k) if 0 <= k <= n else 0
            assert binomial(n, k) == expected


def test_as_rational_accepts_strings():
    assert as_rational("3/2") == Rational(3, 2)
    assert as_rational(-2) == Rational(-2)
    with pytest.raises(TypeError):
        as_rational(object())


# -- kernel against a dict-of-Fraction reference ----------------------------

def _canonical(p):
    """Assert the stored form is canonical and return p."""
    assert p._den > 0
    assert 0 not in p._terms.values()
    if p._terms:
        assert math.gcd(p._den, *p._terms.values()) == 1
    else:
        assert p._den == 1
    return p


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_pow(a, n):
    out = {ZERO_EXP: Rational(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_substitute(a, bindings):
    index = {name: i for i, name in enumerate(VARIABLES)}
    subs = {index[name]: value for name, value in bindings.items()}
    total = {}
    for exp, c in a.items():
        term = {tuple(0 if i in subs else e for i, e in enumerate(exp)): c}
        for i, e in enumerate(exp):
            if e and i in subs:
                term = _ref_mul(term, _ref_pow(subs[i], e))
        total = _ref_add(total, term)
    return total


def _random_terms(rng, max_terms=5, max_deg=3):
    """Non-zero terms whose coefficients have denominators sharing factors
    with each other and with their numerators."""
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        exp = [0] * len(VARIABLES)
        for _ in range(rng.randrange(0, max_deg + 1)):
            exp[rng.randrange(len(VARIABLES))] += 1
        terms[tuple(exp)] = Rational(rng.randrange(-12, 13), rng.choice((1, 2, 3, 4, 6, 9, 12)))
    return {e: c for e, c in terms.items() if c}


def test_kernel_matches_fraction_reference():
    zero = MultiPoly.constant(0)
    p = x1 / 2 + Rational(1, 3)
    for z in [zero * Rational(1, 2), MultiPoly() * Rational(1, 2), zero * p, p * 0,
              p * Rational(0), p - p, MultiPoly({ZERO_EXP: 0}),
              (x1 - x2).substitute({"x1": x2}), x1.substitute({"x1": 0})]:
        assert _canonical(z).is_zero()
        assert z == zero and z == 0 and str(z) == "0"
    rng = random.Random(20261017)
    for _ in range(150):
        rp, rq = _random_terms(rng), _random_terms(rng)
        p, q = MultiPoly(rp), MultiPoly(rq)
        s = Rational(rng.randrange(-6, 7), rng.randrange(1, 9))
        for got, want in [
            (p + q, _ref_add(rp, rq)),
            (p - q, _ref_add(rp, rq, -1)),
            (p - p, {}),
            ((p + q) - q - p, {}),
            (p * q, _ref_mul(rp, rq)),
            (p * s, {e: c * s for e, c in rp.items() if c * s}),
            (s * p, {e: c * s for e, c in rp.items() if c * s}),
            (p + s, _ref_add(rp, {ZERO_EXP: s} if s else {})),
            (p ** 3, _ref_pow(rp, 3)),
            (0 * p, {}),
            (p * 0, {}),
            (p * zero, {}),
        ]:
            assert _canonical(got).terms == want
        if s:
            assert _canonical(p / s).terms == {e: c / s for e, c in rp.items()}
        assert (p * q == q * p) and (p + q == q + p)
        bindings = rng.choice([
            {"y": Rational(1, 2), "t": 3},
            {"x1": Rational(-2, 3)},
            {"x1": x2 - x, "t": y * y / 2},
            {"x1": x2 + Rational(1, 3)},
            {"x1": x2, "x2": x1},
            {"y": 0},
            {"x": q},
        ])
        assert _canonical(p.substitute(bindings)).terms == _ref_substitute(rp, _ref_bindings(bindings))


def _ref_bindings(bindings):
    return {name: v.terms if isinstance(v, MultiPoly) else {ZERO_EXP: Rational(v)} if v else {}
            for name, v in bindings.items()}


def test_substitution_by_scalars_matches_the_reference():
    # a scalar binding puts every term over den^top through a cached row
    # of num^e*den^(top-e), one row per (num, den, top)
    y_, t_ = Rational(-7, 9), Rational(3, 4)
    low = {(0, 0, 1, 2, 0): Rational(5, 6), (0, 0, 0, 1, 1): Rational(-4, 3),
           (0, 0, 0, 0, 0): Rational(2)}
    high = {(0, 0, 0, 6, 0): Rational(1, 5), (0, 0, 2, 5, 1): Rational(-9, 2),
            (0, 0, 0, 1, 3): Rational(3), (0, 1, 0, 0, 0): Rational(7, 4)}
    cases = [
        (low, {"y": y_, "t": t_}),
        # a higher top at the same point: the short row above must not serve it
        (high, {"y": y_, "t": t_}),
        (low, {"y": y_, "t": t_}),
        (high, {"y": Rational(-14, 3), "t": Rational(-5, 2)}),
        (high, {"y": y_}),
        (high, {"t": t_}),
        (low, {"y": 0, "t": t_}),
        (high, {"t": 0}),
        (high, {"y": 0, "t": 0}),
        (low, {"y": Rational(2, 3), "x1": x2 - x}),
        (high, {"y": Rational(2, 3), "x1": x2 - x}),
        (high, {"x1": Rational(-5, 8), "y": y_, "t": 1}),
    ]
    rng = random.Random(20261018)
    for _ in range(40):
        terms = _random_terms(rng, max_terms=6, max_deg=7)
        point = rng.choice([{"y": y_, "t": t_}, {"y": Rational(-7, 9)},
                            {"y": Rational(2, 3), "x1": x2 - x}, {"t": 0, "x": Rational(6, 5)}])
        cases.append((terms, point))
    for terms, bindings in cases:
        got = _canonical(MultiPoly(terms).substitute(bindings))
        assert got.terms == _ref_substitute(terms, _ref_bindings(bindings)), (terms, bindings)


def test_one_pass_substitution_rescales_part_way_through():
    # the terms come in dict order: a term with no bound variable goes in
    # over denominator 1, then each polynomial factor's denominator (3,
    # 10, 90, 1000) stops dividing the running one and rescales the
    # accumulator, with the terms already in it
    terms = {(0, 0, 0, 0, 1): Rational(7, 2), (1, 0, 0, 0, 0): Rational(-5, 6),
             (0, 0, 0, 1, 0): Rational(3), (0, 0, 1, 0, 0): Rational(1, 4),
             (2, 0, 0, 1, 0): Rational(2, 9), (0, 0, 0, 3, 0): Rational(-1, 7),
             (1, 1, 0, 2, 1): Rational(11, 12)}
    for bindings in (
        {"x1": x2 / 3 + 1, "y": x / 5 - Rational(1, 2)},
        {"y": x / 5 - Rational(1, 2), "x1": x2 / 3 + 1},
        {"x1": x2 / 3 + 1, "y": x / 5 - Rational(1, 2), "t": Rational(-3, 4)},
        {"t": Rational(5, 8), "y": x1 - Rational(1, 3) * x2, "x1": 0},
    ):
        got = _canonical(MultiPoly(terms).substitute(bindings))
        assert got.terms == _ref_substitute(terms, _ref_bindings(bindings)), bindings


def test_a_constant_binding_is_its_scalar():
    p = MultiPoly({(1, 0, 0, 2, 0): Rational(5, 6), (0, 0, 0, 1, 1): Rational(-4, 3),
                   (0, 0, 0, 0, 0): Rational(2)})
    for value in (Rational(3, 4), Rational(-7, 9), 0, 5):
        want = _canonical(p.substitute({"y": value, "x1": x2 - x}))
        got = _canonical(p.substitute({"y": MultiPoly.constant(value), "x1": x2 - x}))
        assert (got._den, got._terms) == (want._den, want._terms)
        assert got.terms == _ref_substitute(p.terms, _ref_bindings({"y": value, "x1": x2 - x}))


def test_a_binding_to_a_scalar_times_one_variable_forms_no_product(monkeypatch):
    # y -> x1/6, x1 -> 6y, a swap of the letters, x -> -x: each scales the
    # term and moves its exponent, with no product, and gives the image of
    # the general route, which multiplies by the binding's powers
    count = [0]
    add = ProductSum.add

    def counted(self, num, den, p, q):
        count[0] += len(p._terms) * len(q._terms)
        add(self, num, den, p, q)

    monkeypatch.setattr(ProductSum, "add", counted)
    rng = random.Random(20261020)
    cases = [{"y": x1 / 6}, {"x1": 6 * y}, {"x1": x2, "x2": x1}, {"x": -x},
             {"x1": 6 * y, "y": Rational(2, 3)}, {"y": Rational(-3, 4) * t, "t": y},
             {"x2": x2 / 2, "x1": x, "t": 5}]
    for _ in range(60):
        terms = _random_terms(rng, max_terms=6, max_deg=6)
        p = MultiPoly(terms)
        for bindings in cases:
            arith._powers.cache_clear()
            count[0] = 0
            got = p.substitute(bindings)
            assert count[0] == 0, bindings
            scalars, polys = arith._bind(bindings)
            moved = [(i, bindings[VARIABLES[i]]) for i, _, _, to in scalars if to]
            assert moved and not polys
            kept = [row for row in scalars if not row[3]]
            assert got == arith._substitute(p, kept, moved)[0]
            assert _canonical(got).terms == _ref_substitute(terms, _ref_bindings(bindings))


def _product_sum(triples):
    """Σ s*p*q formed in one ProductSum, the triples added as they come."""
    acc = ProductSum()
    for s, p, q in triples:
        s = as_rational(s)
        acc.add(s.numerator, s.denominator, p, q)
    return acc.value()


def _fold(triples):
    """Σ s*p*q formed one product and one sum at a time."""
    total = MultiPoly.constant(0)
    for s, p, q in triples:
        total = total + s * p * q
    return total


def test_sum_of_products_matches_the_fold():
    zero = MultiPoly.constant(0)
    empty = _product_sum([])
    assert _canonical(empty).is_zero() and empty == zero
    assert _canonical(_product_sum([(0, x1 + 1, x2), (3, zero, x1), (2, x, zero)])) == 0
    # products that cancel leave canonical zero, not a term with numerator 0
    assert _canonical(_product_sum([(1, x1, x2), (-1, x2, x1)])) == 0
    rng = random.Random(20261018)
    for _ in range(60):
        triples = []
        for _ in range(rng.randrange(1, 7)):
            s = rng.choice([0, 1, rng.randrange(-40, 41),
                            Rational(rng.randrange(-9, 10), rng.choice((1, 2, 3, 5, 6, 12)))])
            p, q = (MultiPoly(_random_terms(rng)) for _ in range(2))
            triples.append((s, p, q))
        want = _fold(triples)
        got = _product_sum(iter(triples))
        assert _canonical(got) == want
        assert got._den == want._den and got.terms == want.terms


def test_product_sum_rescales_only_to_the_common_denominator():
    acc = ProductSum()
    acc.add(1, 2, x1, x2)
    acc.add(1, 3, x1 / 2, x2)
    acc.add(5, 1, x / 6, y / 4)
    assert acc._den == 24
    assert _canonical(acc.value()) == Rational(2, 3) * x1 * x2 + Rational(5, 24) * x * y
    # value() hands over the terms and leaves the accumulator empty
    assert acc.value() == 0


def test_substitution_forms_its_products_in_the_product_sum(monkeypatch):
    # every coefficient product of a substitution, each term's image
    # times its bindings' powers, is counted in ProductSum.add; the
    # powers are the binomial theorem on the binding's leading term, and
    # form none
    counted = []
    add = ProductSum.add

    def counting_add(self, num, den, p, q):
        counted.append(len(p.terms) * len(q.terms))
        return add(self, num, den, p, q)

    monkeypatch.setattr(ProductSum, "add", counting_add)
    p = x1 ** 2 * y + 3 * x1 * t + y + Rational(1, 2)
    arith._powers.cache_clear()
    counted.clear()
    got = p.substitute({"x1": x + t, "y": 2})
    # 2·(x+t)^2 and 3t·(x+t): 1·3 and 1·2
    assert sorted(counted) == [2, 3]
    assert got == 2 * (x + t) ** 2 + 3 * t * (x + t) + Rational(5, 2)
    # a second substitution by x + t reuses its powers
    square = arith._powers(x + t)[2]
    counted.clear()
    assert p.substitute({"x1": x + t, "y": 2}) == got
    assert sorted(counted) == [2, 3] and arith._powers(x + t)[2] is square


def test_a_polynomial_reading_no_bound_variable_is_its_own_image(monkeypatch):
    # a binding of a variable the polynomial does not read is dropped, so
    # a polynomial that reads none is returned as it is, with no product
    p, q, want = x ** 3 - Rational(1, 2) * x + 1, x1 * x + y, (y + 1) * x + y
    bound = ({"x1": (x1 + x2) / 2, "x2": (x1 - x2) / 2}, {"y": 3, "t": y * y}, {"x1": 0},
             {"x1": y + 1, "x2": t * t, "t": 2})
    counted = []
    add = ProductSum.add
    monkeypatch.setattr(ProductSum, "add", lambda self, *args: counted.append(args) or add(self, *args))
    for bindings in bound[:3]:
        assert p.substitute(bindings) is p
    assert counted == []
    # x1 is read and x2 and t are not: one product, of x by y + 1
    assert q.substitute(bound[3]) == want and len(counted) == 1


# -- packed exponent bound ----------------------------------------------------

def test_monomial_at_the_bound():
    top = MultiPoly({(0, 0, 0, 0, MAX_EXP): Rational(1, 2)})
    assert str(top) == f"1/2*t^{MAX_EXP}"
    assert top.total_degree() == MAX_EXP
    assert top.coeff((0, 0, 0, 0, MAX_EXP)) == Rational(1, 2)
    assert top.coeff((0, 0, 0, 1, 0)) == 0
    # a monomial no polynomial can hold has coefficient 0
    # (a negative exponent packs to a negative key, which no term has)
    for exp in ((0, 0, 0, 0, MAX_EXP + 1), (0, 0, 0, -1, MAX_EXP + 1), (-1, 0, 0, 0, 0), (0, 0, 0, 0),
                (-1, 2, 0, 0, 0), (70000, -5000, 0, 0, 0)):
        assert top.coeff(exp) == 0 and (top + 3).coeff(exp) == 0
    assert str(x1 ** MAX_EXP) == f"x1^{MAX_EXP}"
    assert (t ** MAX_EXP * 2).terms == {(0, 0, 0, 0, MAX_EXP): 2}
    assert (x1 * t ** (MAX_EXP - 1)).substitute({"x1": y}).terms == {(0, 0, 0, 1, MAX_EXP - 1): 1}


def test_crossing_the_bound_raises():
    over = MAX_EXP + 1
    attempts = [
        lambda: MultiPoly({(0, 0, 0, 0, over): 1}),
        lambda: MultiPoly({(0, 0, 0, 1, MAX_EXP): 1}),
        lambda: t ** MAX_EXP * t,
        lambda: t * t ** MAX_EXP,
        lambda: (x1 ** MAX_EXP) * x2,
        lambda: t ** over,
        lambda: (x1 * t) ** (MAX_EXP // 2 + 1),
        lambda: (t ** MAX_EXP).substitute({"t": t * t}),
        lambda: (x1 * t ** (MAX_EXP - 1)).substitute({"x1": t * t}),
    ]
    for attempt in attempts:
        with pytest.raises(OverflowError) as err:
            attempt()
        assert "\n" not in str(err.value) and str(MAX_EXP) in str(err.value)


def test_a_substitution_result_bounds_its_degree():
    # the guard reads a result's degree bound, so a bound below the true
    # degree would let a later product carry into a neighbour field
    rng = random.Random(20261020)
    points = [{"y": Rational(-2, 3)}, {"x1": 1, "t": Rational(5, 7)}, {"x": x2 - 1},
              {"y": t * t, "x1": Rational(1, 2)}, {"x2": 0}]
    for p in POLYS + [MultiPoly(_random_terms(rng, max_terms=6, max_deg=7)) for _ in range(20)]:
        for bindings in points:
            got = p.substitute(bindings)
            assert got._deg >= got.total_degree(), (p, bindings)
    high = (x ** 40000 * y).substitute({"y": 1})
    assert high._deg >= 40000
    with pytest.raises(OverflowError):
        high * x ** 30000
    # a binding's power past the bound is refused before any is formed
    square = x * x
    formed = len(arith._powers(square))
    with pytest.raises(OverflowError):
        (x ** 40000).substitute({"x": square})
    assert len(arith._powers(square)) == formed


def test_dividing_by_what_is_not_a_scalar_is_refused():
    # a polynomial divides only by a non-zero scalar; anything else is
    # left to the other operand, and then refused
    for other in ("2", x, None, [1]):
        with pytest.raises(TypeError):
            x1 / other
        assert x1.__truediv__(other) is NotImplemented
    with pytest.raises(ZeroDivisionError):
        x1 / 0


def test_total_degree_exact_after_cancellation():
    assert (x1 ** 3 - x1 ** 3 + y).total_degree() == 1
    assert (x1 ** 3 + y - x1 ** 3).total_degree() == 1
    # the guard's bound is MAX_EXP here, but the exact degree is 1
    p = t ** MAX_EXP + y - t ** MAX_EXP
    assert p.total_degree() == 1
    assert p * y == y ** 2 and p ** 3 == y ** 3
    assert (p * x1).substitute({"y": t ** (MAX_EXP - 1)}) == x1 * t ** (MAX_EXP - 1)


def test_a_one_term_operand_multiplies_as_the_product_sum_does():
    # zero, a scalar and a rational monomial take __mul__'s one-term
    # route, a key shift; ProductSum.add is the route of every other
    rng = random.Random(20261021)
    ones = [MultiPoly.constant(0), MultiPoly.constant(1), MultiPoly.constant(Rational(-4, 9)),
            MultiPoly({(1, 0, 2, 0, 0): Rational(3, 10)}), MultiPoly({(0, 0, 0, 0, 5): -7})]
    others = POLYS + [MultiPoly(_random_terms(rng, max_terms=6, max_deg=7)) for _ in range(10)]
    for p in others:
        for m in ones:
            got = p * m
            assert got == m * p == _product_sum([(1, m, p)])
            assert got._deg >= got.total_degree()
        for scalar in (0, 1, -3, Rational(5, 6)):
            assert p * scalar == scalar * p == _product_sum([(scalar, p, MultiPoly.constant(1))])
    # a product past the bound is refused, a monomial's as any other's
    half = MultiPoly({(0, 0, 0, 0, 30000): Rational(1, 2)})
    for attempt in (lambda: x ** 40000 * half, lambda: half * x ** 40000,
                    lambda: t ** MAX_EXP * x):
        with pytest.raises(OverflowError) as err:
            attempt()
        assert str(MAX_EXP) in str(err.value)
    # the operands' bounds overshoot, their exact degrees do not
    low = t ** MAX_EXP + y - t ** MAX_EXP
    assert low * t ** (MAX_EXP - 1) == y * t ** (MAX_EXP - 1)


def test_sum_of_products_degree_guard():
    # the bounds add up past MAX_EXP, the exact degrees do not
    low = t ** MAX_EXP + y - t ** MAX_EXP
    top = t ** (MAX_EXP - 1)
    got = _product_sum([(1, low, top), (Rational(1, 2), x1, top), (3, low, low)])
    assert got.terms == {(0, 0, 0, 1, MAX_EXP - 1): 1, (1, 0, 0, 0, MAX_EXP - 1): Rational(1, 2),
                         (0, 0, 0, 2, 0): 3}
    assert got.total_degree() == MAX_EXP
    # an exact degree past MAX_EXP is refused, wherever it comes in the sum,
    # before its key could carry the t field into the y field
    for triples in ([(1, t ** MAX_EXP, t)],
                    [(1, x1, x2), (2, top, t * t), (1, y, y)],
                    [(Rational(1, 3), t, t ** MAX_EXP), (1, low, top)]):
        with pytest.raises(OverflowError) as err:
            _product_sum(triples)
        assert str(MAX_EXP) in str(err.value)
    # an exact degree of MAX_EXP in every field stays in its field
    one = MultiPoly.constant(1)
    corner = _product_sum([(1, t ** (MAX_EXP - 1), t), (1, y ** MAX_EXP, one)])
    assert corner.terms == {(0, 0, 0, 0, MAX_EXP): 1, (0, 0, 0, MAX_EXP, 0): 1}


def test_constructor_rejects_a_non_mapping():
    for bad in (5, 0, [(ZERO_EXP, 1)]):
        with pytest.raises(TypeError) as info:
            MultiPoly(bad)
        assert len(str(info.value).splitlines()) == 1
    assert MultiPoly().is_zero()


def test_equal_values_hash_equal():
    # a constant polynomial equals its scalar and a root-ring element with
    # no sqrt part equals its polynomial; each must land in the same set
    # slot, since Context.power keys its cache on these hashes
    from convcheck.identities import Context

    assert len({MultiPoly.constant(2), 2}) == 1
    assert len({MultiPoly.constant(Rational(1, 2)), Rational(1, 2)}) == 1
    ctx = Context("fibonacci-roots")
    y = MultiPoly.var("y")
    assert len({ctx.embed(y), y}) == 1
    assert ctx.power(ctx.embed(y), 3) is ctx.power(y, 3)


@pytest.mark.parametrize("name", VARIABLES)
def test_even_and_odd_halves_rebuild_the_polynomial(name):
    # a substitution split by the parity of v's exponent, with v^2 bound
    # to v itself, gives the halves E, O of p = E(v^2) + v*O(v^2)
    v = MultiPoly.var(name)
    i = VARIABLES.index(name)
    others = [n for n in VARIABLES if n != name]
    bindings = {others[0]: Rational(-2, 3), others[1]: v + x1 * 2, others[2]: MultiPoly.constant(3)}
    for p in POLYS + [p * v ** 3 + v ** 4 for p in POLYS]:
        even, odd = arith._substitute(p, [], [], (i, v, 1))
        square = {name: v * v}
        assert even.substitute(square) + v * odd.substitute(square) == p
        assert even.degree_in(name) <= p.degree_in(name) // 2
        assert p.degree_in(name) == max((exp[VARIABLES.index(name)] for exp in p.terms), default=0)
        # v^2 bound to a scalar or a polynomial, with other bindings in
        # the same pass: the halves with everything substituted at once
        for sq in (MultiPoly.constant(Rational(-5, 4)), MultiPoly.constant(0), y * t - 1):
            for bound in ({}, bindings):
                got = arith._substitute(p, *arith._bind(bound), (i, sq, Rational(-3, 2)))
                want = [even.substitute({**bound, name: sq}),
                        odd.substitute({**bound, name: sq}) * Rational(-3, 2)]
                assert got == want
                assert all(half._deg >= half.total_degree() for half in got)
    with pytest.raises(ValueError):
        x.substitute({"z": x})

