"""The generic ring's elements, held in Sig = u + v and D = u - v.

A :class:`LetterElem` stands for a polynomial in the letters x1 = u and
x2 = v.  Every operation on it must give the element of that polynomial's
result, and everything read out of it (equality with a polynomial, hash,
string, terms, substitution) must be the polynomial's own.
"""

import random
from fractions import Fraction

import pytest

from convcheck.arith import MultiPoly, ProductSum
from convcheck.identities import Context, get_record, run_record, substitute_value
from convcheck.identities.core import LetterElem

X1, X2, X = MultiPoly.var("x1"), MultiPoly.var("x2"), MultiPoly.var("x")


def random_poly(rng):
    """A polynomial in x1, x2 and x with up to five rational terms."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exp = (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 2), 0, 0)
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return MultiPoly(terms)


def pairs(count=80):
    rng = random.Random(2024)
    for _ in range(count):
        p, q = random_poly(rng), random_poly(rng)
        s = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        yield p, q, s, rng


def same(elem, poly):
    """elem is a LetterElem equal to poly, read either way round."""
    assert type(elem) is LetterElem
    assert elem == poly and poly == elem and not elem != poly
    assert elem.as_poly() == poly
    return True


def test_arithmetic_matches_the_polynomials_in_the_letters():
    for p, q, s, _ in pairs():
        a, b = LetterElem.of(p), LetterElem.of(q)
        assert same(a, p) and same(b, q)
        assert same(a + b, p + q) and same(a - b, p - q) and same(a * b, p * q)
        assert same(-a, -p)
        for e in range(4):
            assert same(a ** e, p ** e)
        assert same(s * a, s * p) and same(a * s, p * s) and same(a / s, p / s)
        assert same(a + s, p + s) and same(s + a, s + p)
        assert same(a - s, p - s) and same(s - a, s - p)
        assert same(3 * a, 3 * p) and same(a / 3, p / 3)
        # a polynomial operand is read in the letters, on either side
        assert same(a + q, p + q) and same(q + a, q + p)
        assert same(a - q, p - q) and same(q - a, q - p)
        assert same(a * q, p * q) and same(q * a, q * p)
        assert bool(a) == bool(p) and a.is_zero() == p.is_zero()
        assert (a == b) == (p == q)
        assert (a == s) == (p == s)


def test_equal_values_hash_equal():
    for p, q, _, _ in pairs():
        a = LetterElem.of(p)
        assert hash(a) == hash(p)
        # built another way round, through the Sig/D coordinates
        twin = LetterElem.of(p + q) - LetterElem.of(q)
        assert twin == a and hash(twin) == hash(a)
        assert {p: "found"}[a] == "found" and {a: "found"}[p] == "found"
    five = LetterElem.of(5)
    assert five == 5 and hash(five) == hash(5) == hash(MultiPoly.constant(5))
    zero = LetterElem.of(MultiPoly())
    assert zero == 0 and not zero and hash(zero) == hash(0)


def test_printed_form_and_substitution_match():
    for p, q, s, rng in pairs():
        a = LetterElem.of(p)
        assert str(a) == str(p) and repr(a) == f"LetterElem({p})"
        assert a.terms == p.terms
        for bindings in ({"x1": q, "x": s}, {"x2": X1}, {"x1": X2, "x2": X1},
                         {"x": rng.randint(-2, 2), "y": 2}, {}):
            got = a.substitute(bindings)
            assert type(got) is MultiPoly and got == p.substitute(bindings)
            assert substitute_value(a, bindings) == got


def test_a_letter_power_is_one_sided_in_sig_and_d():
    ctx = Context("indeterminate")
    assert same(ctx.u, X1) and same(ctx.v, X2)
    assert same(ctx.Sig, X1 + X2) and same(ctx.D, X1 - X2) and same(ctx.Prod, X1 * X2)
    for n in range(12):
        # u^n = ((Sig + D)/2)^n is n+1 terms in Sig and D, and one in the letters
        power = ctx.power(ctx.u, n)
        assert same(power, X1 ** n) and len(power.poly.terms) == n + 1
        assert same(ctx.power(ctx.v, n), X2 ** n)
        # D^n is one term in Sig and D, n+1 in the letters
        assert len(ctx.power(ctx.D, n).poly.terms) == 1
        assert same(ctx.power(ctx.D, n), (X1 - X2) ** n)


def test_embedding_reads_a_polynomial_in_the_letters():
    ctx = Context("indeterminate")
    assert same(ctx.embed(X1 * X), X1 * X) and ctx.embed(X1 * X) == ctx.u * ctx.x
    assert same(ctx.embed(Fraction(2, 3)), MultiPoly.constant(Fraction(2, 3)))
    assert ctx.embed(ctx.u) is ctx.u
    # a power of a polynomial base is the power of its element
    assert ctx.power(X1 + X2, 3) is ctx.power(ctx.Sig, 3)
    with pytest.raises(TypeError):
        ctx.u / ctx.v


def test_t4_to_32_forms_few_coefficient_products(monkeypatch):
    # in Sig and D the factor D^(n-k) is one term and (Sig + xD)^(n-1)
    # n terms; over the letters x1, x2 these sums formed 540,578 products
    products = 0
    add = ProductSum.add

    def counted(self, num, den, p, q):
        nonlocal products
        if num:
            products += len(p.terms) * len(q.terms)
        add(self, num, den, p, q)

    monkeypatch.setattr(ProductSum, "add", counted)
    ctx = Context("indeterminate")
    for key in ("T4.1:as_printed", "T4.2:as_printed", "T4.3:as_printed"):
        assert all(v.passed for v in run_record(get_record(key), (0, 32), ctx))
    assert 0 < products <= 100_000
