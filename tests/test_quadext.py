"""Quadratic extension ring and the two built-in root pairs."""

import math
import random

import pytest

from convcheck._scalar import Rational
from convcheck.arith import MultiPoly
from convcheck.quadext import (
    FAMILIES,
    Discriminant,
    QuadExtElem,
    make_root_pair,
    qe_binet_ratio,
)
from convcheck.sequences import bivariate_sequence

y = MultiPoly.var("y")
t = MultiPoly.var("t")
x = MultiPoly.var("x")


def _canonical(elem):
    for part in (elem.a, elem.b):
        assert part._den > 0 and 0 not in part._terms.values()
        assert math.gcd(part._den, *part._terms.values()) == 1
    return elem


def _random_elements(rng, disc, count):
    """Elements with a = 0 parts, b = 0 parts, both and neither."""
    def part():
        p = MultiPoly.constant(0)
        for _ in range(rng.randrange(0, 4)):
            p = p + Rational(rng.randrange(-9, 10), rng.choice((1, 2, 3, 4))) * rng.choice(
                (MultiPoly.constant(1), x, y, t, y * t, x * x))
        return p

    zero = MultiPoly.constant(0)
    out = []
    for _ in range(count):
        shape = rng.randrange(4)
        out.append(QuadExtElem(zero if shape == 1 else part(), zero if shape == 2 else part(), disc))
    return out


def _full_product(p, q):
    """(a1 + b1*r)(a2 + b2*r), every part product formed."""
    d = p.disc.poly
    return QuadExtElem(p.a * q.a + p.b * q.b * d, p.a * q.b + p.b * q.a, p.disc)


def sum_of_products(triples, disc):
    """Σ s·p·q over an iterable of (scalar s, element p, element q) of
    the extension by sqrt(d), d = ``disc.poly``, folded with ``*`` and
    ``+``, whose coercions reject an element of another discriminant.
    The root rings compute in x, y and D instead; their tests take this
    as the reference."""
    total = QuadExtElem(0, 0, disc)
    for s, p, q in triples:
        total = total + p * q * s
    return total


def test_norm_via_conjugate():
    pair = make_root_pair("fibonacci")
    u = QuadExtElem(y, t + 1, pair.disc)
    prod = u * u.conjugate()
    assert prod.b.is_zero()
    assert prod.a == y * y - (t + 1) ** 2 * pair.disc.poly


def test_pow_matches_repeated_multiplication():
    pair = make_root_pair("balancing")
    u = QuadExtElem(1, y, pair.disc)
    acc = QuadExtElem(1, 0, pair.disc)
    for e in range(7):
        assert u ** e == acc
        acc = acc * u
    with pytest.raises(ValueError):
        u ** -2


def test_mixed_discriminants_rejected():
    fib = make_root_pair("fibonacci")
    bal = make_root_pair("balancing")
    with pytest.raises(ValueError):
        fib.lam1 * bal.lam1
    with pytest.raises(ValueError):
        fib.lam1 + bal.lam2


def test_root_pairs_satisfy_their_quadratics():
    for family in FAMILIES:
        pair = make_root_pair(family)
        for lam in (pair.lam1, pair.lam2):
            # X^2 - trace*X + norm = 0
            assert (lam * lam - pair.trace * lam + pair.norm).is_zero()
        assert pair.lam1 + pair.lam2 == pair.trace
        prod = pair.lam1 * pair.lam2
        assert prod.b.is_zero() and prod.a == pair.norm


def test_root_difference_scale():
    for family in FAMILIES:
        pair = make_root_pair(family)
        diff = pair.lam1 - pair.lam2
        assert diff.a.is_zero()
        assert diff.b == MultiPoly.constant(pair.diff_scale)


def test_binet_ratio_reproduces_recurrences():
    fib = make_root_pair("fibonacci")
    bal = make_root_pair("balancing")
    for n in range(0, 25):
        assert qe_binet_ratio(fib, n) == bivariate_sequence("fibonacci", n)
        assert qe_binet_ratio(bal, n) == bivariate_sequence("balancing", n)


def test_rational_part_reproduces_trace_sequences():
    fib = make_root_pair("fibonacci")
    bal = make_root_pair("balancing")
    for n in range(0, 25):
        lucas = 2 * (fib.lam1 ** n).a
        assert lucas == bivariate_sequence("lucas", n)
        lucas_bal = (bal.lam1 ** n).a
        assert lucas_bal == bivariate_sequence("lucas_balancing", n)


def test_substitute_maps_discriminant_too():
    pair = make_root_pair("fibonacci")
    u = QuadExtElem(y, 1, pair.disc)
    v = u.substitute({"y": 1, "t": 1})
    assert v.a == MultiPoly.constant(1)
    assert v.disc.poly == MultiPoly.constant(5)
    # squaring after substitution uses the substituted discriminant
    sq = v * v
    assert sq.a == MultiPoly.constant(6)  # 1 + 1*5
    assert sq.b == MultiPoly.constant(2)


def test_substitute_shares_one_discriminant_per_point():
    pair = make_root_pair("balancing")
    u = QuadExtElem(y + t, y, pair.disc)
    w = QuadExtElem(t, Rational(1, 3) * y * y, pair.disc)
    point = {"y": Rational(2, 3), "t": 5}
    us, ws = u.substitute(point), w.substitute(dict(reversed(point.items())))
    assert us.disc == ws.disc == Discriminant("balancing", pair.disc.poly.substitute(point))
    assert us.disc is ws.disc
    for elem, sub in ((u, us), (w, ws)):
        assert sub.a == elem.a.substitute(point)
        assert sub.b == elem.b.substitute(point)
    # a different point gets its own discriminant
    assert u.substitute({"y": 1, "t": 1}).disc.poly == MultiPoly.constant(8)


def test_str_of_rational_element_is_plain():
    pair = make_root_pair("balancing")
    elem = QuadExtElem(6, 0, pair.disc)
    assert str(elem) == "6"
    assert "sqrt" in str(QuadExtElem(0, 1, pair.disc))


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        make_root_pair("pell")


def test_zero_part_products_match_the_full_formula():
    rng = random.Random(20261018)
    for family in FAMILIES:
        disc = make_root_pair(family).disc
        elems = _random_elements(rng, disc, 14)
        for p in elems:
            for q in elems:
                got = _canonical(p * q)
                assert got == _full_product(p, q)
            for other in (y - 2 * t, Rational(-3, 4), 0, MultiPoly.constant(0)):
                want = QuadExtElem(p.a * other, p.b * other, disc)
                assert _canonical(p * other) == want and _canonical(other * p) == want


def test_sum_of_products_matches_the_fold():
    rng = random.Random(20261019)
    for family in FAMILIES:
        disc = make_root_pair(family).disc
        zero = QuadExtElem(0, 0, disc)
        empty = sum_of_products([], disc)
        assert _canonical(empty) == zero and empty.disc is disc
        for _ in range(25):
            elems = _random_elements(rng, disc, 8)
            triples = [(rng.choice([0, 1, rng.randrange(-20, 21), Rational(rng.randrange(-7, 8), 6)]),
                        rng.choice(elems), rng.choice(elems)) for _ in range(rng.randrange(1, 7))]
            want = zero
            for s_, p, q in triples:
                want = want + s_ * _full_product(p, q)
            assert _canonical(sum_of_products(iter(triples), disc)) == want


def test_sum_of_products_rejects_mixed_discriminants():
    fib = make_root_pair("fibonacci")
    bal = make_root_pair("balancing")
    # a balancing element in a sum over the fibonacci discriminant, first,
    # second or only after a valid summand
    for triples in ([(1, bal.lam1, fib.lam1)], [(1, fib.lam2, bal.lam2)],
                    [(1, fib.lam1, fib.lam1), (1, fib.lam2, bal.lam1)]):
        with pytest.raises(ValueError):
            sum_of_products(triples, fib.disc)


def test_equal_discriminants_built_apart_are_equal_and_hash_equal():
    first = Discriminant("fibonacci", y * y + 4 * t)
    second = Discriminant("fibonacci", 4 * t + y * y)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != Discriminant("balancing", y * y + 4 * t)
    assert first != Discriminant("fibonacci", y * y - 4 * t)
    with pytest.raises(AttributeError):
        first.name = "balancing"
    with pytest.raises(ValueError):
        Discriminant("fibonacci", MultiPoly.constant(0))


def test_root_pairs_built_apart_are_equal_and_hash_equal():
    first, second = make_root_pair("balancing"), make_root_pair("balancing")
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != make_root_pair("fibonacci")


def test_substituting_two_elements_at_one_point_hits_the_discriminant_cache():
    from convcheck.quadext import _substituted_disc

    pair = make_root_pair("fibonacci")
    # a point no other test substitutes at, so its first element misses
    point = {"y": Rational(7, 11), "t": Rational(-5, 13)}
    before = _substituted_disc.cache_info()
    first = QuadExtElem(y, t, pair.disc).substitute(point)
    second = QuadExtElem(t, y, make_root_pair("fibonacci").disc).substitute(point)
    after = _substituted_disc.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert first.disc is second.disc
