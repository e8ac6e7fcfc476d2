"""Quadratic extension ring, with the paper's two root pairs stated here
as an independent reference."""

import math
import random

import pytest

from convcheck._scalar import Rational
from convcheck.arith import MultiPoly
from convcheck.quadext import Discriminant, QuadExtElem
from convcheck.sequences import bivariate_sequence

y = MultiPoly.var("y")
t = MultiPoly.var("t")
x = MultiPoly.var("x")

FIB = Discriminant("fibonacci", y * y + 4 * t)
BAL = Discriminant("balancing", 9 * (y * y) - t)
# family -> (lam1, lam2, trace, norm, c): the roots of X^2 - trace*X + norm,
# with lam1 - lam2 = c*sqrt(d), as the paper states them
ROOTS = {
    "fibonacci": (QuadExtElem(y / 2, Rational(1, 2), FIB), QuadExtElem(y / 2, Rational(-1, 2), FIB),
                  y, -t, 1),
    "balancing": (QuadExtElem(3 * y, 1, BAL), QuadExtElem(3 * y, -1, BAL), 6 * y, t, 2),
}


def binet_ratio(family, n):
    """(lam1^n - lam2^n)/(lam1 - lam2) as a plain polynomial: the power
    difference is a multiple of sqrt(d) alone, and lam1 - lam2 =
    c*sqrt(d), so the ratio is its sqrt(d)-coefficient over c."""
    lam1, lam2, _, _, c = ROOTS[family]
    diff = lam1 ** n - lam2 ** n
    assert diff.a.is_zero(), "the roots are not conjugate"
    return diff.b / c


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
    u = QuadExtElem(y, t + 1, FIB)
    prod = u * u.conjugate()
    assert prod.b.is_zero()
    assert prod.a == y * y - (t + 1) ** 2 * FIB.poly


def test_pow_matches_repeated_multiplication():
    u = QuadExtElem(1, y, BAL)
    acc = QuadExtElem(1, 0, BAL)
    for e in range(7):
        assert u ** e == acc
        acc = acc * u
    with pytest.raises(ValueError):
        u ** -2


def test_mixed_discriminants_rejected():
    fib, bal = ROOTS["fibonacci"], ROOTS["balancing"]
    with pytest.raises(ValueError):
        fib[0] * bal[0]
    with pytest.raises(ValueError):
        fib[0] + bal[1]


def test_root_pairs_satisfy_their_quadratics():
    for lam1, lam2, trace, norm, _ in ROOTS.values():
        for lam in (lam1, lam2):
            # X^2 - trace*X + norm = 0
            assert (lam * lam - trace * lam + norm).is_zero()
        assert lam1 + lam2 == trace
        prod = lam1 * lam2
        assert prod.b.is_zero() and prod.a == norm


def test_root_difference_scale():
    for lam1, lam2, _, _, c in ROOTS.values():
        diff = lam1 - lam2
        assert diff.a.is_zero()
        assert diff.b == MultiPoly.constant(c)


def test_binet_ratio_reproduces_recurrences():
    for n in range(0, 25):
        assert binet_ratio("fibonacci", n) == bivariate_sequence("fibonacci", n)
        assert binet_ratio("balancing", n) == bivariate_sequence("balancing", n)


def test_rational_part_reproduces_trace_sequences():
    fib, bal = ROOTS["fibonacci"][0], ROOTS["balancing"][0]
    for n in range(0, 25):
        lucas = 2 * (fib ** n).a
        assert lucas == bivariate_sequence("lucas", n)
        lucas_bal = (bal ** n).a
        assert lucas_bal == bivariate_sequence("lucas_balancing", n)


def test_substitute_maps_discriminant_too():
    u = QuadExtElem(y, 1, FIB)
    v = u.substitute({"y": 1, "t": 1})
    assert v.a == MultiPoly.constant(1)
    assert v.disc.poly == MultiPoly.constant(5)
    # squaring after substitution uses the substituted discriminant
    sq = v * v
    assert sq.a == MultiPoly.constant(6)  # 1 + 1*5
    assert sq.b == MultiPoly.constant(2)


def test_substitute_shares_one_discriminant_per_point():
    u = QuadExtElem(y + t, y, BAL)
    w = QuadExtElem(t, Rational(1, 3) * y * y, BAL)
    point = {"y": Rational(2, 3), "t": 5}
    us, ws = u.substitute(point), w.substitute(dict(reversed(point.items())))
    assert us.disc == ws.disc == Discriminant("balancing", BAL.poly.substitute(point))
    assert us.disc is ws.disc
    for elem, sub in ((u, us), (w, ws)):
        assert sub.a == elem.a.substitute(point)
        assert sub.b == elem.b.substitute(point)
    # a different point gets its own discriminant
    assert u.substitute({"y": 1, "t": 1}).disc.poly == MultiPoly.constant(8)


def test_str_of_rational_element_is_plain():
    elem = QuadExtElem(6, 0, BAL)
    assert str(elem) == "6"
    assert "sqrt" in str(QuadExtElem(0, 1, BAL))


def test_zero_part_products_match_the_full_formula():
    rng = random.Random(20261018)
    for disc in (FIB, BAL):
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
    for disc in (FIB, BAL):
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
    (fib1, fib2, *_), (bal1, bal2, *_) = ROOTS["fibonacci"], ROOTS["balancing"]
    # a balancing element in a sum over the fibonacci discriminant, first,
    # second or only after a valid summand
    for triples in ([(1, bal1, fib1)], [(1, fib2, bal2)],
                    [(1, fib1, fib1), (1, fib2, bal1)]):
        with pytest.raises(ValueError):
            sum_of_products(triples, FIB)


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


def test_substituting_two_elements_at_one_point_hits_the_discriminant_cache():
    from convcheck.quadext import _substituted_disc

    # a point no other test substitutes at, so its first element misses
    point = {"y": Rational(7, 11), "t": Rational(-5, 13)}
    before = _substituted_disc.cache_info()
    first = QuadExtElem(y, t, FIB).substitute(point)
    second = QuadExtElem(t, y, Discriminant("fibonacci", 4 * t + y * y)).substitute(point)
    after = _substituted_disc.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert first.disc is second.disc
