"""The rings' elements, held in Sig = u + v and D = u - v.

A generic :class:`LetterElem` stands for a polynomial in the letters
x1 = u and x2 = v.  Every operation on it must give the element of that
polynomial's result, and everything read out of it (equality with a
polynomial, hash, string, substitution) must be the polynomial's own.
A root-ring element stands for a + b*sqrt(d), a QuadExtElem, and is
held as a polynomial in Sig, D and x; the same holds of it, with
QuadExtElem's own arithmetic as the reference.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from convcheck import arith
from convcheck.arith import MAX_EXP, MultiPoly, ProductSum, binomial
from convcheck.identities import (
    Context,
    core,
    eval_convolution_sum,
    get_record,
    run_record,
    substitute_value,
)
from convcheck.identities.catalog import register_catalog
from convcheck.identities.core import LetterElem
from convcheck.quadext import QuadExtElem
from convcheck.report import run_records
from convcheck.sequences import number_polynomial
from convcheck.symfun import sym_ehp
from test_quadext import ROOTS, sum_of_products

X1, X2, X = MultiPoly.var("x1"), MultiPoly.var("x2"), MultiPoly.var("x")
Y, T = MultiPoly.var("y"), MultiPoly.var("t")
ROOT_RINGS = ("fibonacci-roots", "balancing-roots")


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
        assert a.as_poly().terms == p.terms
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


@pytest.fixture
def products(monkeypatch):
    """A count of the coefficient products ProductSum.add forms from
    here on, with no binding's powers kept from earlier substitutions."""
    count = [0]
    add = ProductSum.add

    def counted(self, num, den, p, q):
        if num:
            count[0] += len(p.terms) * len(q.terms)
        add(self, num, den, p, q)

    monkeypatch.setattr(ProductSum, "add", counted)
    arith._powers.cache_clear()
    return count


def test_lifting_a_polynomial_in_x_alone_forms_no_product(products):
    # the generic lift of an embedded B_j(x), E_j(x) or G_j(x) reads
    # neither letter, so it is the polynomial itself
    for kind in ("bernoulli", "euler", "genocchi"):
        poly = number_polynomial(kind, 12)
        assert poly.substitute(core._FROM_LETTERS) is poly
        assert LetterElem.of(poly).poly is poly
    assert products[0] == 0


def test_t4_to_32_forms_few_coefficient_products(products):
    # in Sig and D the factor D^(n-k) is one term and (Sig + xD)^(n-1)
    # n terms; over the letters x1, x2 these sums formed 540,578 products.
    # The powers and the products by one term form none: by products they
    # added about 31,600
    ctx = Context("indeterminate")
    for key in ("T4.1:as_printed", "T4.2:as_printed", "T4.3:as_printed"):
        assert all(v.passed for v in run_record(get_record(key), (0, 32), ctx))
    assert 0 < products[0] <= 52_000


@pytest.mark.parametrize("ring", ("indeterminate",) + ROOT_RINGS)
def test_the_closed_forms_match_the_products(ring):
    # u^j, v^j, phi_j and S_j are built with no product, from Sig and D
    ctx = Context(ring)
    for j in range(41):
        assert ctx.power(ctx.u, j) == ctx.u ** j and ctx.power(ctx.v, j) == ctx.v ** j
        assert ctx.phi(j) == ctx.u ** j + ctx.v ** j
        assert ctx.S(j) == sym_ehp("h", j, ctx.u, ctx.v)
    assert ctx.power(ctx.u, 7) is ctx.power(ctx.u + 0, 7)
    assert ctx.S(-1) == 0


@pytest.mark.parametrize("ring", ("indeterminate",) + ROOT_RINGS)
def test_power_by_the_leading_term_matches_repeated_products(ring):
    # every power is the binomial theorem on the base's leading term, the
    # rest's powers from their own list; the reference forms products
    ctx = Context(ring)
    rng = random.Random(20261020)
    names = ("x1", "x2", "x") + (("y", "t") if ctx.family is None else ())
    # 0^e, and a square whose Sig^2 D^2 terms cancel: -16 from i = 1 and
    # 16 from i = 2, in 2 Sig^2 + 4 Sig D - 4 D^2
    fixed = [MultiPoly(), 2 * X1 * X1 + 4 * X1 * X2 - 4 * X2 * X2]
    for base in fixed:
        for e in (0, 1, 2, 3):
            assert ctx.power(LetterElem(base, ctx.chart), e).poly == base ** e
    assert (2, 2, 0, 0, 0) not in ctx.power(LetterElem(fixed[1], ctx.chart), 2).poly.terms
    for _ in range(40):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            exp = [0] * 5
            for _ in range(rng.randrange(0, 4)):
                exp[arith._index(rng.choice(names))] += 1
            terms[tuple(exp)] = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 9),
                                         rng.choice((1, 2, 3, 6)))
        base = MultiPoly(terms)
        elem = LetterElem(base, ctx.chart)
        for e in rng.sample(range(13), 4):
            got = ctx.power(elem, e)
            assert got.poly == base ** e, (base, e)
            assert got.poly._deg >= got.poly.total_degree()
            assert ctx.power(LetterElem(base, ctx.chart), e) is got
    # refused before any power of the base is formed
    with pytest.raises(OverflowError):
        ctx.power(ctx.Sig + 1, MAX_EXP + 1)
    assert len(arith._powers((ctx.Sig + 1).poly)) == 1


def test_r1_forms_few_coefficient_products(products):
    # h_j and p_j take one step of products per j, and S_j and phi_j none;
    # building h_n(u, v) and p_n(u, v) anew at each n, and S_j and phi_j
    # from dense letter powers, formed about 61,500 products
    ctx = Context("indeterminate")
    for rec in register_catalog():
        if rec.ident.startswith("R1."):
            run_record(rec, (0, 40), ctx)
    assert 0 < products[0] <= 8_000


def test_binet_forms_few_coefficient_products(products):
    # the letters' powers are closed forms, and the root chart's lift of
    # each F_j, L_j, B*_j and C_j reuses the powers of its image of t;
    # building both by products formed about 39,350
    contexts = {}
    for rec in register_catalog():
        if rec.ident.startswith("BINET."):
            run_record(rec, (0, 30), contexts.setdefault(rec.ring, Context(rec.ring)))
    assert 0 < products[0] <= 12_000


def test_verify_all_forms_few_coefficient_products(products, monkeypatch):
    # the whole catalog as verify --all runs it, in fresh contexts;
    # 381,150 in a fresh process before the closed forms and the shared
    # binding powers
    monkeypatch.setattr(core, "_CONTEXTS", {})
    run_records(register_catalog())
    assert 0 < products[0] <= 300_000


# ---------------------------------------------------------------------------
# the root rings: Q[x, y, t][sqrt(d)] held as Q[x, y, D]
# ---------------------------------------------------------------------------


def random_part(rng):
    """A polynomial in x, y and t with up to four rational terms."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exp = (0, 0, rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 3))
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return MultiPoly(terms)


def random_roots(ring, count=40):
    """Seeded elements a + b*sqrt(d) of a root ring, zero parts included."""
    ctx = Context(ring)
    rng = random.Random(ring)
    for _ in range(count):
        yield ctx, QuadExtElem(random_part(rng), random_part(rng), ctx.chart.disc), rng


def seen(elem, q):
    """elem is a root-ring element printing as the QuadExtElem q; its
    polynomial is in Sig, D and x, and reads no y or t."""
    assert type(elem) is LetterElem and not elem.poly.degree_in("y") and not elem.poly.degree_in("t")
    view = elem.as_poly()
    assert type(view) is QuadExtElem and view == q and str(view) == str(q)
    assert elem == q and q == elem and str(elem) == str(q) and hash(elem) == hash(q)
    return True


@pytest.mark.parametrize("ring, printed", [
    ("fibonacci-roots", ("(1/2*y) + (1/2)*sqrt(y^2 + 4*t)", "(1/2*y) + (-1/2)*sqrt(y^2 + 4*t)",
                         "y", "-t", "(0) + (1)*sqrt(y^2 + 4*t)")),
    ("balancing-roots", ("(3*y) + (1)*sqrt(9*y^2 - t)", "(3*y) + (-1)*sqrt(9*y^2 - t)",
                         "6*y", "t", "(0) + (2)*sqrt(9*y^2 - t)")),
])
def test_the_letters_are_the_papers_roots(ring, printed):
    # u and v are the roots of X^2 - trace*X + norm as the paper states
    # them, (y +- sqrt(y^2 + 4t))/2 and 3y +- sqrt(9y^2 - t); their sum
    # and product are the trace and the norm, and D = u - v is c*sqrt(d)
    lam1, lam2, trace, norm, c = ROOTS[ring.removesuffix("-roots")]
    disc = lam1.disc
    ctx = Context(ring)
    assert seen(ctx.u, lam1) and seen(ctx.v, lam2)
    assert seen(ctx.Sig, QuadExtElem(trace, 0, disc)) and seen(ctx.u + ctx.v, ctx.Sig.as_poly())
    assert seen(ctx.Prod, QuadExtElem(norm, 0, disc)) and seen(ctx.u * ctx.v, ctx.Prod.as_poly())
    assert seen(ctx.D, QuadExtElem(0, c, disc)) and seen(ctx.u - ctx.v, ctx.D.as_poly())
    assert tuple(map(str, (ctx.u, ctx.v, ctx.Sig, ctx.Prod, ctx.D))) == printed
    assert not ctx.u * ctx.u - ctx.Sig * ctx.u + ctx.Prod
    assert not ctx.v * ctx.v - ctx.embed(trace) * ctx.v + ctx.embed(norm)


def test_a_ring_of_an_unknown_family_is_refused():
    with pytest.raises(ValueError, match="unknown ring 'pell-roots'"):
        Context("pell-roots")


@pytest.mark.parametrize("ring", ROOT_RINGS)
def test_the_chart_pins_d_in_slot_x2(ring):
    # D = u - v = c*sqrt(d) is the variable x2, and t is read off d,
    # linear in t
    ctx = Context(ring)
    lam1, lam2, _, _, c = ROOTS[ring.removesuffix("-roots")]
    disc = lam1.disc
    assert ctx.chart.scale == c and ctx.chart.disc == disc
    assert ctx.D.poly == X2 and ctx.embed(lam1 - lam2).poly == X2
    # Sig = u + v is x1, as in the generic ring, and y is Sig/k
    trace = ROOTS[ring.removesuffix("-roots")][2]
    assert ctx.Sig.poly == X1 and ctx.embed(trace).poly == X1 and ctx.embed(lam1 + lam2).poly == X1
    assert ctx.y.poly == X1 / trace.coeff((0, 0, 0, 1, 0))
    assert ctx.delta.poly == X2 / c and ctx.delta * c == ctx.D
    assert ctx.embed(disc.poly).poly == X2 * X2 / (c * c)
    assert seen(ctx.D, lam1 - lam2) and seen(ctx.t, QuadExtElem(T, 0, disc))
    assert seen(ctx.delta, QuadExtElem(0, 1, disc))
    assert len(ctx.power(ctx.D, 9).poly.terms) == 1


@pytest.mark.parametrize("disc", [Y * Y + 4 * T + T * T, Y * Y, X1 + 4 * T],
                         ids=["quadratic-in-t", "no-t", "reads-x1"])
def test_a_discriminant_not_linear_in_t_is_refused(disc):
    # t is read off d = alpha*t + r(y) only where alpha is a nonzero
    # constant and r reads no t, x1 or x2
    with pytest.raises(ValueError, match=r"is not alpha\*t \+ r\(x, y\)"):
        core._Chart("made-up", Y, 1, disc)


@pytest.mark.parametrize("ring", ROOT_RINGS)
def test_a_printed_form_reading_x1_or_x2_is_not_embedded(ring):
    # a + b*sqrt(d) has its parts in x, y and t; a part in x1 or x2, in
    # either place, is not of the ring
    ctx = Context(ring)
    disc = ctx.chart.disc
    for bad in (X1, Y + X2, QuadExtElem(X1, 1, disc), QuadExtElem(Y, X2, disc)):
        with pytest.raises(TypeError, match="cannot embed"):
            ctx.embed(bad)


@pytest.mark.parametrize("ring", ROOT_RINGS)
def test_a_root_rings_printed_form_is_not_embedded_in_the_generic_ring(ring):
    # the generic chart has no discriminant to compare: a + b*sqrt(d) is
    # not of its ring, which is a TypeError, not two discriminants
    generic, roots = Context("indeterminate"), Context(ring)
    for q in (roots.u.as_poly(), roots.Sig.as_poly(), QuadExtElem(Y, 0, roots.chart.disc)):
        assert type(q) is QuadExtElem
        with pytest.raises(TypeError, match="cannot embed"):
            generic.embed(q)
        with pytest.raises(TypeError):
            generic.x + q


@pytest.mark.parametrize("sig", [Y + 1, X, Y * Y, MultiPoly()], ids=["affine", "x", "square", "zero"])
def test_a_sig_not_a_multiple_of_y_is_refused(sig):
    # y is read off Sig = k*y, for a nonzero constant k
    with pytest.raises(ValueError, match="is not a multiple of y"):
        core._Chart("made-up", sig, 1, Y * Y + 4 * T)


@pytest.mark.parametrize("ring", ROOT_RINGS)
def test_the_chart_is_a_ring_isomorphism(ring):
    previous = None
    for ctx, q, rng in random_roots(ring):
        elem = ctx.embed(q)
        assert seen(elem, q) and bool(elem) == bool(q) and elem.is_zero() == q.is_zero()
        assert not {name for exp in elem.poly.terms for name, e in zip("12xyt", exp) if e} & {"y", "t"}
        if previous is not None:
            p, other = previous
            assert seen(elem + other, q + p) and seen(elem - other, q - p)
            assert seen(elem * other, q * p) and seen(p - elem, p - q)
            assert (elem == other) == (q == p)
        s = Fraction(rng.choice([-3, 2, 5]), rng.randint(1, 4))
        assert seen(s * elem, s * q) and seen(elem / s, q * (1 / s)) and seen(-elem, -q)
        assert seen(elem ** 3, q ** 3) and seen(elem * q.a, q * q.a)
        previous = q, elem


@pytest.mark.parametrize("ring", ROOT_RINGS)
def test_a_root_ring_convolution_sum_matches_the_extension_ring(ring):
    elems = list(random_roots(ring, 9))
    ctx = elems[0][0]
    low = [ctx.embed(q) for _, q, _ in elems]
    high = [ctx.embed(q) for _, q, _ in reversed(elems)]
    for n in range(9):
        for parity in (False, True):
            weight = lambda j: Fraction(j + 1, j + 3) if j % 3 else 0  # noqa: E731
            got = eval_convolution_sum(ctx, n, low.__getitem__, high.__getitem__,
                                       weight=weight, parity=parity)
            want = sum_of_products(
                ((binomial(n, k) * weight(n - k), low[k].as_poly(), high[n - k].as_poly())
                 for k in range(n + 1) if weight(n - k) and not (parity and (n - k) % 2)),
                ctx.chart.disc)
            assert seen(got, want)


@pytest.mark.parametrize("ring", ROOT_RINGS)
def test_a_root_ring_substitution_is_the_printed_forms(ring):
    points = [{"t": 1}, {"y": 1, "t": 1}, {"y": Fraction(2, 3), "t": Fraction(-5, 7)},
              {"y": -3, "t": Fraction(1, 4), "x": Fraction(1, 2)}, {"x": Fraction(-2, 9)},
              {"y": T + 1, "t": Y}, {"x1": 5, "x2": 7, "t": 2}]
    for ctx, q, _ in random_roots(ring, 25):
        elem = ctx.embed(q)
        for bindings in points:
            got = elem.substitute(bindings)
            want = q.substitute(bindings)
            assert type(got) is QuadExtElem and got == want and str(got) == str(want)
            assert got.disc == want.disc and substitute_value(elem, bindings) == want


def printed_by_halves(elem):
    """A root-ring element's a + b*sqrt(d), built apart from its chart:
    the even and odd halves of its polynomial in D (slot x2), written
    with x2 standing for D^2, then x2 -> c^2 d, Sig (slot x1) -> the
    paper's trace, and b scaled by c."""
    _, _, trace, _, c = ROOTS[elem.chart.family]
    disc = elem.chart.disc
    halves = ({}, {})
    for (e1, e2, ex, ey, et), coeff in elem.poly.terms.items():
        halves[e2 % 2][(e1, e2 // 2, ex, ey, et)] = coeff
    square = {"x1": trace, "x2": c * c * disc.poly}
    even, odd = (MultiPoly(half).substitute(square) for half in halves)
    return QuadExtElem(even, odd * c, disc)


GOLDEN_ROOTS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json")
                          .read_text())["roots_subst"]["records"]


def test_a_root_ring_image_is_the_printed_form_substituted():
    # every root-ring side of the benchmark's substituted records, at
    # three seeded points, at the partial points of criterion 3 and at
    # no point, against QuadExtElem.substitute of its printed form
    rng = random.Random(20261019)
    points = [{}, {"t": 1}, {"y": 1, "t": 1}]
    while len(points) < 6:
        y_, t_ = (Fraction(rng.choice([-5, -3, -1, 2, 4, 7]), rng.randint(1, 6)) for _ in "yt")
        if y_ * y_ + 4 * t_ and 9 * y_ * y_ - t_:
            points.append({"y": y_, "t": t_})
    sides = []
    for key, lo, hi in GOLDEN_ROOTS:
        rec = get_record(key)
        run_record(rec, (lo, hi))
        memo = core.get_context(rec.ring)._memo
        sides += [memo[(side, n)] for side in (rec.lhs, rec.rhs) for n in range(lo, hi + 1)
                  if (side, n) in memo]
    elems = {id(elem): elem for elem in sides if type(elem) is LetterElem}
    assert len(elems) > 1000
    for elem in elems.values():
        printed = printed_by_halves(elem)
        assert elem.as_poly() == printed
        for point in points:
            got = elem.substitute(point)
            assert type(got) is QuadExtElem and got == printed.substitute(point)


def test_elements_of_two_rings_do_not_mix():
    generic, fib, bal = (Context(ring) for ring in ("indeterminate",) + ROOT_RINGS)
    ops = (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b)
    for op in ops:
        for a, b in ((fib.u, bal.v), (bal.D, fib.Sig)):
            with pytest.raises(ValueError):
                op(a, b)
        for a, b in ((generic.u, fib.u), (bal.v, generic.D), (generic.x, bal.x)):
            with pytest.raises(TypeError):
                op(a, b)
    assert fib.x != bal.x and generic.one != fib.one


def test_root_ring_c4_forms_few_coefficient_products(products):
    # in x, y and D the factor D^(n-k) is one term; as a + b*sqrt(d) it
    # was dense in y and t, and these checks formed 221,379 products
    contexts = {}
    for rec in register_catalog():
        if rec.ident.startswith("C4."):
            run_record(rec, None, contexts.setdefault(rec.ring, Context(rec.ring)))
    assert sorted(contexts) == sorted(ROOT_RINGS)
    assert 0 < products[0] <= 100_000
