"""Evaluation engine for the identity catalog.

Every catalog entry is an ``IdentityRecord``
(:mod:`convcheck.identities.notation`, next to the tree format of the
statement it stores) whose two sides are callables
``side(ctx, n) -> ring element``; the engine reads only those sides and
the record's plain fields.  The *context* supplies the
ring: the generic two-letter ring Q[u,v,x,y,t], or one of the two root
rings, where the letters are the conjugate roots of a recurrence family
and live in the quadratic extension Q[x,y,t][sqrt(d)].  A family is one
row of constants, its Sig, the scale c and the discriminant d with
D = c*sqrt(d) (``_ROOT_FAMILIES``), and every ring's letters are
u, v = (Sig +- D)/2.  Every ring holds
its elements as one class, :class:`LetterElem`: a polynomial in the sum
Sig = u + v (slot x1), the difference D = u - v (slot x2) of the letters
and x, in one chart class, :class:`_Chart`.  In a root ring Sig = k*y
and D = c*sqrt(d), with d linear in t, so y and t are polynomials in Sig
and D, and Q[x,y,t][sqrt(d)] is the polynomial ring Q[x,Sig,D].  The
letters x1 = u, x2 = v of the generic ring and the form a + b*sqrt(d) of
a root ring are printed forms only, each formed by one pass over the
polynomial, as is an element's image at a point, and none is kept
(:meth:`_Chart.image`).
Sig and D are the variables x1 and x2 in every chart, so the letters'
powers u^j and v^j and their symmetric functions S_j = h_j(u, v) and
phi_j = u^j + v^j are closed binomial sums in Sig and D, built term by
term with no product (:meth:`Context.power`, the binomial theorem on a
base's leading term, :meth:`Context.S`, :meth:`Context.phi`).  R1.1 and
R1.2 check S_j and phi_j against h_j and p_j formed by products
(:mod:`convcheck.symfun`), and BINET checks the letters' powers
against the embedded sequence values.
Because both sides are written against the context interface, the same
record can be evaluated in any ring.  A generic identity yields its
family-specific corollary by the ring map φ that puts the roots in
place of the letters; it fixes Sig, D and x, so on a polynomial that
reads no y or t it is the identity, and the image shares the generic
polynomial (:meth:`Context.from_generic`).  In the shared context of a
root ring (:func:`get_context`), a side whose tree reads no root-only
symbol is φ of its value in the shared generic context, which
evaluates it once for both families; so a derived corollary's sides
are its theorem's.  Since φ is injective, such a corollary passes at n
exactly when its theorem does.  The root charts are checked on their
own: against the extension ring's arithmetic and the paper's roots
(``tests/test_letter_elem.py``), and by the BINET records, which
compare the letters' powers with the embedded sequences.

A check never approximates: for each n the two sides are canonical
elements, and the verdict is pass iff they are equal, which is the
test that their difference is literally zero; the difference is formed
only for sides that are not equal.
"""

from __future__ import annotations

import functools
import math
import operator
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .._fields import Fields
from .._scalar import as_rational, is_scalar
from ..arith import (MAX_EXP, MultiPoly, ProductSum, _SHIFTS, _VAR_KEYS, _bind, _index,
                     _overflow, _power, _substitute)
from ..quadext import Discriminant, QuadExtElem
from ..sequences import BIVARIATE_KINDS, bivariate_sequence, number_polynomial

if TYPE_CHECKING:
    from .notation import IdentityRecord

__all__ = [
    "Context",
    "FAMILIES",
    "IdentityVerdict",
    "LetterElem",
    "PrintedFormUndefined",
    "RINGS",
    "eval_convolution_sum",
    "get_context",
    "parity_restriction_equivalence",
    "printed_ratio",
    "run_record",
    "run_record_substituted",
    "substitute_value",
]

RINGS = ("indeterminate", "fibonacci-roots", "balancing-roots")

SideFn = Callable[["Context", int], Any]


class PrintedFormUndefined(ArithmeticError):
    """An as-printed summand is not evaluable (division by zero)."""


def printed_ratio(num, den: int):
    """Scalar num/den as an as-printed formula intends it.

    A 0/0 term is read as an empty contribution; a nonzero numerator
    over zero makes the printed form non-evaluable at this index.
    """
    q = as_rational(num)
    if den == 0:
        if not q:
            return as_rational(0)
        raise PrintedFormUndefined(f"summand coefficient {q}/0")
    return q / den


_X1, _X2, _Y, _T = (MultiPoly.var(name) for name in ("x1", "x2", "y", "t"))
# D's slot in every chart, and the keys of Sig = x1 and D = x2
_D_INDEX = _index("x2")
_SIG_KEY, _D_KEY = (_VAR_KEYS[_index(name)] for name in ("x1", "x2"))
# a generic element's polynomial holds Sig in the x1 slot and D in the
# x2 slot; these bindings take it to the letters x1 = u, x2 = v and back
_TO_LETTERS = {"x1": _X1 + _X2, "x2": _X1 - _X2}
_FROM_LETTERS = {"x1": (_X1 + _X2) / 2, "x2": (_X1 - _X2) / 2}

# The one statement of each root family: its letters' sum Sig, the
# scale c and the discriminant d with D = u - v = c*sqrt(d).  The
# letters are the roots (Sig +- D)/2 of X^2 - Sig*X + (Sig^2 - D^2)/4:
#   fibonacci  X^2 - y*X - t,   (y +- sqrt(y^2 + 4t))/2
#   balancing  X^2 - 6y*X + t,  3y +- sqrt(9y^2 - t)
# sequences.py states the same families by their recurrences, and the
# BINET records check the two against each other.
_ROOT_FAMILIES = {
    "fibonacci": (_Y, 1, _Y * _Y + 4 * _T),
    "balancing": (6 * _Y, 2, 9 * _Y * _Y - _T),
}
FAMILIES = tuple(_ROOT_FAMILIES)


class _Chart:
    """A ring's chart: its elements are polynomials in Sig (slot x1),
    D (slot x2) and x, the same in every ring.

    The generic ring's chart has no ``family``: its printed form is the
    polynomial in the letters x1 = u, x2 = v, and it lifts one by
    ``_FROM_LETTERS``.  A root ring's is built from its family's row of
    ``_ROOT_FAMILIES``, and Q[x, y, t][sqrt(d)] is the polynomial ring
    Q[Sig, D, x].  The row gives Sig = k*y (k is 1 or 6) and the
    discriminant d, linear in t with a constant coefficient,
    d = alpha*t + r(y) (y^2 + 4t and 9y^2 - t).  So y = Sig/k and
    t = (D^2/c^2 - r(Sig/k))/alpha.  The map Q[x, Sig, D] ->
    Q[x, y, t][sqrt(d)] that sends Sig to k*y and D to c*sqrt(d) is a
    ring homomorphism; sending y to Sig/k, t to that expression and
    sqrt(d) to D/c respects sqrt(d)^2 = d and inverts it.  So it is an
    isomorphism, and an element is zero iff its polynomial
    in Sig, D and x is: the zero test stays exact.  A polynomial in the
    generic ring that reads no y or t is the same polynomial here, so
    the map from the generic ring is the identity on it
    (:meth:`Context.from_generic`).

    A root-ring polynomial P = E(D^2) + D*O(D^2) prints as a + b*sqrt(d)
    with a = E(c^2 d) and b = c*O(c^2 d), Sig read as k*y.  In every
    ring an element's image at a point, and its printed form, the image
    at no point, is one pass over its polynomial (:meth:`image`): each
    term takes the point's values, Sig and D at the point (u + v and
    u - v in the generic ring; k*y, and delta^(e // 2) for D^e with
    delta = c^2 d(point), in a root ring, where the term goes to a if e
    is even and to b, times c, if it is odd).  What depends on the point
    alone is made once per point (:func:`_point`).  No printed form is
    kept.
    """

    family = disc = None
    _lifting, _printing = _FROM_LETTERS, _TO_LETTERS

    def __init__(self, family: Optional[str] = None, sig=None, c=None, d=None):
        if family is None:
            return
        k = sig.coeff((0, 0, 0, 1, 0))
        if not k or sig != k * _Y:
            raise ValueError(f"Sig = {sig} is not a multiple of y")
        alpha = d.coeff((0, 0, 0, 0, 1))
        rest = d - alpha * _T
        if not alpha or any(rest.degree_in(name) for name in ("x1", "x2", "t")):
            raise ValueError(f"discriminant {d} is not alpha*t + r(x, y)")
        self.family = family
        self.disc = Discriminant(family, d)
        self.scale = c
        self._c2 = c * c
        y = _X1 / k
        self._lifting = {"y": y, "t": (_X2 * _X2 / self._c2 - rest.substitute({"y": y})) / alpha}
        self._printing = {"x1": sig}
        self._sqrt_d = _X2 / c

    def lift(self, value) -> Optional[MultiPoly]:
        """A printed form or a scalar, in Sig, D and x; None for anything
        else.  A generic printed form is a polynomial in the letters; a
        root ring's is a polynomial in x, y and t or an element
        a + b*sqrt(d) of the ring, and reads no x1 or x2."""
        if isinstance(value, MultiPoly):
            if self.family is not None and (value.degree_in("x1") or value.degree_in("x2")):
                return None
            return value.substitute(self._lifting)
        if isinstance(value, QuadExtElem) and self.family is not None:
            if value.disc != self.disc:
                raise ValueError(f"mixed discriminants: {self.disc.name} vs {value.disc.name}")
            a, b = self.lift(value.a), self.lift(value.b)
            return None if a is None or b is None else a + b * self._sqrt_d
        return MultiPoly.constant(value) if is_scalar(value) else None

    def image(self, poly: MultiPoly, point: tuple):
        """The printed form of the polynomial ``poly`` in Sig, D and x at
        ``point``, a sorted tuple of (name, value) bindings: a polynomial
        in the generic ring, a + b*sqrt(d) in a root ring."""
        scalars, polys, split, disc = _point(self, point)
        even, odd = _substitute(poly, scalars, polys, split)
        return even if disc is None else QuadExtElem(even, odd, disc)


@functools.lru_cache(maxsize=64)
def _point(chart: _Chart, point: tuple):
    """What the images at ``point`` share, made once per point: the
    bindings read by ``arith._bind``, of the point's variables and of
    the chart's printing substituted at the point (Sig, slot x1, to
    u + v = x1 + x2 and D, slot x2, to u - v in the generic ring, Sig to
    k*y in a root ring); in a root ring, the split of D with D^2 =
    delta = c^2 d(point), and the discriminant d(point) of the image.
    A binding of x1 or x2 in the point binds the letters of the generic
    ring, and is ignored in a root ring, whose printed forms read
    neither.  Every caller only reads it."""
    values = dict(point)
    bound = {name: value for name, value in point if name not in ("x1", "x2")}
    bound.update((name, value.substitute(values)) for name, value in chart._printing.items())
    scalars, polys = _bind(bound)
    if chart.family is None:
        return scalars, polys, None, None
    d = chart.disc.poly.substitute(values)
    return scalars, polys, (_D_INDEX, chart._c2 * d, chart.scale), Discriminant(chart.disc.name, d)


_LETTERS = _Chart()
# the variables that Context.from_generic does not fix, and their
# exponent fields
NOT_FIXED_BY_PHI = ("y", "t")
_NOT_FIXED_FIELDS = sum(MAX_EXP << _SHIFTS[_index(name)] for name in NOT_FIXED_BY_PHI)


@functools.lru_cache(maxsize=None)
def _chart(ring: str):
    if ring == "indeterminate":
        return _LETTERS
    family = ring.removesuffix("-roots")
    return _Chart(family, *_ROOT_FAMILIES[family])


class LetterElem:
    """Element of one of the three rings, never changed, held as ``poly``,
    a :class:`MultiPoly` in the letters' sum Sig = u + v and difference
    D = u - v, and its ring's ``chart``.

    In every ring the polynomial is in Sig (slot x1), D (slot x2) and
    x, with u = (Sig + D)/2 and v = (Sig - D)/2; the generic ring's y
    and t are free, and a root ring's are polynomials in Sig and D (see
    :class:`_Chart`).  In these coordinates D^j is one term and
    (Sig + xD)^j is j+1, so the convolution sums form far fewer
    coefficient products, and a root-ring product needs no sqrt(d)
    fold.  Arithmetic and the zero test never leave the coordinates.

    A value leaving the ring -- in ``==`` against a polynomial or a
    QuadExtElem, ``hash``, ``str`` and ``substitute`` -- is its printed
    form: the polynomial in the letters x1 = u and x2 = v in the generic
    ring, a + b*sqrt(d) (a :class:`QuadExtElem`) in a root ring.  No
    element keeps one: its printed form and its image at a point are each
    one pass over its polynomial (:meth:`_Chart.image`).  An operand from
    another ring raises, a root ring's ValueError for two discriminants,
    TypeError otherwise.
    """

    __slots__ = ("poly", "chart")

    def __init__(self, poly: MultiPoly, chart):
        self.poly = poly
        self.chart = chart

    @staticmethod
    def of(value, chart=_LETTERS) -> "LetterElem":
        """value, an element, a printed form or a scalar, as an element of
        the ring of ``chart`` (the generic ring by default)."""
        if type(value) is LetterElem and value.chart is chart:
            return value
        poly = chart.lift(value)
        if poly is None:
            raise TypeError(f"cannot embed {value!r} into the ring")
        return LetterElem(poly, chart)

    def _operand(self, other):
        """other in this element's coordinates: a polynomial or a scalar,
        or None for what is not of this ring."""
        if type(other) is LetterElem:
            if other.chart is self.chart:
                return other.poly
            if self.chart.family is not None and other.chart.family is not None:
                raise ValueError(f"mixed discriminants: {self.chart.family} vs {other.chart.family}")
            return None
        if is_scalar(other):
            return other
        return self.chart.lift(other)

    def as_poly(self):
        """The printed form: the polynomial in x1 = u, x2 = v in the
        generic ring, a + b*sqrt(d) in a root ring."""
        return self.chart.image(self.poly, ())

    # -- ring operations ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.poly

    def __bool__(self) -> bool:
        return bool(self.poly)

    def __eq__(self, other) -> bool:
        if type(other) is LetterElem:
            return other.chart is self.chart and self.poly == other.poly
        if is_scalar(other):
            # a constant is the same polynomial in either coordinates
            return self.poly == other
        return self.as_poly() == other

    def __hash__(self) -> int:
        # an element equals its printed form, so it hashes as that
        return hash(self.as_poly())

    def __neg__(self) -> "LetterElem":
        return LetterElem(-self.poly, self.chart)

    def __add__(self, other) -> "LetterElem":
        o = self._operand(other)
        return NotImplemented if o is None else LetterElem(self.poly + o, self.chart)

    __radd__ = __add__

    def __sub__(self, other) -> "LetterElem":
        o = self._operand(other)
        return NotImplemented if o is None else LetterElem(self.poly - o, self.chart)

    def __rsub__(self, other) -> "LetterElem":
        o = self._operand(other)
        return NotImplemented if o is None else LetterElem(o - self.poly, self.chart)

    def __mul__(self, other) -> "LetterElem":
        o = self._operand(other)
        return NotImplemented if o is None else LetterElem(self.poly * o, self.chart)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LetterElem":
        if not is_scalar(other):
            return NotImplemented
        return LetterElem(self.poly / other, self.chart)

    def __pow__(self, exponent: int) -> "LetterElem":
        return LetterElem(self.poly ** exponent, self.chart)

    # -- the printed form --------------------------------------------------

    def substitute(self, bindings):
        """The printed form with variables substituted, the image at the
        point (:meth:`_Chart.image`)."""
        return self.chart.image(self.poly, tuple(sorted(bindings.items())))

    def __str__(self) -> str:
        return str(self.as_poly())

    def __repr__(self) -> str:
        return f"LetterElem({self})"


# Context.memo keys of the embedded sequences, one callable per kind;
# each calls its sequence function through this module's globals, which
# perfbench/tracer.py rebinds
_NPOLY = {kind: (lambda ctx, j, kind=kind: ctx.embed(number_polynomial(kind, j)))
          for kind in ("bernoulli", "euler", "genocchi")}
_SEQ = {kind: (lambda ctx, j, kind=kind: ctx.embed(bivariate_sequence(kind, j)))
        for kind in BIVARIATE_KINDS}


# Context.memo keys of the letters' symmetric functions, closed forms
def _closed_S(ctx: "Context", j: int) -> LetterElem:
    return ctx._binomial_sum(j, ((i, math.comb(j + 1, i + 1)) for i in range(0, j + 1, 2)), 2 ** j)


def _closed_phi(ctx: "Context", j: int) -> LetterElem:
    return ctx._binomial_sum(j, ((i, 2 * math.comb(j, i)) for i in range(0, j + 1, 2)), 2 ** j)


class Context:
    """Ring adapter: letters and cached building blocks.

    ``Sig`` is x1 and ``D`` is x2 in every chart, and the letters
    are ``u, v = (Sig +- D)/2``: x1 and x2 in the generic ring, the
    family's conjugate roots in a root ring.
    Each cache is keyed by what determines its entries -- a power's base
    element by value, any other value by the callable that computes it
    and its index -- never by a name a caller makes up, so an entry
    cannot be returned for a different element.
    """

    def __init__(self, ring: str):
        if ring not in RINGS:
            raise ValueError(f"unknown ring {ring!r}; choose from {RINGS}")
        self.ring = ring
        self.chart = _chart(ring)
        self.family: Optional[str] = self.chart.family
        self.Sig = LetterElem(_X1, self.chart)
        self.D = LetterElem(_X2, self.chart)
        self.u, self.v = (self.Sig + self.D) / 2, (self.Sig - self.D) / 2
        self.one = self.embed(1)
        self.zero = self.embed(0)
        self.Prod = self.u * self.v
        self.x, self.y, self.t = (self.embed(MultiPoly.var(name)) for name in ("x", "y", "t"))
        self._powers: Dict[Tuple[MultiPoly, int], LetterElem] = {}
        self._memo: Dict[Tuple[Callable, int], Any] = {}

    # -- embedding -------------------------------------------------------

    def embed(self, value) -> LetterElem:
        """Lift a printed form (a polynomial, or a + b*sqrt(d) in a root
        ring) or a scalar into the context ring."""
        return LetterElem.of(value, self.chart)

    # -- letters and their symmetric functions ---------------------------

    def _binomial_sum(self, j: int, weights, den: int) -> LetterElem:
        """The sum of w Sig^(j-i) D^i / den over the (i, w) of
        ``weights``, built term by term: Sig and D are the variables x1
        and x2, so Sig^(j-i) D^i is the one term of key
        (j-i) key(x1) + i key(x2), of degree j.
        The degree bound of the arith module is checked first."""
        if j > MAX_EXP:
            raise _overflow(j)
        terms = {_SIG_KEY * (j - i) + _D_KEY * i: w for i, w in weights}
        return LetterElem(MultiPoly._reduced(terms, den, j), self.chart)

    def from_generic(self, value):
        """φ(value), for φ: Q[Sig, D, x] -> this ring the ring map that
        fixes Sig (slot x1), D (slot x2), x and the scalars.

        Every chart holds its elements in Sig, D and x, so φ is the
        identity on the polynomial: the image shares it, and no
        polynomial is formed.  A scalar is its own image.  The generic
        value of a tree reading y or t is not in φ's domain, since y and
        t are free in the generic ring and functions of Sig and D in a
        root ring, and such a value raises ValueError."""
        if type(value) is not LetterElem:
            return value
        terms = value.poly._terms
        if terms and functools.reduce(operator.or_, terms) & _NOT_FIXED_FIELDS:
            raise ValueError(f"{value} reads y or t, which φ does not fix")
        return LetterElem(value.poly, self.chart)

    def S(self, j: int):
        """Complete homogeneous sum h_j(u, v) of degree j in the letters;
        0 for j < 0.  The closed form
        S_j = 2^(-j) sum over even i of C(j+1, i+1) Sig^(j-i) D^i,
        built with no product and kept per j; R1.1 checks it against
        h_j(u, v) formed by products."""
        if j < 0:
            return self.zero
        return self.memo(_closed_S, j)

    def phi(self, j: int):
        """Power sum u^j + v^j (so phi(0) = 2).  The closed form
        phi_j = 2^(1-j) sum over even i of C(j, i) Sig^(j-i) D^i, built
        with no product and kept per j; R1.2 checks it against
        p_j(u, v) formed by products."""
        if j < 0:
            raise ValueError("negative power-sum index")
        return self.memo(_closed_phi, j)

    def power(self, base, e: int):
        """base^e, cached per base by value, so two equal bases built
        separately share one element.  A base is keyed by its polynomial
        in the ring's coordinates, which is as canonical as the element
        and hashes without converting.  The power is the binomial theorem
        on the base's leading term, with no product (``arith._power``):
        u^j = 2^(-j) sum over i of C(j, i) Sig^(j-i) D^i for a letter."""
        if e < 0:
            raise ValueError("negative power")
        key = (self.embed(base).poly, e)
        got = self._powers.get(key)
        if got is None:
            got = self._powers[key] = LetterElem(_power(*key), self.chart)
        return got

    def memo(self, fn: SideFn, i: int):
        """fn(self, i), computed once per (fn, i) in this ring, for fn a
        callable of one index.  It keeps each record side at its n, each
        sum's operand of the summation index k at k and its operand and
        weight of n-k at j = n-k (each the same at every n), each
        embedded sequence value, S_j and phi_j, and R1's h_j(a, b) and
        p_j(a, b) at each j."""
        key = (fn, i)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = fn(self, i)
        return got

    # -- polynomial sequences ---------------------------------------------

    def npoly(self, kind: str, j: int):
        """Embedded Bernoulli/Euler/Genocchi polynomial in x."""
        return self.memo(_NPOLY[kind], j)

    # -- root-family extras ------------------------------------------------

    def _require_family(self) -> str:
        if self.family is None:
            raise ValueError("this context has no recurrence family attached")
        return self.family

    @property
    def delta(self) -> LetterElem:
        """sqrt(d) = D/c itself, available in root contexts."""
        self._require_family()
        return self.D / self.chart.scale

    def seq(self, kind: str, j: int):
        """Embedded bivariate sequence value, with negative index -> 0."""
        self._require_family()
        if j < 0:
            return self.zero
        return self.memo(_SEQ[kind], j)

    # perfbench/tracer.py wraps this method by name, so it stays a method
    def pair_product(self, left_fn, right_fn, k: int, j: int):
        """The two factors (left_fn(k), right_fn(j)) of one summand.  They
        are not multiplied here: :func:`eval_convolution_sum` multiplies
        every summand's factors into one accumulator."""
        return left_fn(k), right_fn(j)


_CONTEXTS: Dict[str, Context] = {}


def get_context(ring: str) -> Context:
    """Shared per-ring context (caches persist across checks)."""
    ctx = _CONTEXTS.get(ring)
    if ctx is None:
        ctx = _CONTEXTS[ring] = Context(ring)
    return ctx


def eval_convolution_sum(
    ctx: Context,
    n: int,
    term_low: Callable[[int], Any],
    term_high: Callable[[int], Any],
    *,
    use_binomial: bool = True,
    weight: Optional[Callable[[int], Any]] = None,
    parity: bool = False,
):
    """sum over k of C(n,k) * weight(n-k) * term_low(k) * term_high(n-k).

    ``term_low(k)`` is the summand's operand of k and ``term_high(j)``
    its operand of j = n-k, each an element; ``weight(j)`` is an
    optional exact scalar factor of j, and may signal a skipped term by
    returning 0; it is read before the operands.  A summand from the
    notation takes all three from ``Context.memo``, so the sum of every
    n reuses them.  With ``parity=True`` the sum runs only over k with
    n - k even.  Each summand is multiplied straight into one exact
    accumulator, a ``ProductSum``, with no polynomial per summand: every
    ring holds its elements as polynomials in Sig, D and x.
    """
    acc = ProductSum()
    for k in range(n % 2, n + 1, 2) if parity else range(n + 1):
        num = den = 1
        if weight is not None:
            w = weight(n - k)
            if not w:
                continue
            num, den = w.numerator, w.denominator
        if use_binomial:
            num *= math.comb(n, k)
        low, high = ctx.pair_product(term_low, term_high, k, n - k)
        acc.add(num, den, low.poly, high.poly)
    return LetterElem(acc.value(), ctx.chart)


class IdentityVerdict(Fields):
    """Outcome of one identity at one index.

    A failed comparison keeps its two side elements in ``sides``; the
    canonical ``diff``, ``lhs_value`` and ``rhs_value`` strings are
    rendered from them on first read, so a run that prints no failing
    index formats nothing.  ``reason`` says why the printed form could
    not be evaluated at n, and is then the ``diff``.
    """

    _fields = ("ident", "variant", "n", "passed", "reason", "status", "sides")

    def __init__(
        self,
        ident: str,
        variant: str,
        n: int,
        passed: bool,
        reason: Optional[str] = None,
        status: str = "",  # "pass" | "fail" | "skipped"
        sides: Optional[Tuple[Any, Any]] = None,
    ):
        self.ident = ident
        self.variant = variant
        self.n = n
        self.passed = passed
        self.reason = reason
        self.status = status or ("pass" if passed else "fail")
        self.sides = sides

    def __repr__(self) -> str:
        # the sides may be large polynomials; diff renders them on demand
        return (f"IdentityVerdict({self.ident!r}, {self.variant!r}, n={self.n}, "
                f"passed={self.passed}, reason={self.reason!r}, status={self.status!r})")

    @cached_property
    def diff(self) -> Optional[str]:
        """Canonical difference of the sides when non-zero."""
        if self.sides is None:
            return self.reason
        lhs_v, rhs_v = self.sides
        return str(lhs_v - rhs_v)

    @cached_property
    def lhs_value(self) -> Optional[str]:
        return None if self.sides is None else str(self.sides[0])

    @cached_property
    def rhs_value(self) -> Optional[str]:
        return None if self.sides is None else str(self.sides[1])


def _compare_sides(record: IdentityRecord, n: int, lhs_v, rhs_v, bindings=None) -> IdentityVerdict:
    """The verdict at n: pass iff ``lhs_v == rhs_v``.  Every element is
    canonical, so equality is the zero test of the difference, which is
    formed only when the sides are not equal; it raises for sides of two
    rings, ValueError for two root rings and TypeError otherwise.

    With ``bindings``, two equal sides of one type pass with no image,
    as an image is a function of the element.  Sides that differ, and
    equal values of two types (a constant and its scalar, which is not
    substituted), are each substituted, never as their difference, and
    their images compared.
    """
    if type(lhs_v) is not type(rhs_v) or lhs_v != rhs_v:
        if bindings is not None:
            lhs_v, rhs_v = substitute_value(lhs_v, bindings), substitute_value(rhs_v, bindings)
        if lhs_v != rhs_v and lhs_v - rhs_v:
            return IdentityVerdict(record.ident, record.variant, n, False, sides=(lhs_v, rhs_v))
    return IdentityVerdict(record.ident, record.variant, n, True)


def _check_range(
    record: IdentityRecord,
    lhs: SideFn,
    rhs: SideFn,
    n_range: Optional[Tuple[int, int]],
    ctx: Optional[Context],
    bindings: Optional[Dict[str, Any]] = None,
) -> List[IdentityVerdict]:
    """One verdict per n comparing ``lhs(ctx, n)`` with ``rhs(ctx, n)``,
    or their images under ``bindings`` when given (see
    :func:`_compare_sides`).  Each side is taken from the context's
    memo, so a re-check, a companion check or another point reuses it.
    It calls no public check, so a wrapper around one check never nests
    another.

    The point is checked once, before the first index, by the image of
    one: it refuses what every side's image would (an unknown variable,
    a discriminant that vanishes at the point), so a point is refused
    even where no side is substituted.
    """
    if ctx is None:
        ctx = get_context(record.ring)
    if bindings is not None:
        ctx.one.substitute(bindings)
    lo, hi = n_range if n_range is not None else record.default_range()
    out: List[IdentityVerdict] = []
    for n in range(lo, hi + 1):
        try:
            verdict = _compare_sides(record, n, ctx.memo(lhs, n), ctx.memo(rhs, n), bindings)
        except PrintedFormUndefined as exc:
            verdict = IdentityVerdict(
                record.ident, record.variant, n, False, f"undefined: {exc}"
            )
        out.append(verdict)
    return out


def run_record(
    record: IdentityRecord,
    n_range: Optional[Tuple[int, int]] = None,
    ctx: Optional[Context] = None,
) -> List[IdentityVerdict]:
    """Evaluate a record for every n in the range; one verdict per n."""
    return _check_range(record, record.lhs, record.rhs, n_range, ctx)


def substitute_value(value, bindings):
    """Substitute variables in a ring element (scalars pass through); a
    letter element gives its printed form substituted."""
    if isinstance(value, (LetterElem, QuadExtElem, MultiPoly)):
        return value.substitute(bindings)
    return value


def run_record_substituted(
    record: IdentityRecord,
    bindings: Dict[str, Any],
    n_range: Optional[Tuple[int, int]] = None,
    ctx: Optional[Context] = None,
) -> List[IdentityVerdict]:
    """Evaluate both sides, substitute each, and compare the images.

    The sides are specialized independently (never the difference), so a
    pass here is evidence about the substituted statement itself.  Two
    equal sides form no image, since equal elements have equal images at
    every point; sides that differ are each substituted.  A point that
    an image refuses is refused even where every side is equal.
    """
    return _check_range(record, record.lhs, record.rhs, n_range, ctx, bindings)


def parity_restriction_equivalence(
    record: IdentityRecord,
    n_range: Optional[Tuple[int, int]] = None,
    ctx: Optional[Context] = None,
) -> List[IdentityVerdict]:
    """Check the parity-restricted sum against its unrestricted companion.

    A record whose sum runs only over k = n (mod 2) may carry the closed
    form of the *unrestricted* sum -- the intermediate step of its own
    derivation, before the odd-index terms are dropped or moved.  That
    companion passing (full sum equals companion closed form) together
    with the record's own check certifies the step from the unrestricted
    to the restricted statement.  Records without a companion yield a
    single skipped verdict.
    """
    if record.companion is None:
        return [
            IdentityVerdict(record.ident, record.variant, -1, True, None, "skipped")
        ]
    return _check_range(
        record, record.unrestricted_lhs, record.unrestricted_rhs, n_range, ctx
    )
