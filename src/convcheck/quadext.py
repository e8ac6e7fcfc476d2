"""Quadratic extension rings Q[x1,x2,x,y,t][d^(1/2)].

Elements are a + b*sqrt(d) with polynomial parts a, b and a fixed
discriminant polynomial d.  For the two discriminants used by the
root-substitution machinery (y^2 + 4t and 9y^2 - t) d is not a square
in the polynomial ring, so the extension is an integral domain and an
element is zero iff both parts are zero.  That is what makes identities
between root powers decidable part-by-part.

A :class:`RootPair` packages the two conjugate roots of a quadratic
X^2 - trace*X + norm together with the scale c relating their difference
to sqrt(d):  lam1 - lam2 = c * sqrt(d).

Both discriminants are linear in t with a constant coefficient,
d = alpha*t + r(y).  So the extension of Q[x, y, t] by sqrt(d) is itself
a polynomial ring: sending D to c*sqrt(d) maps Q[x, y, D] onto it, and
t -> (D^2/c^2 - r)/alpha, sqrt(d) -> D/c is the inverse map, which
respects sqrt(d)^2 = d.  The checker's root rings compute there
(:class:`convcheck.identities.core.LetterElem`), where a product needs
no fold of sqrt(d)^2 into d and the zero test is still exact, as the
maps are ring isomorphisms.  A QuadExtElem is the printed form of such
an element and the image of its substitution at a point, each formed
in one pass over the element's polynomial in x, y and D, with no
printed form kept (:meth:`convcheck.identities.core._RootChart.image`);
:meth:`QuadExtElem.substitute` substitutes a QuadExtElem itself.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from ._fields import FrozenFields
from ._scalar import Rational, is_scalar
from .arith import MultiPoly, Scalar

__all__ = [
    "Discriminant",
    "QuadExtElem",
    "RootPair",
    "FAMILIES",
    "make_root_pair",
    "qe_binet_ratio",
]


class Discriminant(FrozenFields):
    """A named square-free discriminant polynomial, equal and hashed by
    value."""

    __slots__ = _fields = ("name", "poly")

    def __init__(self, name: str, poly: MultiPoly):
        if poly.is_zero():
            raise ValueError("discriminant must be non-zero")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "poly", poly)


def _as_poly(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    if is_scalar(value):
        return MultiPoly.constant(value)
    raise TypeError(f"cannot embed {value!r} into the extension ring")


def _check_disc(disc: Discriminant, other: Discriminant) -> None:
    if other is not disc and other != disc:
        raise ValueError(f"mixed discriminants: {disc.name} vs {other.name}")


@lru_cache(maxsize=64)
def _substituted_disc(disc: Discriminant, bindings: tuple) -> Discriminant:
    # every element of a ring shares its discriminant, so substituting
    # many elements at one point substitutes the discriminant once
    return Discriminant(disc.name, disc.poly.substitute(dict(bindings)))


class QuadExtElem:
    """Immutable element a + b*sqrt(d) of a quadratic extension."""

    __slots__ = ("a", "b", "disc")

    def __init__(self, a: MultiPoly | Scalar, b: MultiPoly | Scalar, disc: Discriminant):
        object.__setattr__(self, "a", _as_poly(a))
        object.__setattr__(self, "b", _as_poly(b))
        object.__setattr__(self, "disc", disc)

    def __setattr__(self, *_):
        raise AttributeError("QuadExtElem is immutable")

    # -- helpers ---------------------------------------------------------

    def _coerce(self, other) -> "QuadExtElem | None":
        if isinstance(other, QuadExtElem):
            _check_disc(self.disc, other.disc)
            return other
        if isinstance(other, MultiPoly) or is_scalar(other):
            return QuadExtElem(_as_poly(other), MultiPoly.constant(0), self.disc)
        return None

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def conjugate(self) -> "QuadExtElem":
        return QuadExtElem(self.a, -self.b, self.disc)

    # -- ring operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadExtElem):
            if not (isinstance(other, MultiPoly) or is_scalar(other)):
                return NotImplemented
            other = QuadExtElem(_as_poly(other), MultiPoly.constant(0), self.disc)
        return self.disc == other.disc and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        # an element with b = 0 equals its polynomial a, so it hashes as a
        if self.b.is_zero():
            return hash(self.a)
        return hash((self.disc.name, self.a, self.b))

    def __neg__(self) -> "QuadExtElem":
        return QuadExtElem(-self.a, -self.b, self.disc)

    def __add__(self, other) -> "QuadExtElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExtElem(self.a + o.a, self.b + o.b, self.disc)

    __radd__ = __add__

    def __sub__(self, other) -> "QuadExtElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExtElem(self.a - o.a, self.b - o.b, self.disc)

    def __rsub__(self, other) -> "QuadExtElem":
        return (-self) + other

    def __mul__(self, other) -> "QuadExtElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        return QuadExtElem(a1 * a2 + b1 * b2 * self.disc.poly, a1 * b2 + b1 * a2, self.disc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "QuadExtElem":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"extension exponent must be a non-negative int, got {exponent!r}")
        result = QuadExtElem(MultiPoly.constant(1), MultiPoly.constant(0), self.disc)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def substitute(self, bindings: Mapping[str, MultiPoly | Scalar]) -> "QuadExtElem":
        """Substitute into both parts and into the discriminant itself."""
        new_disc = _substituted_disc(self.disc, tuple(sorted(bindings.items())))
        return QuadExtElem(self.a.substitute(bindings), self.b.substitute(bindings), new_disc)

    def __str__(self) -> str:
        if self.b.is_zero():
            return str(self.a)
        return f"({self.a}) + ({self.b})*sqrt({self.disc.poly})"

    def __repr__(self) -> str:
        return f"QuadExtElem({self!s} | d={self.disc.name})"


class RootPair(FrozenFields):
    """Conjugate roots lam1, lam2 of X^2 - trace*X + norm over Q[y,t].

    ``diff_scale`` is the scalar c with lam1 - lam2 = c*sqrt(d); it is
    what turns the antisymmetric part of a root power back into a plain
    polynomial (see :func:`qe_binet_ratio`).
    """

    __slots__ = _fields = ("family", "disc", "lam1", "lam2", "trace", "norm", "diff_scale")

    def __init__(self, family: str, disc: Discriminant, lam1: QuadExtElem, lam2: QuadExtElem,
                 trace: MultiPoly, norm: MultiPoly, diff_scale: Rational):
        for name, value in zip(self._fields, (family, disc, lam1, lam2, trace, norm, diff_scale)):
            object.__setattr__(self, name, value)


def _fibonacci_pair() -> RootPair:
    y = MultiPoly.var("y")
    t = MultiPoly.var("t")
    d = Discriminant("fibonacci", y * y + 4 * t)
    half = Rational(1, 2)
    lam1 = QuadExtElem(y * half, MultiPoly.constant(half), d)
    lam2 = lam1.conjugate()
    return RootPair("fibonacci", d, lam1, lam2, trace=y, norm=-t, diff_scale=Rational(1))


def _balancing_pair() -> RootPair:
    y = MultiPoly.var("y")
    t = MultiPoly.var("t")
    d = Discriminant("balancing", 9 * (y * y) - t)
    lam1 = QuadExtElem(3 * y, MultiPoly.constant(1), d)
    lam2 = lam1.conjugate()
    return RootPair("balancing", d, lam1, lam2, trace=6 * y, norm=t, diff_scale=Rational(2))


FAMILIES = ("fibonacci", "balancing")
_PAIRS = {"fibonacci": _fibonacci_pair, "balancing": _balancing_pair}


def make_root_pair(family: str) -> RootPair:
    """Root pair for one of the two built-in recurrence families.

    fibonacci:  X^2 - y*X - t,   lam = (y +- sqrt(y^2+4t))/2
    balancing:  X^2 - 6y*X + t,  lam = 3y +- sqrt(9y^2-t)
    """
    try:
        return _PAIRS[family]()
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}") from None


def qe_binet_ratio(pair: RootPair, n: int) -> MultiPoly:
    """(lam1^n - lam2^n) / (lam1 - lam2) as a plain polynomial.

    The difference of conjugate n-th powers is purely a multiple of
    sqrt(d); dividing by lam1 - lam2 = c*sqrt(d) leaves (2/c) times the
    sqrt(d)-coefficient.  A non-vanishing rational part would mean the
    inputs were not conjugate, so that is checked and rejected.
    """
    if n < 0:
        raise ValueError(f"qe_binet_ratio: n must be non-negative, got {n}")
    diff = pair.lam1 ** n - pair.lam2 ** n
    if not diff.a.is_zero():
        raise ValueError("power difference has a rational part; roots are not conjugate")
    return diff.b * (1 / pair.diff_scale)
