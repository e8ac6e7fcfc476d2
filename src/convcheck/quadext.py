"""Quadratic extension rings Q[x1,x2,x,y,t][d^(1/2)].

Elements are a + b*sqrt(d) with polynomial parts a, b and a fixed
discriminant polynomial d.  For the discriminants of the root rings,
stated once in :mod:`convcheck.identities.core`, d is not a square in
the polynomial ring, so the extension is an integral domain and an
element is zero iff both parts are zero.

Each of those discriminants is linear in t with a constant coefficient,
d = alpha*t + r(y), and the letters' sum is Sig = k*y.  So the extension
of Q[x, y, t] by sqrt(d) is itself a polynomial ring: sending Sig to
k*y and D to c*sqrt(d) maps Q[x, Sig, D] onto it, and y -> Sig/k,
t -> (D^2/c^2 - r(Sig/k))/alpha, sqrt(d) -> D/c is the inverse map,
which respects sqrt(d)^2 = d.  The checker's root rings compute there,
in the generic ring's coordinates
(:class:`convcheck.identities.core.LetterElem`), where a product needs
no fold of sqrt(d)^2 into d and the zero test is still exact, as the
maps are ring isomorphisms.  A QuadExtElem is the printed form of such
an element and the image of its substitution at a point, each formed
in one pass over the element's polynomial in Sig, D and x, with no
printed form kept (:meth:`convcheck.identities.core._Chart.image`, the
one route for every ring); :meth:`QuadExtElem.substitute` substitutes a
QuadExtElem itself.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from ._fields import FrozenFields
from ._scalar import is_scalar
from .arith import MultiPoly, Scalar

__all__ = ["Discriminant", "QuadExtElem"]


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
