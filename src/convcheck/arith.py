"""Sparse multivariate polynomials over the exact rationals.

A polynomial lives in the fixed ambient ring Q[x1, x2, x, y, t].  The
variable order never changes; a monomial is a 5-tuple of non-negative
integer exponents aligned with :data:`VARIABLES`.  A :class:`MultiPoly`
stores only its non-zero terms, so the representation is canonical: two
polynomials are equal iff their term dicts are equal.

Conventions baked in here and relied on everywhere above:

* the zero polynomial has an empty term dict;
* ``p ** 0`` is one for every p, including zero (empty products are 1);
* ``binomial(n, k)`` is zero for k outside [0, n].
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple, Union

from ._scalar import BACKEND, Fraction, Rational, as_rational, is_scalar

__all__ = [
    "BACKEND",
    "Rational",
    "Monomial",
    "MultiPoly",
    "VARIABLES",
    "ZERO_EXP",
    "binomial",
    "format_poly",
    "variable",
]

VARIABLES: Tuple[str, ...] = ("x1", "x2", "x", "y", "t")
_NVARS = len(VARIABLES)
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
ZERO_EXP: Tuple[int, ...] = (0,) * _NVARS

Monomial = Tuple[int, int, int, int, int]
Scalar = Union[int, Fraction, Rational]


def binomial(n: int, k: int):
    """Binomial coefficient C(n, k) as an exact integer.

    Requires n >= 0; returns 0 when k < 0 or k > n, which is the
    convention every convolution in this package leans on.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be non-negative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4])


def _mono_degree(a: Monomial) -> int:
    return a[0] + a[1] + a[2] + a[3] + a[4]


class MultiPoly:
    """Immutable sparse polynomial in Q[x1, x2, x, y, t].

    Construct from a mapping of exponent tuples to coefficients, or use
    the classmethods :meth:`constant` / :meth:`var`.  All arithmetic
    returns new canonical instances; zero coefficients never survive.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: Dict[Monomial, Rational] = {}
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != _NVARS or any(not isinstance(e, int) or e < 0 for e in exp):
                    raise ValueError(f"bad exponent tuple {exp!r}")
                q = as_rational(coeff)
                if q:
                    clean[tuple(exp)] = q
        self._terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, terms: Dict[Monomial, Rational]) -> "MultiPoly":
        # internal fast path: terms must already be canonical
        self = object.__new__(cls)
        self._terms = terms
        self._hash = None
        return self

    @classmethod
    def constant(cls, value: Scalar) -> "MultiPoly":
        q = as_rational(value)
        return cls._raw({ZERO_EXP: q} if q else {})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}; choose from {VARIABLES}")
        exp = [0] * _NVARS
        exp[_VAR_INDEX[name]] = 1
        return cls._raw({tuple(exp): as_rational(1)})

    # -- inspection ------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, Rational]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and ZERO_EXP in self._terms)

    def constant_value(self):
        """The value of a constant polynomial, as a Rational."""
        if not self._terms:
            return as_rational(0)
        if self.is_constant():
            return self._terms[ZERO_EXP]
        raise ValueError(f"not a constant polynomial: {self}")

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(_mono_degree(e) for e in self._terms)

    def coeff(self, exp: Monomial):
        return self._terms.get(tuple(exp), as_rational(0))

    # -- arithmetic ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        if is_scalar(other):
            return self._terms == MultiPoly.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            self._hash = h
        return h

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "MultiPoly":
        if is_scalar(other):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            acc = out.get(exp)
            if acc is None:
                out[exp] = coeff
            else:
                acc = acc + coeff
                if acc:
                    out[exp] = acc
                else:
                    del out[exp]
        return MultiPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        if is_scalar(other):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            acc = out.get(exp)
            if acc is None:
                out[exp] = -coeff
            else:
                acc = acc - coeff
                if acc:
                    out[exp] = acc
                else:
                    del out[exp]
        return MultiPoly._raw(out)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if is_scalar(other):
            q = as_rational(other)
            if not q:
                return MultiPoly._raw({})
            return MultiPoly._raw({e: c * q for e, c in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: Dict[Monomial, Rational] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = _mono_mul(ea, eb)
                prod = ca * cb
                acc = out.get(exp)
                if acc is None:
                    out[exp] = prod
                else:
                    acc = acc + prod
                    if acc:
                        out[exp] = acc
                    else:
                        del out[exp]
        return MultiPoly._raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiPoly":
        if not is_scalar(other):
            return NotImplemented
        q = as_rational(other)
        if not q:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (1 / q)

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial exponent must be a non-negative int, got {exponent!r}")
        result = MultiPoly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- substitution and printing --------------------------------------

    def substitute(self, bindings: Mapping[str, "MultiPoly | Scalar"]) -> "MultiPoly":
        """Single-pass substitution of variables by polynomials or scalars.

        Unbound variables are left alone.  The pass is simultaneous: a
        binding's value is never re-substituted, so binding x to x+1 is
        well-defined.
        """
        subs: Dict[int, MultiPoly] = {}
        for name, value in bindings.items():
            if name not in _VAR_INDEX:
                raise ValueError(f"unknown variable {name!r} in substitution")
            subs[_VAR_INDEX[name]] = value if isinstance(value, MultiPoly) else MultiPoly.constant(value)
        if not subs:
            return self
        pow_cache: Dict[Tuple[int, int], MultiPoly] = {}

        def cached_pow(i: int, e: int) -> MultiPoly:
            key = (i, e)
            got = pow_cache.get(key)
            if got is None:
                got = subs[i] ** e
                pow_cache[key] = got
            return got

        total = MultiPoly._raw({})
        for exp, coeff in self._terms.items():
            residual = [0] * _NVARS
            factor = None
            for i, e in enumerate(exp):
                if e and i in subs:
                    piece = cached_pow(i, e)
                    factor = piece if factor is None else factor * piece
                else:
                    residual[i] = e
            term = MultiPoly._raw({tuple(residual): coeff})
            total = total + (term if factor is None else term * factor)
        return total

    def sorted_terms(self):
        """Terms in canonical print order: total degree then exponent
        tuple, both descending."""
        return sorted(self._terms.items(), key=lambda item: (_mono_degree(item[0]), item[0]), reverse=True)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({format_poly(self)})"


def format_poly(p: MultiPoly) -> str:
    """Canonical human-readable form: terms by descending (degree, exponents),
    coefficients as p/q, '*' between factors, no '+ -' sequences."""
    if p.is_zero():
        return "0"
    pieces = []
    for exp, coeff in p.sorted_terms():
        factors = []
        for name, e in zip(VARIABLES, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = coeff if coeff > 0 else -coeff
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = [body if sign == "+" else f"-{body}"]
    for sign, body in pieces[1:]:
        out.append(f" {'+' if sign == '+' else '-'} {body}")
    return "".join(out)


def variable(name: str) -> MultiPoly:
    return MultiPoly.var(name)

