"""Exact rational scalars.

Every computation in this package is exact: coefficients are rationals in
lowest terms with positive denominator, and equality of results means
literal equality of canonical forms.  Scalars are ``fractions.Fraction``
values, exported as ``Rational``; the polynomial kernel in ``arith.py``
keeps its own integer numerators and builds a ``Rational`` only when a
coefficient is read out.
"""

from __future__ import annotations

from fractions import Fraction

BACKEND = "fraction"
Rational = Fraction

#: types accepted wherever a scalar is expected
SCALAR_TYPES = (int, Fraction)


def as_rational(value):
    """Coerce *value* (int, Fraction, or 'p/q' string) to a Rational,
    raising TypeError for anything else."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def is_scalar(value) -> bool:
    return isinstance(value, SCALAR_TYPES)


def num_den(value):
    """Numerator and positive denominator of a scalar in lowest terms."""
    if isinstance(value, int):
        return int(value), 1
    q = as_rational(value)
    return q.numerator, q.denominator
