"""Exact rational scalar backend.

Every computation in this package is exact: coefficients are rationals in
lowest terms with positive denominator, and equality of results means
literal equality of canonical forms.  Two interchangeable scalar types
satisfy that contract:

* ``gmpy2.mpq`` -- a compiled rational, used when gmpy2 is importable;
* ``fractions.Fraction`` -- the stdlib fallback, always available.

The selection happens once at import.  Set ``CONVCHECK_PURE=1`` in the
environment to force the pure-Python fallback.  Both types hash and
compare interchangeably, so values produced under one backend equal the
corresponding values produced under the other.
"""

from __future__ import annotations

import os
from fractions import Fraction

BACKEND: str

if os.environ.get("CONVCHECK_PURE") == "1":
    Rational = Fraction
    BACKEND = "fraction"
else:
    try:
        from gmpy2 import mpq as Rational  # type: ignore[import-not-found]

        BACKEND = "gmpy2"
    except ImportError:  # pragma: no cover - depends on environment
        Rational = Fraction
        BACKEND = "fraction"

#: types accepted wherever a scalar is expected
SCALAR_TYPES = (int, Fraction, Rational)

ZERO = Rational(0)
ONE = Rational(1)


def as_rational(value):
    """Coerce *value* (int, Fraction, backend rational, or 'p/q' string)
    to the active backend type, raising TypeError for anything else."""
    if isinstance(value, Rational):
        return value
    if isinstance(value, (int, Fraction)):
        return Rational(value)
    if isinstance(value, str):
        return Rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def is_scalar(value) -> bool:
    return isinstance(value, SCALAR_TYPES)
