"""Number and polynomial sequences used by the identity catalog.

Primary definitions are the recurrences; the EGF realizations in
:mod:`convcheck.egf` serve as independent oracles in the tests.

* Bernoulli numbers:  B_0 = 1,  B_n = -(1/(n+1)) sum_{k<n} C(n+1,k) B_k.
* Euler numbers (the integer sequence 1, 0, -1, 0, 5, ...):
  all odd-index values are 0 and E_0 = 1,
  E_{2m} = - sum_{j<m} C(2m, 2j) E_{2j}.
* Genocchi numbers:  G_n = 2 (1 - 2^n) B_n.
* Bernoulli/Euler/Genocchi polynomials in x, extracted from their EGFs.
* Bivariate second-order families over Q[y, t]:
    fibonacci / lucas:            u_n = y u_{n-1} + t u_{n-2},
                                  seeds (0, 1) and (2, y);
    balancing / lucas_balancing:  u_n = 6y u_{n-1} - t u_{n-2},
                                  seeds (0, 1) and (1, 3y).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ._scalar import Rational
from .arith import MultiPoly, binomial
from .egf import egf_special

__all__ = [
    "BIVARIATE_KINDS",
    "NumberFamily",
    "PolyFamily",
    "bernoulli_number",
    "bivariate_sequence",
    "euler_number",
    "genocchi_number",
    "number_polynomial",
]


class NumberFamily:
    """A lazily extended list of exact rational values."""

    def __init__(self, name: str, extend: Callable[[List[Rational]], Rational]):
        self.name = name
        self._extend = extend
        self._values: List[Rational] = []

    def value(self, n: int) -> Rational:
        if n < 0:
            raise ValueError(f"{self.name}: index must be non-negative, got {n}")
        while len(self._values) <= n:
            self._values.append(self._extend(self._values))
        return self._values[n]


def _bernoulli_step(known: List[Rational]) -> Rational:
    n = len(known)
    if n == 0:
        return Rational(1)
    acc = Rational(0)
    for k, bk in enumerate(known):
        acc += binomial(n + 1, k) * bk
    return -acc / (n + 1)


def _euler_step(known: List[Rational]) -> Rational:
    n = len(known)
    if n == 0:
        return Rational(1)
    if n % 2:
        return Rational(0)
    acc = Rational(0)
    for j in range(0, n, 2):
        acc += binomial(n, j) * known[j]
    return -acc


_BERNOULLI = NumberFamily("bernoulli", _bernoulli_step)
_EULER = NumberFamily("euler", _euler_step)


def bernoulli_number(n: int) -> Rational:
    return _BERNOULLI.value(n)


def euler_number(n: int) -> Rational:
    return _EULER.value(n)


def genocchi_number(n: int) -> Rational:
    if n < 0:
        raise ValueError(f"genocchi: index must be non-negative, got {n}")
    return 2 * (1 - Rational(2) ** n) * bernoulli_number(n)


class PolyFamily:
    """Polynomial sequence extracted from a special EGF, cached by prefix."""

    def __init__(self, which: str):
        self.which = which
        self._values: List[MultiPoly] = []

    def value(self, n: int) -> MultiPoly:
        if n < 0:
            raise ValueError(f"{self.which}: index must be non-negative, got {n}")
        if n >= len(self._values):
            order = max(n, 2 * len(self._values), 8)
            self._values = list(egf_special(self.which, order).coeffs)
        return self._values[n]


_POLY_FAMILIES = {
    which: PolyFamily(which) for which in ("bernoulli_poly", "euler_poly", "genocchi_poly")
}


def number_polynomial(kind: str, n: int) -> MultiPoly:
    """The n-th Bernoulli/Euler/Genocchi polynomial in the variable x.

    ``kind`` is 'bernoulli', 'euler', or 'genocchi' (the ``_poly``
    suffix is accepted too).
    """
    which = kind if kind.endswith("_poly") else f"{kind}_poly"
    family = _POLY_FAMILIES.get(which)
    if family is None:
        raise ValueError(f"unknown polynomial family {kind!r}")
    return family.value(n)


class _BivariateFamily:
    """u_n = p * u_{n-1} + q * u_{n-2} over Q[y, t], extended on demand."""

    def __init__(self, name: str, seed0: MultiPoly, seed1: MultiPoly, p: MultiPoly, q: MultiPoly):
        self.name = name
        self._p = p
        self._q = q
        self._values = [seed0, seed1]

    def value(self, n: int) -> MultiPoly:
        if n < 0:
            raise ValueError(f"{self.name}: index must be non-negative, got {n}")
        while len(self._values) <= n:
            u1, u2 = self._values[-1], self._values[-2]
            self._values.append(self._p * u1 + self._q * u2)
        return self._values[n]


def _make_bivariate() -> Dict[str, _BivariateFamily]:
    y = MultiPoly.var("y")
    t = MultiPoly.var("t")
    one = MultiPoly.constant(1)
    zero = MultiPoly.constant(0)
    return {
        "fibonacci": _BivariateFamily("fibonacci", zero, one, y, t),
        "lucas": _BivariateFamily("lucas", 2 * one, y, y, t),
        "balancing": _BivariateFamily("balancing", zero, one, 6 * y, -t),
        "lucas_balancing": _BivariateFamily("lucas_balancing", one, 3 * y, 6 * y, -t),
    }


_BIVARIATE = _make_bivariate()
BIVARIATE_KINDS = tuple(_BIVARIATE)


def bivariate_sequence(kind: str, n: int) -> MultiPoly:
    """n-th element of one of the bivariate families over Q[y, t]."""
    family = _BIVARIATE.get(kind)
    if family is None:
        raise ValueError(f"unknown bivariate family {kind!r}; choose from {BIVARIATE_KINDS}")
    return family.value(n)
