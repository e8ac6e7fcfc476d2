"""Number and polynomial sequences used by the identity catalog.

The primary definitions are integer recurrences and Appell sums; the
EGF realizations in :mod:`convcheck.egf` remain the independent oracle
the tests compare against.  Each number and Appell polynomial is a
``functools.cache`` function of its index, and each bivariate value is
its closed binomial sum, kept nowhere.  Each polynomial is built term
by term as integer numerators over one denominator, with no product,
after its degree is checked; a negative index is refused with a
one-line ValueError and never cached.

* Tangent numbers T_1, T_2, ... (1, 2, 16, 272, ...) come from the
  in-place integer recurrence of Brent & Harvey, "Fast computation of
  Bernoulli, Tangent and Secant numbers" (2013, arXiv:1108.0286):
  O(m^2) additions and small-integer multiplications, no rationals;
  its secant recurrence is kept in the tests as a reference for E_n.
* Bernoulli numbers:  B_0 = 1,  B_1 = -1/2,  B_n = 0 for odd n >= 3,
  B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)).
* Euler numbers (the integer sequence 1, 0, -1, 0, 5, ...), from the
  same list: E_2m = 1 + sum_(j=1..m) (-1)^j C(2m, 2j-1) T_j, odd ones 0
  (E_n = sum_k C(n, k-1) (2^k - 4^k) B_k / k, with B_2j as above).
* Genocchi numbers:  G_n = 2 (1 - 2^n) B_n.
* Bernoulli/Euler/Genocchi polynomials in x as Appell sums
  P_n(x) = sum_k C(n,k) a_k x^(n-k), with a_k = B_k, G_(k+1)/(k+1)
  (the EGF coefficients of 2/(e^z+1)) and G_k respectively.
* Bivariate second-order families over Q[y, t]:
    fibonacci / lucas:            u_n = y u_{n-1} + t u_{n-2},
                                  seeds (0, 1) and (2, y);
    balancing / lucas_balancing:  u_n = 6y u_{n-1} - t u_{n-2},
                                  seeds (0, 1) and (1, 3y).
  Each is a closed binomial sum:
    F_n = sum_k C(n-1-k, k) y^(n-1-2k) t^k,
    L_n = sum_k n/(n-k) C(n-k, k) y^(n-2k) t^k  (L_0 = 2),
    B*_n = F_n(6y, -t),  C_n = L_n(6y, -t)/2.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List

from ._scalar import Rational
from .arith import MAX_EXP, VARIABLES, MultiPoly, _VAR_KEYS, _overflow

__all__ = [
    "BIVARIATE_KINDS",
    "bernoulli_number",
    "bivariate_sequence",
    "euler_number",
    "genocchi_number",
    "number_polynomial",
]


def _zigzag_numbers(count: int) -> List[int]:
    """The first ``count`` tangent numbers, zero-based (entry i is
    T_(i+1)), by Brent & Harvey's in-place algorithm TangentNumbers."""
    a = [1] * count
    for i in range(1, count):
        a[i] = i * a[i - 1]
    for k in range(1, count):
        for j in range(k, count):
            a[j] = (j - k) * a[j - 1] + (j - k + 2) * a[j]
    return a


class _ZigzagList:
    """The tangent numbers, recomputed to at least twice the current
    length whenever a larger index is asked for."""

    def __init__(self):
        self.values: List[int] = []

    def get(self, i: int) -> int:
        if i >= len(self.values):
            self.values = _zigzag_numbers(max(i + 1, 2 * len(self.values)))
        return self.values[i]


_TANGENT = _ZigzagList()  # entry i is T_(i+1)


def _check_index(name: str, n: int) -> None:
    if n < 0:
        raise ValueError(f"{name}: index must be non-negative, got {n}")


@functools.cache
def bernoulli_number(n: int) -> Rational:
    _check_index("bernoulli", n)
    if n < 2:
        return Rational(1) if n == 0 else Rational(-1, 2)
    if n % 2:
        return Rational(0)
    m = n // 2
    four_m = 4 ** m
    return Rational((-1) ** (m - 1) * n * _TANGENT.get(m - 1), four_m * (four_m - 1))


@functools.cache
def euler_number(n: int) -> Rational:
    _check_index("euler", n)
    if n % 2:
        return Rational(0)
    # c = C(n, 2j-1), stepped by C(n, 2j+1) / c = (n-2j+1)(n-2j) / (2j(2j+1))
    _TANGENT.get(max(n // 2 - 1, 0))
    total, c = 1, n
    for j, tangent in enumerate(_TANGENT.values[:n // 2], 1):
        total += (-1) ** j * c * tangent
        c = c * (n - 2 * j + 1) * (n - 2 * j) // (2 * j * (2 * j + 1))
    return Rational(total)


@functools.cache
def genocchi_number(n: int) -> Rational:
    _check_index("genocchi", n)
    return 2 * (1 - 2 ** n) * bernoulli_number(n)


# the weight a_k of each Appell family; perfbench's tracer, which rebinds
# the number functions, rebinds the entries of this dict too
_WEIGHTS: Dict[str, Callable[[int], Rational]] = {
    "bernoulli_poly": bernoulli_number,
    "euler_poly": functools.cache(lambda k: genocchi_number(k + 1) / (k + 1)),
    "genocchi_poly": genocchi_number,
}
_X_KEY, _Y_KEY, _T_KEY = (_VAR_KEYS[VARIABLES.index(name)] for name in ("x", "y", "t"))


@functools.cache
def _appell(which: str, n: int) -> MultiPoly:
    # integer numerators over the lcm of the weights' denominators, and
    # x^(n-k) one packed key
    if n > MAX_EXP:
        raise _overflow(n)
    weight = _WEIGHTS[which]
    weights = [weight(k) for k in range(n + 1)]
    den = math.lcm(*(w.denominator for w in weights))
    terms = {(n - k) * _X_KEY: math.comb(n, k) * w.numerator * (den // w.denominator)
             for k, w in enumerate(weights) if w}
    return MultiPoly._reduced(terms, den, n)


def number_polynomial(kind: str, n: int) -> MultiPoly:
    """The n-th Bernoulli/Euler/Genocchi polynomial in the variable x.

    ``kind`` is 'bernoulli', 'euler', or 'genocchi' (the ``_poly``
    suffix is accepted too).
    """
    which = kind if kind.endswith("_poly") else f"{kind}_poly"
    if which not in _WEIGHTS:
        raise ValueError(f"unknown polynomial family {kind!r}")
    _check_index(which, n)
    return _appell(which, n)


# kind -> (a Lucas kind, the scale p of y, the sign s of t, the
# denominator): the n-th value is F_n(p*y, s*t) or L_n(p*y, s*t) over it
_BIVARIATE = {
    "fibonacci": (False, 1, 1, 1),
    "lucas": (True, 1, 1, 1),
    "balancing": (False, 6, -1, 1),
    "lucas_balancing": (True, 6, -1, 2),
}
BIVARIATE_KINDS = tuple(_BIVARIATE)


def bivariate_sequence(kind: str, n: int) -> MultiPoly:
    """n-th element of one of the bivariate families over Q[y, t], built
    from its closed binomial sum: the term y^(m-2k) t^k, m = n - 1 for
    F_n and n for L_n, is one packed key, so no product is formed, and
    each coefficient is the one before times a ratio of small integers."""
    if kind not in _BIVARIATE:
        raise ValueError(f"unknown bivariate family {kind!r}; choose from {BIVARIATE_KINDS}")
    _check_index(kind, n)
    lucas, p, s, den = _BIVARIATE[kind]
    m = n if lucas else n - 1
    if m > MAX_EXP:
        raise _overflow(m)
    # c_k = a_k p^(m-2k) s^k, with a_k = C(m-k, k) for F_n and
    # n/(n-k) C(n-k, k) for L_n (L_0 = 2): a_k/a_(k-1) is
    # j(j-1)/(k(m-k+1)) for F_n and j(j-1)/(k(m-k)) for L_n, j = m-2k+2
    c = (2 if lucas and not n else 1) * p ** max(m, 0)
    terms = {}
    for k in range(m // 2 + 1):
        if k:
            j = m - 2 * k + 2
            c = c * s * j * (j - 1) // (p * p * k * (m - k + 1 - lucas))
        terms[(m - 2 * k) * _Y_KEY + k * _T_KEY] = c
    return MultiPoly._reduced(terms, den, max(m, 0))
