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
  The list serves prefixes: an Appell polynomial grows it to all the
  weights it reads at once.
* Bernoulli numbers:  B_0 = 1,  B_1 = -1/2,  B_n = 0 for odd n >= 3,
  B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)).
* Euler numbers (the integer sequence 1, 0, -1, 0, 5, ...), from the
  same list: E_2m = 1 + sum_(j=1..m) (-1)^j C(2m, 2j-1) T_j, odd ones 0
  (E_n = sum_k C(n, k-1) (2^k - 4^k) B_k / k, with B_2j as above).
* One even index past the list is not worth the list's O(m^2) steps:
  B_n and E_n are then the integers that certified intervals pin
  (Harvey, "A multimodular algorithm for computing Bernoulli numbers",
  Math. Comp. 79 (2010), section 1):
    |B_n| D_n = 2 n! D_n zeta(n) / (2 pi)^n,  D_n = prod_((p-1)|n) p
                                              (von Staudt-Clausen),
    |E_n|     = 2^(n+2) n! beta(n+1) / pi^(n+1),
  with zeta, beta and Machin's pi bounded in fixed-point integers, each
  rounded the safe way; an interval is accepted only when it holds
  exactly one integer, else computed again at twice the precision.
  Which route a value takes depends only on the list's length.
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
from typing import Callable, Dict, List, Tuple

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


# -- one number as the integer a certified interval pins -------------------
#
# Every bound below is an integer at the scale 2^prec, rounded the safe
# way; no float enters a bound.  A float picks only where a computation
# stops: its first precision and the length of a series.

_GUARD_BITS = 8  # spare bits of the first precision
_PI = [0, 0, 0]  # precision, value and error in ulps of the widest pi so far


def _arctan_inverse(x: int, prec: int) -> Tuple[int, int]:
    """arctan(1/x) 2^prec, x >= 2, as its Taylor series with each term
    rounded down, and the number of terms: each term is off by less than
    one ulp, and so is the tail left out once x^-(2k+1) 2^prec is below
    one (the floor of a floor is the floor of the whole quotient)."""
    power, total, k = (1 << prec) // x, 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        power //= x * x
        k += 1
    return total, k


def _pi_bounds(prec: int) -> Tuple[int, int]:
    """Integers lo <= pi 2^prec <= hi by Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239), computed with spare bits for
    its error and kept at the widest precision asked for so far."""
    wide = prec + prec.bit_length() + 4
    if _PI[0] < wide:
        a, k = _arctan_inverse(5, wide)
        b, j = _arctan_inverse(239, wide)
        _PI[:] = wide, 16 * a - 4 * b, 16 * (k + 1) + 4 * (j + 1)
    wide, value, error = _PI
    return (value - error) >> (wide - prec), -(-(value + error) >> (wide - prec))


def _rounded_power(a: int, n: int, prec: int, up: bool) -> int:
    """(a 2^-prec)^n 2^prec, a >= 0, by squaring with every product
    rounded down, or up when ``up``: a lower or an upper bound of the
    power of any number that a 2^-prec bounds from below or above."""
    result = 1 << prec
    while n:
        if n & 1:
            result = -(-result * a >> prec) if up else result * a >> prec
        n >>= 1
        if n:
            a = -(-a * a >> prec) if up else a * a >> prec
    return result


def _zeta_bounds(n: int, prec: int) -> Tuple[int, int]:
    """Integers lo <= zeta(n) 2^prec <= hi, n >= 2: the first K terms,
    each rounded down, and the tail sum_(k>K) k^-n, which lies between
    the integrals (K+1)^(1-n)/(n-1) and K^(1-n)/(n-1); K^n is about
    2^prec, so the two are about an ulp apart."""
    one = 1 << prec
    count = math.ceil(2 ** (prec / n))
    head = sum(one // k ** n for k in range(1, count + 1))
    tail_lo = one // ((count + 1) ** (n - 1) * (n - 1))
    tail_hi = -(-one // (count ** (n - 1) * (n - 1)))
    return head + tail_lo, head + count + tail_hi


def _beta_bounds(s: int, prec: int) -> Tuple[int, int]:
    """Integers lo <= beta(s) 2^prec <= hi, s >= 2, for Dirichlet's
    beta(s) = sum_(k>=0) (-1)^k (2k+1)^-s: an alternating series of
    falling terms lies between any two consecutive partial sums, here
    the ones of K and K + 1 terms, each term rounded down; (2K+1)^s is
    about 2^prec, so the two are about an ulp apart."""
    one = 1 << prec
    count = math.ceil(2 ** (prec / s) / 2)
    head = sum(-(one // (2 * k + 1) ** s) if k % 2 else one // (2 * k + 1) ** s
               for k in range(count))
    last = one // (2 * count + 1) ** s
    other = head - last if count % 2 else head + last
    return min(head, other) - count - 1, max(head, other) + count + 1


def _pinned(factor: int, bounds: Callable[[int], Tuple[int, int]], tau: int, power: int) -> int:
    """The integer factor s / (tau pi)^power, where bounds(prec) bounds
    s 2^prec: an interval for it at a precision picked from its size,
    accepted only when it holds exactly one integer, else computed again
    at twice the precision.  At least 8 bits keep tau pi's lower bound
    above one.  Correct bounds always hold the true integer, so an
    interval that holds none proves a bound or the factor wrong, and
    raises at once."""
    size = factor.bit_length() - power * math.log2(tau * math.pi)
    prec = max(int(size) + power.bit_length() + _GUARD_BITS, 8)
    while True:
        s_lo, s_hi = bounds(prec)
        pi_lo, pi_hi = _pi_bounds(prec)
        lo = -(-factor * s_lo // _rounded_power(tau * pi_hi, power, prec, True))
        hi = factor * s_hi // _rounded_power(tau * pi_lo, power, prec, False)
        if lo == hi:
            return lo
        if lo > hi:
            raise RuntimeError(f"no integer in [{lo}, {hi}] at {prec} bits: a bound or the factor is wrong")
        prec *= 2


def _staudt_denominator(n: int) -> int:
    """The denominator of B_n, n >= 2 even: the product of the primes p
    with (p - 1) | n (von Staudt-Clausen)."""
    return math.prod(d + 1 for d in range(1, n + 1)
                     if n % d == 0 and all((d + 1) % q for q in range(2, math.isqrt(d + 1) + 1)))


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
    if m <= len(_TANGENT.values):
        four_m = 4 ** m
        return Rational((-1) ** (m - 1) * n * _TANGENT.values[m - 1], four_m * (four_m - 1))
    # |B_n| D_n = 2 n! D_n zeta(n) / (2 pi)^n
    den = _staudt_denominator(n)
    top = _pinned(2 * math.factorial(n) * den, functools.partial(_zeta_bounds, n), 2, n)
    return Rational((-1) ** (m - 1) * top, den)


@functools.cache
def euler_number(n: int) -> Rational:
    _check_index("euler", n)
    if n % 2:
        return Rational(0)
    m = n // 2
    if m > len(_TANGENT.values):
        # |E_n| = 2^(n+2) n! beta(n+1) / pi^(n+1)
        top = _pinned(2 ** (n + 2) * math.factorial(n), functools.partial(_beta_bounds, n + 1), 1, n + 1)
        return Rational((-1) ** m * top)
    # c = C(n, 2j-1), stepped by C(n, 2j+1) / c = (n-2j+1)(n-2j) / (2j(2j+1))
    total, c = 1, n
    for j, tangent in enumerate(_TANGENT.values[:m], 1):
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
    # the weights are a prefix of B_k, G_k or G_(k+1): the tangent list
    # grows to them all at once, so that none is pinned on its own
    _TANGENT.get(max((n + (which == "euler_poly")) // 2 - 1, 0))
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
