"""Sparse multivariate polynomials over the exact rationals.

A polynomial lives in the fixed ambient ring Q[x1, x2, x, y, t].  The
variable order never changes; a monomial is a 5-tuple of non-negative
integer exponents aligned with :data:`VARIABLES`.

Representation.  A :class:`MultiPoly` stores integer numerators over one
positive common denominator, as FLINT's ``fmpq_poly`` does: ``_terms``
maps a packed monomial key to a non-zero ``int`` numerator and ``_den``
is the shared denominator, so the coefficient of a term is
``_terms[key] / _den``.  A key packs the total degree and the five
exponents into one int (Monagan & Pearce, CASC 2007)::

    key = deg << 80 | e_x1 << 64 | e_x2 << 48 | e_x << 32 | e_y << 16 | e_t

Each field is :data:`FIELD_BITS` = 16 bits wide, so multiplying two
monomials is one int addition, and comparing keys compares (total
degree, exponent tuple), the print order.  A field can hold at most
:data:`MAX_EXP` = 65535; since no exponent exceeds the total degree, a
polynomial of total degree above ``MAX_EXP`` is refused with
``OverflowError`` before a field could carry into its neighbour.  Each
polynomial carries an upper bound on its total degree (a product adds
its operands' bounds, a sum takes their maximum), so the guard costs
O(1) per operation; the exact degree is consulted only when the bound
exceeds ``MAX_EXP``.

Canonical form: no numerator is zero, ``_den > 0``, gcd(``_den``, every
numerator) = 1, and the zero polynomial is ``{}`` over 1.  Two
polynomials are therefore equal iff their denominators and term dicts
are equal.

A product by one term, a scalar included, is a key shift; every other
product is formed by :class:`ProductSum`: a sum of products Σ s·p·q
goes into one integer accumulator, with no intermediate polynomial
per product (the same idea as the one-pass division f − Σ q·g of
Monagan & Pearce).  Both pass the one degree guard above,
:func:`_product_degree`.  A power is the binomial theorem on its
leading term, with no product (:func:`_power`).

Conventions baked in here and relied on everywhere above:

* the zero polynomial has an empty term dict;
* ``p ** 0`` is one for every p, including zero (empty products are 1);
* ``binomial(n, k)`` is zero for k outside [0, n].
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Mapping
from typing import Dict, List, Tuple, Union

from ._scalar import Rational, as_rational, is_scalar, num_den

__all__ = [
    "FIELD_BITS",
    "MAX_EXP",
    "Rational",
    "Monomial",
    "MultiPoly",
    "ProductSum",
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
Scalar = Union[int, Rational]

#: width of one exponent field of a packed monomial key
FIELD_BITS = 16
#: largest total degree (hence exponent) a polynomial may have
MAX_EXP = (1 << FIELD_BITS) - 1
_SHIFTS = tuple(FIELD_BITS * (_NVARS - 1 - i) for i in range(_NVARS))
_DEG_SHIFT = FIELD_BITS * _NVARS
# key of the monomial consisting of one variable, degree field included
_VAR_KEYS = tuple((1 << _DEG_SHIFT) | (1 << s) for s in _SHIFTS)
# the keys of a binding that a substitution reads as a scalar times a
# monomial: the constant's and each variable's
_UNIT_KEYS = frozenset((0,) + _VAR_KEYS)

_gcd = math.gcd


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


def _overflow(degree: int) -> OverflowError:
    return OverflowError(f"total degree {degree} exceeds the packed exponent bound {MAX_EXP}")


def _product_degree(p: "MultiPoly", q: "MultiPoly") -> int:
    """A bound on the degree of p·q; past MAX_EXP, where bounds can
    overshoot, the exact degree, refused if it is past too."""
    deg = p._deg + q._deg
    if deg > MAX_EXP:
        deg = p.total_degree() + q.total_degree()
        if deg > MAX_EXP:
            raise _overflow(deg)
    return deg


def _power_degree(p: "MultiPoly", e: int) -> int:
    """The same for p^e."""
    deg = e * p._deg
    if deg > MAX_EXP:
        deg = e * p.total_degree()
        if deg > MAX_EXP:
            raise _overflow(deg)
    return deg


def _index(name: str) -> int:
    i = _VAR_INDEX.get(name)
    if i is None:
        raise ValueError(f"unknown variable {name!r}; choose from {VARIABLES}")
    return i


def _pack(exp: Monomial) -> int:
    key = sum(exp) << _DEG_SHIFT
    for e, s in zip(exp, _SHIFTS):
        key |= e << s
    return key


def _unpack(key: int) -> Monomial:
    return tuple((key >> s) & MAX_EXP for s in _SHIFTS)


class MultiPoly:
    """Immutable sparse polynomial in Q[x1, x2, x, y, t].

    Construct from a mapping of exponent tuples to coefficients, or use
    the classmethods :meth:`constant` / :meth:`var`.  All arithmetic
    returns new canonical instances; zero coefficients never survive.
    """

    __slots__ = ("_terms", "_den", "_deg", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        if terms is not None and not isinstance(terms, Mapping):
            raise TypeError(f"MultiPoly needs a mapping of exponent tuples to coefficients, "
                            f"got {type(terms).__name__}")
        clean: Dict[int, Rational] = {}
        deg = 0
        if terms:
            for exp, coeff in terms.items():
                if len(exp) != _NVARS or any(not isinstance(e, int) or e < 0 for e in exp):
                    raise ValueError(f"bad exponent tuple {exp!r}")
                q = as_rational(coeff)
                if q:
                    d = sum(exp)
                    if d > MAX_EXP:
                        raise _overflow(d)
                    clean[_pack(exp)] = q
                    deg = max(deg, d)
        den = math.lcm(*(q.denominator for q in clean.values()))
        self._terms = {k: q.numerator * (den // q.denominator) for k, q in clean.items()}
        self._den = den
        self._deg = deg
        self._hash = None

    @classmethod
    def _raw(cls, terms: Dict[int, int], den: int, deg: int) -> "MultiPoly":
        # internal fast path: terms over den must already be canonical
        self = object.__new__(cls)
        self._terms = terms
        self._den = den
        self._deg = deg
        self._hash = None
        return self

    @classmethod
    def _reduced(cls, terms: Dict[int, int], den: int, deg: int) -> "MultiPoly":
        # terms must be free of zeros and den positive; divides out the
        # common factor of den and the numerators
        if not terms:
            return cls._raw(terms, 1, 0)
        if den != 1:
            g = _gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {k: c // g for k, c in terms.items()}
        return cls._raw(terms, den, deg)

    @classmethod
    def constant(cls, value: Scalar) -> "MultiPoly":
        num, den = num_den(value)
        if not num:
            return cls._raw({}, 1, 0)
        return cls._raw({0: num}, den, 0)

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls._raw({_VAR_KEYS[_index(name)]: 1}, 1, 1)

    # -- inspection ------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, Rational]:
        den = self._den
        return {_unpack(k): Rational(c, den) for k, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self):
        """The value of a constant polynomial, as a Rational."""
        if not self._terms:
            return as_rational(0)
        if self.is_constant():
            return Rational(self._terms[0], self._den)
        raise ValueError(f"not a constant polynomial: {self}")

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(self._terms) >> _DEG_SHIFT

    def coeff(self, exp: Monomial):
        exp = tuple(exp)
        # a negative exponent packs to a negative key, which no term has
        if len(exp) != _NVARS or sum(exp) > MAX_EXP:
            return as_rational(0)
        return Rational(self._terms.get(_pack(exp), 0), self._den)

    def degree_in(self, name: str) -> int:
        """The largest exponent of the variable ``name`` (0 if it is not read)."""
        shift = _SHIFTS[_index(name)]
        return max(((k >> shift) & MAX_EXP for k in self._terms), default=0)

    # -- arithmetic ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            if not is_scalar(other):
                return NotImplemented
            other = MultiPoly.constant(other)
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals its scalar, so it hashes as that scalar
        h = self._hash
        if h is None:
            if self.is_constant():
                h = hash(self.constant_value())
            else:
                h = hash((self._den, frozenset(self._terms.items())))
            self._hash = h
        return h

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({k: -c for k, c in self._terms.items()}, self._den, self._deg)

    def _combine(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """self + sign * other, for sign in (1, -1)."""
        da, db = self._den, other._den
        if da == db:
            out = dict(self._terms)
            den = da
            fb = sign
        else:
            g = _gcd(da, db)
            fa = db // g
            fb = sign * (da // g)
            den = da * fa
            out = {k: c * fa for k, c in self._terms.items()}
        get = out.get
        for k, c in other._terms.items():
            s = get(k, 0) + c * fb
            if s:
                out[k] = s
            else:
                del out[k]
        deg = self._deg if self._deg > other._deg else other._deg
        return MultiPoly._reduced(out, den, deg)

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if not is_scalar(other):
                return NotImplemented
            other = MultiPoly.constant(other)
        if len(self._terms) < len(other._terms):
            return other._combine(self, 1)
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if not is_scalar(other):
                return NotImplemented
            other = MultiPoly.constant(other)
        return self._combine(other, -1)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if not is_scalar(other):
                return NotImplemented
            other = MultiPoly.constant(other)
        p, q = (self, other) if len(self._terms) <= len(other._terms) else (other, self)
        if len(p._terms) != 1:
            acc = ProductSum()
            acc.add(1, 1, p, q)
            return acc.value()
        # one term: a key shift (a scalar keeps q's key objects)
        (shift, c), = p._terms.items()
        b = q._terms.items()
        out = {k + shift: v * c for k, v in b} if shift else {k: v * c for k, v in b}
        return MultiPoly._reduced(out, p._den * q._den, _product_degree(p, q))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly) or not is_scalar(other):
            return NotImplemented
        q = as_rational(other)
        if not q:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (1 / q)

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial exponent must be a non-negative int, got {exponent!r}")
        _power_degree(self, exponent)
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
        well-defined.  The terms with the same exponents of the bound
        variables share one scalar factor and one product of polynomial
        bindings' powers, worked out once; the terms whose product is
        not 1 are multiplied by it, as every product is, by
        :meth:`ProductSum.add`.  A binding to a scalar times one variable
        (y -> x1/6) forms no product: it scales the term and moves the
        exponent to that variable.  A binding's powers are shared by every
        call that binds an equal polynomial (a bounded cache), so each is
        formed once, from the one below it.
        """
        scalars, polys = _bind(bindings)
        if not bindings or not self._terms:
            return self
        return _substitute(self, scalars, polys)[0]

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({format_poly(self)})"


def _bind(bindings: Mapping[str, "MultiPoly | Scalar"]) -> Tuple[list, list]:
    """The bindings of a substitution, read once: (index, num, den, key)
    for a variable bound to num/den times the monomial of packed key
    ``key``, which is 0 for a scalar or a constant polynomial and one
    variable's key for a scalar times that variable; (index, value) for
    one bound to any other polynomial."""
    scalars, polys = [], []
    for name, value in bindings.items():
        i = _VAR_INDEX.get(name)
        if i is None:
            raise ValueError(f"unknown variable {name!r} in substitution")
        if not isinstance(value, MultiPoly):
            scalars.append((i, *num_den(value), 0))
        elif len(value._terms) > 1 or not value._terms.keys() <= _UNIT_KEYS:
            polys.append((i, value))
        else:
            key, num = next(iter(value._terms.items()), (0, 0))
            scalars.append((i, num, value._den, key))
    return scalars, polys


def _substitute(poly: MultiPoly, scalars: list, polys: list, split=None) -> List[MultiPoly]:
    """poly with the bindings read by :func:`_bind`, in one pass over its
    terms: [the image, 0].  With ``split`` = (i, square, scale), square a
    polynomial and scale a scalar, the variable v of index i is bound
    through its square and its exponent e routes each term: v^e becomes
    square^(e // 2) and the term goes to half e % 2, so the result is
    [E, scale*O] with poly = E + v*O at v^2 = square.

    A term's image is c * factor * x^(key - sub) * pfactor, where the
    integer factor, the key change ``sub`` of the bound variables (less
    a binding's variable, for a scalar times one variable) and the
    product ``pfactor`` of their polynomial bindings' powers depend only
    on the bound variables' exponents, the term's *pattern*.  So they
    are worked out once per pattern, and each term costs one lookup.
    The terms of a pattern with a polynomial factor are gathered into
    one polynomial, which one :meth:`ProductSum.add` multiplies by it.
    A binding of a variable the polynomial does not read is dropped, and
    a polynomial that reads no bound variable is its own image.
    """
    terms = poly._terms
    if not terms:
        return [poly, poly]
    # each bound variable the polynomial reads has a row, the integer
    # factor of a term of exponent e at index e, and leaves the key.  A
    # variable bound to num/den multiplies the term by num^e·den^(top-e),
    # which puts every term over the common denominator ∏ den^top, where
    # top bounds the variable's own exponents: the smaller of the total
    # degree (the largest key's top field) and the variable's field of
    # all keys OR'd together, which is 0 for a variable the polynomial
    # does not read.  Bound to num/den times a variable w, it has the
    # same row and its exponent moves to w's field: the key gains
    # e·key(w), of the same degree, with no product.  A variable it reads
    # bound to any other polynomial has a row of 1s and a power of its
    # value for the polynomial factor; the split variable's row is read
    # through its square (see _split_row).
    total = max(terms) >> _DEG_SHIFT
    seen = functools.reduce(operator.or_, terms)
    den = poly._den
    mask = 0
    rows = []
    products = []
    for i, num, den_i, to in scalars:
        top = min(total, (seen >> _SHIFTS[i]) & MAX_EXP)
        if top:
            row = _power_row(num, den_i, top)
            rows.append((_SHIFTS[i], _VAR_KEYS[i] - to, row))
            mask |= MAX_EXP << _SHIFTS[i]
            den *= row[0]
    for i, value in polys:
        if not (seen >> _SHIFTS[i]) & MAX_EXP:
            continue
        rows.append((_SHIFTS[i], _VAR_KEYS[i], _power_row(1, 1, total)))
        products.append((_SHIFTS[i], value, 0))
        mask |= MAX_EXP << _SHIFTS[i]
    half_shift = half_mask = 0
    odd_den = 1
    if split is not None:
        i, square, scale = split
        half_shift, half_mask = _SHIFTS[i], 1
        odd_den = scale.denominator
        top = min(total, (seen >> half_shift) & MAX_EXP)
        if square.is_constant():
            row = _split_row(square._terms.get(0, 0), square._den, top, scale.numerator)
            den *= row[0]
        else:
            row = _split_row(1, 1, top, scale.numerator)
            products.append((half_shift, square, 1))
        rows.append((half_shift, _VAR_KEYS[i], row))
        mask |= MAX_EXP << half_shift
    if not seen & mask:
        return [poly, MultiPoly()]
    # a term of a pattern with no polynomial factor goes straight into
    # its half's integer numerators over den; its half's accumulator
    # then starts from those, so each product added to it may rescale
    # them.  The total degree bounds every term's image but a product.
    outs: List[Dict[int, int]] = [{}, {}]
    gathered: List[list] = [[], []]
    table: Dict[int, tuple] = {}
    for key, c in terms.items():
        pattern = key & mask
        entry = table.get(pattern)
        if entry is None:
            factor, sub, pfactor = 1, 0, None
            for shift, unit, row in rows:
                e = (pattern >> shift) & MAX_EXP
                factor *= row[e]
                sub += e * unit
            for shift, value, step in products:
                e = ((pattern >> shift) & MAX_EXP) >> step
                if e:
                    piece = _power(value, e)
                    pfactor = piece if pfactor is None else pfactor * piece
            half = (pattern >> half_shift) & half_mask
            if pfactor is None:
                out = outs[half]
            else:
                out = {}
                gathered[half].append((out, pfactor))
            entry = table[pattern] = (factor, sub, out)
        factor, sub, out = entry
        key -= sub
        out[key] = out.get(key, 0) + c * factor
    images = []
    for half in (0, 1):
        den_h = den * odd_den if half else den
        acc = ProductSum(outs[half], den_h, total)
        for part, pfactor in gathered[half]:
            acc.add(1, den_h, MultiPoly._raw(part, 1, total), pfactor)
        images.append(acc.value())
    return images


@functools.lru_cache(maxsize=512)
def _power_row(num: int, den: int, top: int) -> Tuple[int, ...]:
    """num^e·den^(top-e) for e = 0..top: the factors that put the terms
    of a substitution by num/den over the common denominator den^top."""
    row = [den ** top]
    for _ in range(top):
        row.append(row[-1] // den * num)
    return tuple(row)


@functools.lru_cache(maxsize=256)
def _split_row(num: int, den: int, top: int, odd: int) -> Tuple[int, ...]:
    """The factors of v^e, e = 0..top, for v^2 bound to num/den: those of
    (v^2)^(e // 2) over den^(top // 2), times odd for an odd e."""
    row = _power_row(num, den, top >> 1)
    return tuple(row[e >> 1] * odd if e & 1 else row[e >> 1] for e in range(top + 1))


_ONE = MultiPoly.constant(1)


@functools.lru_cache(maxsize=256)
def _powers(value: MultiPoly) -> List[MultiPoly]:
    """[1, value, value^2, ...] as formed so far, shared by every power of
    an equal value, which :func:`_power` extends: a root chart's lift of
    each embedded value reuses the powers of its image of t."""
    return [_ONE]


def _power(value: MultiPoly, e: int) -> MultiPoly:
    """value^e from its shared list, refused past the degree bound
    before any is formed.  With m its term of largest key and r the
    rest, value^j = Σ C(j, i) m^(j-i) r^i and r^i is on r's own list,
    so each term is one key shift, with no product (Monagan & Pearce,
    "Sparse polynomial powering using heaps", CASC 2012)."""
    powers = _powers(value)
    if len(powers) <= e:
        _power_degree(value, e)
        # value and its tails, each the one before less its leading term,
        # down to a monomial, 0 or a tail whose list reaches e
        chain = [value]
        while len(chain[-1]._terms) > 1 and len(_powers(chain[-1])) <= e:
            terms = dict(chain[-1]._terms)
            del terms[max(terms)]
            chain.append(MultiPoly._reduced(terms, chain[-1]._den, chain[-1]._deg))
        rests = [_ONE]
        for q in reversed(chain):
            powers = _powers(q)
            terms, den = q._terms, q._den
            top = max(terms, default=0)
            lead = terms.get(top, 0)
            for j in range(len(powers), e + 1):
                # over den^j, the numerators of r^i times den^i over its own
                out = {}
                get = out.get
                for i, ri in enumerate(rests[:j + 1]):
                    scale = math.comb(j, i) * lead ** (j - i) * (den ** i // ri._den)
                    shift = top * (j - i)
                    for k, v in ri._terms.items():
                        k += shift
                        out[k] = get(k, 0) + scale * v
                if 0 in out.values():
                    out = {k: v for k, v in out.items() if v}
                powers.append(MultiPoly._reduced(out, den ** j, j * q._deg))
            rests = powers
    return powers[e]


class ProductSum:
    """Exact accumulator of a sum of products (num/den)·p·q.

    The running sum is integer numerators over one common denominator,
    as in a :class:`MultiPoly`.  Each product is multiplied straight into
    it, with no intermediate polynomial; the numerators are rescaled only
    when a product's denominator does not divide the common one, and the
    gcd is divided out once, by :meth:`value`.  ``MultiPoly.__mul__`` of
    two polynomials of more than one term is one :meth:`add` and one
    :meth:`value`, and ``MultiPoly.substitute`` adds each term's image
    times its polynomial bindings' powers, so :meth:`add` forms every
    such product.  Its O(1) degree guard runs before any key is formed,
    so no packed key can carry into its neighbour field.
    """

    __slots__ = ("_terms", "_den", "_deg")

    def __init__(self, terms: Dict[int, int] | None = None, den: int = 1, deg: int = 0):
        # the sum starts at terms/den, integer numerators over a positive
        # denominator of total degree at most deg; it takes the dict over
        self._terms = {} if terms is None else terms
        self._den = den
        self._deg = deg

    def add(self, num: int, den: int, p: MultiPoly, q: MultiPoly) -> None:
        """Add (num/den)·p·q, for integers num and den > 0."""
        a, b = p._terms, q._terms
        if not num or not a or not b:
            return
        deg = _product_degree(p, q)
        if deg > self._deg:
            self._deg = deg
        d = den * p._den * q._den
        out = self._terms
        common = self._den
        if common % d:
            grow = d // _gcd(common, d)
            for k in out:
                out[k] *= grow
            common = self._den = common * grow
        scale = num * (common // d)
        if len(a) > len(b):
            a, b = b, a
        get = out.get
        b = b.items()
        for ka, ca in a.items():
            ca *= scale
            for kb, cb in b:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb

    def value(self) -> MultiPoly:
        """The sum as a canonical polynomial.  The accumulator is left
        empty, since the polynomial takes over its terms."""
        out, den, deg = self._terms, self._den, self._deg
        self._terms, self._den, self._deg = {}, 1, 0
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        return MultiPoly._reduced(out, den, deg)


def format_poly(p: MultiPoly) -> str:
    """Canonical human-readable form: terms by descending (degree, exponents),
    coefficients as p/q, '*' between factors, no '+ -' sequences."""
    if p.is_zero():
        return "0"
    den = p._den
    pieces = []
    for key, c in sorted(p._terms.items(), reverse=True):
        factors = []
        for name, s in zip(VARIABLES, _SHIFTS):
            e = (key >> s) & MAX_EXP
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        num = c if c > 0 else -c
        g = _gcd(num, den)
        mag = str(num // g) if g == den else f"{num // g}/{den // g}"
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = [body if sign == "+" else f"-{body}"]
    for sign, body in pieces[1:]:
        out.append(f" {'+' if sign == '+' else '-'} {body}")
    return "".join(out)


def variable(name: str) -> MultiPoly:
    return MultiPoly.var(name)
