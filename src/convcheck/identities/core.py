"""Evaluation engine for the identity catalog.

Every catalog entry is an ``IdentityRecord``
(:mod:`convcheck.identities.notation`, next to the tree format of the
statement it stores) whose two sides are callables
``side(ctx, n) -> ring element``; the engine reads only those sides and
the record's plain fields.  The *context* supplies the
ring: the generic two-letter ring Q[u,v,x,y,t], or one of the two root
rings, where the letters are the conjugate roots of a recurrence family
and live in a quadratic extension of Q[y,t,x].  Both kinds hold an
element in the sum Sig = u + v and the difference D = u - v of the
letters: a root-ring element is a + b*sqrt(d) with D = c*sqrt(d), and a
generic one is a :class:`LetterElem`, a polynomial in Sig and D.  The
letters x1 = u, x2 = v of the generic ring are its printed form only.
Because both sides are written against the context interface, the same
record can be evaluated in any ring -- that is what turns a verified
generic identity into a family-specific one by pure substitution.

A check never approximates: for each n the difference of the two sides
is computed as a canonical element, and the verdict is pass iff it is
literally zero.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .._fields import Fields
from .._scalar import as_rational, is_scalar
from ..arith import MultiPoly, binomial
from ..quadext import QuadExtElem, RootPair, make_root_pair
from ..sequences import BIVARIATE_KINDS, bivariate_sequence, number_polynomial

if TYPE_CHECKING:
    from .notation import IdentityRecord

__all__ = [
    "Context",
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


_X1, _X2 = MultiPoly.var("x1"), MultiPoly.var("x2")
# a LetterElem's polynomial holds Sig in the x1 slot and D in the x2
# slot; these bindings take it to the letters x1 = u, x2 = v and back
_TO_LETTERS = {"x1": _X1 + _X2, "x2": _X1 - _X2}
_FROM_LETTERS = {"x1": (_X1 + _X2) / 2, "x2": (_X1 - _X2) / 2}


class LetterElem:
    """Element of the generic two-letter ring Q[u,v,x,y,t], never changed,
    held as ``poly``, a :class:`MultiPoly` in Sig = u + v (slot x1) and
    D = u - v (slot x2), with u = (Sig + D)/2 and v = (Sig - D)/2.

    In these coordinates D^j is one term and (Sig + xD)^j is j+1, where
    in the letters they are j+1 and up to (j+1)^2, so the convolution
    sums form far fewer coefficient products.  Arithmetic and the zero
    test never leave the coordinates.  A value leaving the ring -- in
    ``==`` against a polynomial, ``hash``, ``str``, ``terms`` and
    ``substitute`` -- is its printed form, the polynomial in the
    letters x1 = u and x2 = v, computed once per element.  A
    :class:`MultiPoly` operand is read in the letters.
    """

    __slots__ = ("poly", "_letters")

    def __init__(self, poly: MultiPoly):
        self.poly = poly
        self._letters = None

    @staticmethod
    def of(value) -> "LetterElem":
        """value, a letter element, a polynomial in the letters or a
        scalar, as a letter element."""
        if type(value) is LetterElem:
            return value
        if isinstance(value, MultiPoly):
            return LetterElem(value.substitute(_FROM_LETTERS))
        return LetterElem(MultiPoly.constant(value))

    def as_poly(self) -> MultiPoly:
        """The printed form: this element as a polynomial in x1 = u, x2 = v."""
        if self._letters is None:
            self._letters = self.poly.substitute(_TO_LETTERS)
        return self._letters

    # -- ring operations ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.poly

    def __bool__(self) -> bool:
        return bool(self.poly)

    def __eq__(self, other) -> bool:
        if type(other) is LetterElem:
            return self.poly == other.poly
        if isinstance(other, MultiPoly):
            return self.as_poly() == other
        if is_scalar(other):
            # a constant is the same polynomial in either coordinates
            return self.poly == other
        return NotImplemented

    def __hash__(self) -> int:
        # an element equals its printed form, so it hashes as that
        return hash(self.as_poly())

    def __neg__(self) -> "LetterElem":
        return LetterElem(-self.poly)

    def __add__(self, other) -> "LetterElem":
        o = _operand(other)
        return NotImplemented if o is None else LetterElem(self.poly + o)

    __radd__ = __add__

    def __sub__(self, other) -> "LetterElem":
        o = _operand(other)
        return NotImplemented if o is None else LetterElem(self.poly - o)

    def __rsub__(self, other) -> "LetterElem":
        o = _operand(other)
        return NotImplemented if o is None else LetterElem(o - self.poly)

    def __mul__(self, other) -> "LetterElem":
        o = _operand(other)
        return NotImplemented if o is None else LetterElem(self.poly * o)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LetterElem":
        if not is_scalar(other):
            return NotImplemented
        return LetterElem(self.poly / other)

    def __pow__(self, exponent: int) -> "LetterElem":
        return LetterElem(self.poly ** exponent)

    # -- the printed form --------------------------------------------------

    @property
    def terms(self):
        return self.as_poly().terms

    def substitute(self, bindings) -> MultiPoly:
        """The printed form with variables substituted (see
        :meth:`MultiPoly.substitute`)."""
        return self.as_poly().substitute(bindings)

    def __str__(self) -> str:
        return str(self.as_poly())

    def __repr__(self) -> str:
        return f"LetterElem({self})"


def _operand(other):
    """A LetterElem's operand in the Sig/D coordinates: a polynomial or a
    scalar, or None for anything else."""
    if type(other) is LetterElem:
        return other.poly
    if isinstance(other, MultiPoly):
        return other.substitute(_FROM_LETTERS)
    return other if is_scalar(other) else None


# Context.memo keys of the embedded sequences, one callable per kind;
# each calls its sequence function through this module's globals, which
# perfbench/tracer.py rebinds
_NPOLY = {kind: (lambda ctx, j, kind=kind: ctx.embed(number_polynomial(kind, j)))
          for kind in ("bernoulli", "euler", "genocchi")}
_SEQ = {kind: (lambda ctx, j, kind=kind: ctx.embed(bivariate_sequence(kind, j)))
        for kind in BIVARIATE_KINDS}


class Context:
    """Ring adapter: letters and cached building blocks.

    The letters are ``u`` and ``v``; ``D = u - v`` and ``Sig = u + v``.
    Each cache is keyed by what determines its entries -- a power's base
    element by value, any other value by the callable that computes it
    and its index -- never by a name a caller makes up, so an entry
    cannot be returned for a different element.
    """

    def __init__(self, ring: str):
        if ring not in RINGS:
            raise ValueError(f"unknown ring {ring!r}; choose from {RINGS}")
        self.ring = ring
        self.family: Optional[str] = None
        self.pair: Optional[RootPair] = None
        if ring == "indeterminate":
            self.u: Any = LetterElem(_FROM_LETTERS["x1"])
            self.v: Any = LetterElem(_FROM_LETTERS["x2"])
            self.one: Any = LetterElem(MultiPoly.constant(1))
        else:
            self.family = ring.removesuffix("-roots")
            self.pair = make_root_pair(self.family)
            self.u = self.pair.lam1
            self.v = self.pair.lam2
            self.one = QuadExtElem(MultiPoly.constant(1), MultiPoly.constant(0), self.pair.disc)
        self.zero = self.one * 0
        self.D = self.u - self.v
        self.Sig = self.u + self.v
        self.Prod = self.u * self.v
        self.x = self.embed(MultiPoly.var("x"))
        self._S: List[Any] = [self.one]
        self._powers: Dict[Any, List[Any]] = {}
        self._memo: Dict[Tuple[Callable, int], Any] = {}

    # -- embedding -------------------------------------------------------

    def embed(self, value):
        """Lift a polynomial or scalar into the context ring."""
        if self.pair is None:
            return LetterElem.of(value)
        if isinstance(value, QuadExtElem):
            return value
        if not isinstance(value, MultiPoly):
            value = MultiPoly.constant(value)
        return QuadExtElem(value, MultiPoly.constant(0), self.pair.disc)

    # -- letters and their symmetric functions ---------------------------

    def S(self, j: int):
        """Complete homogeneous sum of degree j in the letters; 0 for j < 0."""
        if j < 0:
            return self.zero
        while len(self._S) <= j:
            k = len(self._S)
            self._S.append(self.u * self._S[-1] + self.power(self.v, k))
        return self._S[j]

    def phi(self, j: int):
        """Power sum u^j + v^j (so phi(0) = 2)."""
        if j < 0:
            raise ValueError("negative power-sum index")
        return self.power(self.u, j) + self.power(self.v, j)

    def power(self, base, e: int):
        """base^e, cached per base by value and built up incrementally,
        so two equal bases built separately share one list of powers.  A
        letter element is keyed by its polynomial in Sig and D, which is
        as canonical as the element and hashes without converting."""
        if e < 0:
            raise ValueError("negative power")
        key = base
        if self.pair is None:
            base = LetterElem.of(base)
            key = base.poly
        powers = self._powers.setdefault(key, [self.one])
        while len(powers) <= e:
            powers.append(powers[-1] * base)
        return powers[e]

    def memo(self, fn: Callable[["Context", int], Any], i: int):
        """fn(self, i), computed once per (fn, i) in this ring.  It keeps
        each record side at its n, each sum's factor of the summation
        index k alone (a bracket, the same at every n; factors of n-k are
        not kept) and each embedded sequence value."""
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
    def delta(self) -> QuadExtElem:
        """sqrt(d) itself, available in root contexts."""
        self._require_family()
        return QuadExtElem(MultiPoly.constant(0), MultiPoly.constant(1), self.pair.disc)

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
    weight: Optional[Callable[[int, int], Any]] = None,
    parity: bool = False,
):
    """sum over k of C(n,k) * weight(n,k) * term_low(k) * term_high(n-k).

    ``term_low(k)`` is the summand's first operand at k and may read n;
    ``term_high(j)`` is its second operand at j = n-k.  ``weight`` is an
    optional exact scalar factor and may signal a skipped term by
    returning 0.  With ``parity=True`` the sum runs only
    over k with n - k even.  The summands stream into the ring's
    ``sum_of_products``, which forms the whole sum in one exact
    accumulator rather than one polynomial per summand; in the generic
    ring that is one ``ProductSum`` over the polynomials in Sig and D.
    """

    def summands():
        for k in range(n + 1):
            j = n - k
            if parity and j % 2:
                continue
            scalar = binomial(n, k) if use_binomial else 1
            if weight is not None:
                w = weight(n, k)
                if not w:
                    continue
                scalar = scalar * w
            if not scalar:
                continue
            low, high = ctx.pair_product(term_low, term_high, k, j)
            yield scalar, low, high

    if ctx.pair is None:
        return LetterElem(MultiPoly.sum_of_products(
            (s, low.poly, high.poly) for s, low, high in summands()))
    return QuadExtElem.sum_of_products(summands(), ctx.pair.disc)


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


def _compare_sides(record: IdentityRecord, n: int, lhs_v, rhs_v) -> IdentityVerdict:
    if lhs_v - rhs_v:
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
    each substituted with ``bindings`` first when given.  Each side is
    taken from the context's memo, so a re-check, a companion
    check or another point reuses it.  It calls no public check, so a
    wrapper around one check never nests another.
    """
    if ctx is None:
        ctx = get_context(record.ring)
    lo, hi = n_range if n_range is not None else record.default_range()
    out: List[IdentityVerdict] = []
    for n in range(lo, hi + 1):
        try:
            lhs_v = ctx.memo(lhs, n)
            if bindings is None:
                rhs_v = ctx.memo(rhs, n)
            else:
                lhs_i = substitute_value(lhs_v, bindings)
                rhs_v = ctx.memo(rhs, n)
                # a right side equal to the left one takes its image,
                # which a second substitution would reproduce exactly;
                # equal values of two types (a constant and its scalar,
                # which is not substituted) are each substituted
                if type(rhs_v) is type(lhs_v) and rhs_v == lhs_v:
                    rhs_v = lhs_i
                else:
                    rhs_v = substitute_value(rhs_v, bindings)
                lhs_v = lhs_i
            verdict = _compare_sides(record, n, lhs_v, rhs_v)
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
    equal sides share one image, since substituting the right side again
    would give the same element; sides that differ are each substituted.
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
