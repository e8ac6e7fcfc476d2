"""Evaluation engine for the identity catalog.

Every catalog entry is an :class:`IdentityRecord` whose two sides are
callables ``side(ctx, n) -> ring element``.  The *context* supplies the
ring: the generic two-letter ring (letters x1, x2 in Q[x1,x2,x,y,t]) or
one of the two root rings, where the letters are the conjugate roots of
a recurrence family and live in a quadratic extension of Q[y,t,x].
Because both sides are written against the context interface, the same
record can be evaluated in any ring -- that is what turns a verified
generic identity into a family-specific one by pure substitution.

A check never approximates: for each n the difference of the two sides
is computed as a canonical element, and the verdict is pass iff it is
literally zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Tuple

from .._scalar import Rational, as_rational
from ..arith import MultiPoly, binomial
from ..quadext import QuadExtElem, RootPair, make_root_pair
from ..sequences import (
    bernoulli_number,
    bivariate_sequence,
    euler_number,
    genocchi_number,
    number_polynomial,
)

__all__ = [
    "Context",
    "IdentityRecord",
    "IdentityVerdict",
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


class Context:
    """Ring adapter: letters, cached building blocks, and number tables.

    The letters are ``u`` and ``v``; ``D = u - v`` and ``Sig = u + v``.
    Each cache is keyed by what determines its entries -- a base element
    by value, a sequence name and index, a record side callable and its
    index n -- never by a name a caller makes up, so an entry cannot be
    returned for a different element.
    """

    def __init__(self, ring: str):
        if ring not in RINGS:
            raise ValueError(f"unknown ring {ring!r}; choose from {RINGS}")
        self.ring = ring
        self.family: Optional[str] = None
        self.pair: Optional[RootPair] = None
        if ring == "indeterminate":
            self.u: Any = MultiPoly.var("x1")
            self.v: Any = MultiPoly.var("x2")
            self.one: Any = MultiPoly.constant(1)
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
        self._upow: List[Any] = [self.one]
        self._vpow: List[Any] = [self.one]
        self._powers: Dict[Any, List[Any]] = {}
        self._bracket: Dict[Tuple[str, int], Any] = {}
        self._npoly: Dict[Tuple[str, int], Any] = {}
        self._sides: Dict[Tuple[SideFn, int], Any] = {}

    # -- embedding -------------------------------------------------------

    def embed(self, value):
        """Lift a polynomial or scalar into the context ring."""
        if self.pair is None:
            if isinstance(value, MultiPoly):
                return value
            return MultiPoly.constant(value)
        if isinstance(value, QuadExtElem):
            return value
        if not isinstance(value, MultiPoly):
            value = MultiPoly.constant(value)
        return QuadExtElem(value, MultiPoly.constant(0), self.pair.disc)

    # -- letters and their symmetric functions ---------------------------

    def upow(self, j: int):
        if j < 0:
            raise ValueError("negative letter power")
        while len(self._upow) <= j:
            self._upow.append(self._upow[-1] * self.u)
        return self._upow[j]

    def vpow(self, j: int):
        if j < 0:
            raise ValueError("negative letter power")
        while len(self._vpow) <= j:
            self._vpow.append(self._vpow[-1] * self.v)
        return self._vpow[j]

    def S(self, j: int):
        """Complete homogeneous sum of degree j in the letters; 0 for j < 0."""
        if j < 0:
            return self.zero
        while len(self._S) <= j:
            k = len(self._S)
            self._S.append(self.u * self._S[-1] + self.vpow(k))
        return self._S[j]

    def phi(self, j: int):
        """Power sum u^j + v^j (so phi(0) = 2)."""
        if j < 0:
            raise ValueError("negative power-sum index")
        return self.upow(j) + self.vpow(j)

    def power(self, base, e: int):
        """base^e, cached per base by value and built up incrementally,
        so two equal bases built separately share one list of powers."""
        if e < 0:
            raise ValueError("negative power")
        powers = self._powers.setdefault(base, [self.one])
        while len(powers) <= e:
            powers.append(powers[-1] * base)
        return powers[e]

    def Dpow(self, e: int):
        return self.power(self.D, e)

    def Sigpow(self, e: int):
        return self.power(self.Sig, e)

    def bracket_plus(self, k: int):
        """2^k phi_k + 2 Sig^k."""
        return self._bracket_get("+", k)

    def bracket_minus(self, k: int):
        """2^k phi_k - 2 Sig^k."""
        return self._bracket_get("-", k)

    def _bracket_get(self, sign: str, k: int):
        key = (sign, k)
        got = self._bracket.get(key)
        if got is None:
            term = 2 * self.Sigpow(k)
            base = (2 ** k) * self.phi(k)
            got = base + term if sign == "+" else base - term
            self._bracket[key] = got
        return got

    # -- number and polynomial sequences ----------------------------------

    def B(self, j: int) -> Rational:
        return bernoulli_number(j)

    def E(self, j: int) -> Rational:
        return euler_number(j)

    def G(self, j: int) -> Rational:
        return genocchi_number(j)

    def npoly(self, kind: str, j: int):
        """Embedded Bernoulli/Euler/Genocchi polynomial in x."""
        key = (kind, j)
        got = self._npoly.get(key)
        if got is None:
            got = self._npoly[key] = self.embed(number_polynomial(kind, j))
        return got

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

    def deltapow(self, e: int):
        return self.power(self.delta, e)

    def seq(self, kind: str, j: int):
        """Embedded bivariate sequence value, with negative index -> 0."""
        self._require_family()
        if j < 0:
            return self.zero
        key = ("seq:" + kind, j)
        got = self._npoly.get(key)
        if got is None:
            got = self._npoly[key] = self.embed(bivariate_sequence(kind, j))
        return got

    # perfbench/tracer.py wraps this method by name, so it stays a method
    def pair_product(self, left_fn, right_fn, k: int, j: int):
        """The summand product left_fn(k) * right_fn(j)."""
        return left_fn(k) * right_fn(j)

    def side(self, fn: SideFn, n: int):
        """fn(self, n), computed once per (side, n) in this ring."""
        key = (fn, n)
        got = self._sides.get(key)
        if got is None:
            got = self._sides[key] = fn(self, n)
        return got


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

    ``term_low``/``term_high`` produce ring elements indexed by k and
    n-k; ``weight`` is an optional exact scalar factor and may signal a
    skipped term by returning 0.  With ``parity=True`` the sum runs only
    over k with n - k even.
    """
    total = ctx.zero
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
        total = total + scalar * ctx.pair_product(term_low, term_high, k, j)
    return total


@dataclass
class IdentityRecord:
    """One catalog entry: a single equation in a single variant.

    ``lhs``/``rhs`` evaluate the two sides in a given context at index n.
    ``anchor`` quotes the equation as the catalog states it (for reports);
    ``note`` documents a known discrepancy on as-printed variants.
    For parity-restricted sums, ``unrestricted_lhs``/``unrestricted_rhs``
    optionally carry the companion closed form of the full sum, which is
    what :func:`parity_restriction_equivalence` checks.
    """

    ident: str
    variant: str  # "as_printed" | "corrected"
    ring: str
    lo: int
    hi: int
    lhs: SideFn
    rhs: SideFn
    anchor: str
    parity: bool = False
    note: Optional[str] = None
    source: Optional[str] = None
    shape: Optional[Any] = None  # WeightedShape, when a transform applies
    unrestricted_lhs: Optional[SideFn] = None
    unrestricted_rhs: Optional[SideFn] = None

    @property
    def key(self) -> str:
        return f"{self.ident}:{self.variant}"

    def default_range(self) -> Tuple[int, int]:
        return (self.lo, self.hi)


@dataclass
class IdentityVerdict:
    """Outcome of one identity at one index.

    A failed comparison keeps its two side elements in ``sides``; the
    canonical ``diff``, ``lhs_value`` and ``rhs_value`` strings are
    rendered from them on first read, so a run that prints no failing
    index formats nothing.  ``reason`` says why the printed form could
    not be evaluated at n, and is then the ``diff``.
    """

    ident: str
    variant: str
    n: int
    passed: bool
    reason: Optional[str] = None
    status: str = ""  # "pass" | "fail" | "skipped"
    sides: Optional[Tuple[Any, Any]] = field(default=None, repr=False)

    def __post_init__(self):
        if not self.status:
            self.status = "pass" if self.passed else "fail"

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
    taken from the context's side memo, so a re-check, a companion
    check or another point reuses it.  It calls no public check, so a
    wrapper around one check never nests another.
    """
    if ctx is None:
        ctx = get_context(record.ring)
    lo, hi = n_range if n_range is not None else record.default_range()

    def image(value):
        return value if bindings is None else substitute_value(value, bindings)

    out: List[IdentityVerdict] = []
    for n in range(lo, hi + 1):
        try:
            verdict = _compare_sides(
                record, n, image(ctx.side(lhs, n)), image(ctx.side(rhs, n))
            )
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
    """Substitute variables in a ring element (scalars pass through)."""
    if isinstance(value, (QuadExtElem, MultiPoly)):
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
    pass here is evidence about the substituted statement itself.
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
    if not record.parity or record.unrestricted_lhs is None or record.unrestricted_rhs is None:
        return [
            IdentityVerdict(record.ident, record.variant, -1, True, None, "skipped")
        ]
    return _check_range(
        record, record.unrestricted_lhs, record.unrestricted_rhs, n_range, ctx
    )
