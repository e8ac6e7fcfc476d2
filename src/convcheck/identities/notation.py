"""The notation of the anchors, their statement trees, and the records.

An as-printed record *is* its ``anchor``: the equation exactly as the
source catalog states it.  :class:`IdentityRecord` reads its anchor on
first use into its statement, the two cleared side trees, and compiles
each tree to nested closures ``side(ctx, n)``, so for a record read from
its anchor the equation a report quotes is the equation the checker
evaluates.  The twelve records that carry a rewritten statement (the
corrected T3.3, T3.5b, T3.6a, T3.6b and their eight corollaries) check
the rewritten tree and quote a hand-simplified anchor.  Such a record
reads its quoted anchor too, when its sides are first compiled, so a
quotation that does not read, or whose annotations do not fit the
record, is refused; a test checks each quotation as a statement, side
by side with the rewritten tree, at every n of the record's range.
Equal trees compile to one callable.  This module is the one that
knows the tree format, and this docstring is the one statement of the
notation and of the conventions that turn a printed statement into a
checkable record.

Symbols
  ``u v lam1 lam2``      the two letters (``lam1 lam2`` in the root rings)
  ``D Sig``              their difference and sum; ``e1`` is ``Sig``, ``e2`` is ``u v``
  ``d``                  the square root of the root ring's discriminant
  ``x y t``              the polynomial variables
  ``n m``                both name the record index; ``k`` is the summation index
  ``S_j phi_j``          complete homogeneous sum and power sum of the letters
  ``F_j L_j B*_j C_j``   Fibonacci, Lucas, balancing, Lucas-balancing values
  ``B_j E_j G_j``        Bernoulli, Euler, Genocchi numbers (0 at a negative
                         index); ``B_j(x)`` etc. their polynomials, written
                         with no space before ``(x)``
  ``C(a,b)``             the binomial coefficient
  ``h_j(a, b) p_j(a, b)``  complete homogeneous / power-sum basis at two letters,
                         which read no index (one memo step per j)
  A subscript is one symbol or a parenthesized index: ``S_(n-k-1)``.

Reading
  * Juxtaposition multiplies, also between glued symbols (``2xd``,
    ``xD``, ``dx``, ``3u+v``, ``9y^2``) and before a parenthesis
    (``n(1-n)``).  ``^`` binds tightest, then ``/``, then juxtaposition,
    so ``B_(m-k-2)/(m-k-2)`` is one factor.
  * A ratio of scalars is read by ``printed_ratio``: 0/0 contributes
    nothing, and q/0 makes the printed form non-evaluable at that index
    (reported as such, never as a failure of the equation).
  * A product whose scalar part is 0 is 0 before its ring factors are
    evaluated: ``2n(1-n) (y^2+4t) x^(n-2)`` is 0 at n = 0 and 1.

Sums
  ``sum`` runs over k = 0..n and ``sum[n=k(2)]`` only over k = n (mod 2).
  A factor ``C(n,k)`` makes the sum binomial.  Every other factor of a
  summand reads k alone, reads n-k alone, or reads no index, where an
  index expression reads k as ``k + c`` and n-k as ``n - k + c``:
  * the factors of k form the first operand, memoized per k;
  * the ring factors of n-k, and those reading no index, form the
    second operand, memoized per j = n-k; its scalar factors, and
    those reading no index, form the weight, memoized per j too;
  * a factor that reads n other than as n-k (``2^n``, ``C(n+2,k)``),
    or reads both k and n-k, is refused where the anchor is read (in a
    rewritten tree, when the side is compiled).
  Like every compiled node, each operand and the weight is a callable
  of one index, read as n: k -> n in a factor of k, k -> 0 in one of
  n-k.  So k outside a sum (``S_k = S_0``) is refused when the side is
  compiled.  ``eval_convolution_sum`` adds each summand, C(n,k) times
  the weight times the two operands, straight into one accumulator.  A
  parity restricted record may carry a *companion*: the closed form of
  the same sum without ``[n=k(2)]``, written as one side in this notation.

Clearing: how a printed statement becomes a cleared record
  * A denominator holding a ring element (``D^2``, ``y^2+4t``,
    ``2 (9y^2-t)``, ``lam1 - lam2``, ...) is cleared: both sides are
    multiplied by it, its scalar factors included.  A scalar denominator
    stays a rational factor (``(phi_n + D S_(n-1)) / 2``).
  * A summand power ``X^(n-k-c)``, c > 0, is read as ``X^(n-k)`` and
    ``X^c`` is cleared into the other side.
  The note of a cleared record says "recorded cleared by".

Rewrites of a statement
  A record keeps its cleared statement, the pair of side trees.  The
  corrected T3 records rewrite their source's statement with
  ``summand``, ``without``, ``substitute``, ``product``, ``difference``,
  ``quotient`` and ``sum_of``, whose new pieces are written in this
  notation (``"C(n,k)"``, ``"n+2"``); the record stores the result and
  compiles it as a read anchor is compiled.  The two rewrites, the weight conversion
  and the index shift n = m+2, are stated in
  :mod:`convcheck.identities.derive`.

Annotations, each checked against the record it states when the
record's sides are first read
  ``(n positive)``          the record's range starts at n = 1 or later
  ``[d = sqrt(E)]``         E equals d^2 in the record's ring
  ``[letters = F roots]``   the record's ring is F's root ring

Transcription conventions of the catalog
  * The balancing corollaries of the number-weighted sums are printed
    in the variables ``(x, y)``; their anchors are transcribed in
    ``(y, t)`` (``x -> y``, ``y -> t``) so both families share one
    variable scheme, and their notes say so.  The polynomial-weighted
    balancing corollaries are printed in ``(y, t)`` already.
  * A few statements mix the index letters n and m; both name the
    record index, and the note says so.
"""

from __future__ import annotations

import functools
import re
from typing import Any, List, Optional, Tuple

from .._fields import Fields
from .._scalar import Rational
from ..arith import binomial
from ..sequences import bernoulli_number, euler_number, genocchi_number
from ..symfun import ehp_step
from . import core
from .core import (
    FAMILIES,
    SideFn,
    eval_convolution_sum,
    get_context,
    printed_ratio,
)

__all__ = [
    "IdentityRecord",
    "difference",
    "printed",
    "product",
    "quotient",
    "read_anchor",
    "substitute",
    "sum_of",
    "summand",
    "without",
]

# leading space, then a token or (third group) a character that starts
# none; the single letters listed first begin no longer name
_TOKEN = re.compile(
    r"(\s*)(?:([-+/^=(),\[\]]|\d+|[Duvxytdnmk]|C_?|[SBEGFLhp]_|B\*_|phi_|lam[12]|e[12]"
    r"|Sig|sum|sqrt|letters|roots|positive|" + "|".join(FAMILIES) + r")|(\S))"
)
# tokens that end a product
_STOP = {"+", "-", "=", ")", ",", "[", "]", "/", "^", ""}

# each symbol as a compiled node: ev(ctx, n)
_SYMBOLS = {
    "u": lambda ctx, n: ctx.u,
    "lam1": lambda ctx, n: ctx.u,
    "v": lambda ctx, n: ctx.v,
    "lam2": lambda ctx, n: ctx.v,
    "D": lambda ctx, n: ctx.D,
    "Sig": lambda ctx, n: ctx.Sig,
    "e1": lambda ctx, n: ctx.Sig,
    "e2": lambda ctx, n: ctx.Prod,
    "d": lambda ctx, n: ctx.delta,
    "x": lambda ctx, n: ctx.x,
    "y": lambda ctx, n: ctx.y,
    "t": lambda ctx, n: ctx.t,
}
_SEQUENCES = {
    "S_": lambda ctx, j: ctx.S(j),
    "phi_": lambda ctx, j: ctx.phi(j),
    "F_": lambda ctx, j: ctx.seq("fibonacci", j),
    "L_": lambda ctx, j: ctx.seq("lucas", j),
    "B*_": lambda ctx, j: ctx.seq("balancing", j),
    "C_": lambda ctx, j: ctx.seq("lucas_balancing", j),
}
_NUMBERS = {"B_": bernoulli_number, "E_": euler_number, "G_": genocchi_number}
_ATOMS = {"n": ("idx", "n"), "m": ("idx", "n"), "k": ("idx", "k")}
_ATOMS.update((name, ("sym", name)) for name in _SYMBOLS)
_POLYNOMIALS = {"B_": "bernoulli", "E_": "euler", "G_": "genocchi"}
_BINOMIAL_NK = ("binom", ("idx", "n"), ("idx", "k"))
_N_MINUS_K = ("add", (("+", ("idx", "n")), ("-", ("idx", "k"))))


def _error(anchor: str, pos: int, message: str) -> ValueError:
    return ValueError(f"anchor {anchor!r} at position {pos}: {message}")


class _Reader:
    """Recursive-descent parser from an anchor to a tuple tree.

    Nodes: ("num", int), ("idx", "n"|"k"), ("sym", name),
    ("seq", kind, sub), ("npoly", kind, sub), ("ehp", "h"|"p", sub, a, b),
    ("binom", a, b), ("pow", base, exp), ("div", num, den),
    ("mul", factors), ("add", ((sign, term), ...)), ("sum", parity, summand).
    """

    def __init__(self, anchor: str):
        self.anchor = anchor
        # (leading space, token, a character that starts no token)
        self.toks = _TOKEN.findall(anchor)
        # closed by empty end tokens, so the parser may look two past the last
        self.texts = [tok[1] for tok in self.toks] + ["", "", ""]
        if "" in self.texts[:-3]:
            self.i = self.texts.index("")
            raise self.error(f"unknown symbol {self.toks[self.i][2]!r}")
        self.i = 0

    def position(self, i: int) -> int:
        """Where token i starts in the anchor (its end, past the last)."""
        before = sum(len("".join(tok)) for tok in self.toks[:i])
        return before + len(self.toks[i][0]) if i < len(self.toks) else before

    def peek(self) -> str:
        return self.texts[self.i]

    def error(self, message: str, at: Optional[int] = None) -> ValueError:
        return _error(self.anchor, self.position(self.i if at is None else at), message)

    def take(self, *expected: str) -> str:
        text = self.peek()
        if expected and text not in expected:
            want = " or ".join(repr(e) for e in expected)
            raise self.error(f"expected {want}, found {text or 'the end'!r}")
        self.i += 1
        return text

    def expect(self, pattern: str) -> None:
        """Take the space-separated tokens of pattern; a|b allows either."""
        for item in pattern.split():
            self.take(*item.split("|"))

    # -- grammar ---------------------------------------------------------

    def statement(self):
        lhs = self.side()
        self.take("=")
        rhs = self.side()
        return lhs, rhs, self.notes()

    def notes(self):
        notes = []
        while self.peek() in ("(", "["):
            notes.append(self.annotation())
        self.take("")
        return notes

    def lone_side(self):
        side = self.side()
        self.take("")
        return side

    def side(self):
        if self.peek() != "sum":
            return self.expr()
        self.take("sum")
        parity = self.peek() == "["
        if parity:
            self.expect("[ n|m = k ( 2 ) ]")
        at = self.i
        summand = self.term()
        try:
            _split(summand)
        except ValueError as err:
            raise self.error(str(err), at) from None
        return ("sum", parity, summand)

    def expr(self):
        sign = self.take("-") if self.texts[self.i] == "-" else "+"
        terms = [(sign, self.term())]
        while self.texts[self.i] in ("+", "-"):
            sign = self.texts[self.i]
            self.i += 1
            terms.append((sign, self.term()))
        if terms == [("+", terms[0][1])]:
            return terms[0][1]
        return ("add", tuple(terms))

    def term(self):
        """Juxtaposed factors; a factor is power ('/' power)* and a power
        is primary ['^' primary], so ^ binds tightest and / before
        juxtaposition."""
        texts = self.texts
        factors = []
        while True:
            node = None
            while True:
                part = self.primary()
                if texts[self.i] == "^":
                    self.i += 1
                    part = ("pow", part, self.primary())
                node = part if node is None else ("div", node, part)
                if texts[self.i] != "/":
                    break
                self.i += 1
            factors.append(node)
            if texts[self.i] in _STOP or texts[self.i:self.i + 3] == ["(", "n", "positive"]:
                return factors[0] if len(factors) == 1 else ("mul", tuple(factors))

    def pair(self):
        self.take("(")
        a = self.expr()
        self.take(",")
        b = self.expr()
        self.take(")")
        return a, b

    def primary(self):
        at = self.i
        text = self.texts[at]
        self.i += 1
        if text in _ATOMS:
            return _ATOMS[text]
        if text.isdigit():
            return ("num", int(text))
        if text == "(":
            node = self.expr()
            self.take(")")
            return node
        if text == "C":
            return ("binom", *self.pair())
        if text in _SEQUENCES or text in _NUMBERS:
            sub = self.primary()
            glued = self.texts[self.i] == "(" and not self.toks[self.i][0]
            if text in _POLYNOMIALS and glued:
                self.expect("( x )")
                return ("npoly", text, sub)
            return ("seq", text, sub)
        if text in ("h_", "p_"):
            sub = self.primary()
            at = self.i
            a, b = self.pair()
            try:
                _letters(a, b)
            except ValueError as err:
                raise self.error(str(err), at) from None
            return ("ehp", text[0], sub, a, b)
        raise self.error(f"unexpected {text or 'end'!r}", at)

    def annotation(self):
        at = self.position(self.i)
        if self.peek() == "(":
            self.expect("( n positive )")
            return ("positive", at)
        self.take("[")
        if self.peek() == "d":
            self.expect("d = sqrt (")
            radicand = self.expr()
            self.expect(") ]")
            return ("sqrt", at, radicand)
        self.expect("letters =")
        family = self.take(*FAMILIES)
        self.expect("roots ]")
        return ("letters", at, family)


# --------------------------------------------------------------------------
# tree queries and the clearing rules
# --------------------------------------------------------------------------


def _is_ring(node) -> bool:
    """Whether node is a ring element (else an exact scalar)."""
    tag = node[0]
    if tag in ("sym", "npoly", "ehp", "sum"):
        return True
    if tag == "seq":
        return node[1] in _SEQUENCES
    if tag == "pow":
        return _is_ring(node[1])
    if tag == "div":
        return _is_ring(node[1]) or _is_ring(node[2])
    if tag == "mul":
        return any(_is_ring(f) for f in node[1])
    if tag == "add":
        return any(_is_ring(t) for _, t in node[1])
    return False


def _linear(node) -> Optional[Tuple[int, int, int]]:
    """(a, b, c) when node is the index a n + b k + c, else None."""
    if node[0] == "num":
        return (0, 0, node[1])
    if node[0] == "idx":
        return (1, 0, 0) if node[1] == "n" else (0, 1, 0)
    if node[0] != "add":
        return None
    total = (0, 0, 0)
    for sign, term in node[1]:
        lin = _linear(term)
        if lin is None:
            return None
        s = 1 if sign == "+" else -1
        total = tuple(t + s * x for t, x in zip(total, lin))
    return total


def _index_reads(node) -> set:
    """The (a, b) of each index expression a n + b k + c in node that
    reads an index; empty for a node that reads none."""
    lin = _linear(node) if node[0] in ("idx", "add") else None
    if lin is not None:
        return {lin[:2]} if lin[:2] != (0, 0) else set()
    return set().union(*(_index_reads(c) for c in node if isinstance(c, tuple)))


def _factors(node) -> List[Any]:
    """The factors of a product, nested products flattened."""
    if node[0] != "mul":
        return [node]
    return [f for part in node[1] for f in _factors(part)]


def _clear(side):
    """(side, by): side with a cleared factor taken out, and the factor
    the other side is multiplied by (None if nothing is cleared)."""
    if side[0] == "sum":
        factors = _factors(side[2])
        for i, f in enumerate(factors):
            lin = _linear(f[2]) if f[0] == "pow" else None
            if lin and lin[:2] == (1, -1) and lin[2] < 0 and not _index_reads(f[1]):
                factors[i] = ("pow", f[1], _N_MINUS_K)
                return ("sum", side[1], ("mul", tuple(factors))), ("pow", f[1], ("num", -lin[2]))
        return side, None
    terms = list(side[1]) if side[0] == "add" else [("+", side)]
    for i, (sign, term) in enumerate(terms):
        factors = _factors(term)
        for j, f in enumerate(factors):
            if f[0] == "div" and _is_ring(f[2]):
                den = f[2]
                factors[j] = f[1]
                terms = [
                    (s, ("mul", tuple(factors)) if m == i else ("mul", (den, t)))
                    for m, (s, t) in enumerate(terms)
                ]
                return ("add", tuple(terms)), den
    return side, None


# --------------------------------------------------------------------------
# compilation: a tree becomes a closure ev(ctx, n)
# --------------------------------------------------------------------------


def _scalar_power(base, e: int):
    return base ** e if e >= 0 else Rational(base) ** e


def _product(factors) -> SideFn:
    """Scalar factors first; ring factors only if their product is not 0."""
    if len(factors) == 1:
        return _compile(factors[0])
    scalars = [_compile(f) for f in factors if not _is_ring(f)]
    rings = [_compile(f) for f in factors if _is_ring(f)]
    first, rest = (rings[0], rings[1:]) if rings else (None, ())

    def ev(ctx, n):
        s = 1
        for f in scalars:
            s = s * f(ctx, n)
        if first is None:
            return s
        if not s:
            return ctx.zero
        r = first(ctx, n)
        for f in rest:
            r = r * f(ctx, n)
        return r if s == 1 else s * r

    return ev


@functools.lru_cache(maxsize=None)
def _operand(factors: tuple) -> SideFn:
    """fn(ctx, i), the product of a summand's factors, each rewritten to
    read its index as n, as an element at n = i, for ``Context.memo``.
    Equal products share one callable, so equal factors of different
    records share their memo entries."""
    ev = _compile(("mul", factors))
    return lambda ctx, i: ctx.embed(ev(ctx, i))


_OF_K, _OF_N_MINUS_K = (0, 1), (1, -1)


@functools.lru_cache(maxsize=None)
def _split(summand):
    """(binomial, of_k, of_j, weights): a summand's factors sorted as
    the Sums section says; raises ValueError on a factor it refuses.
    Cached, as a summand is sorted when read and again when compiled."""
    use_binomial = False
    of_k, of_j, weights = [], [], []
    for f in _factors(summand):
        if f == _BINOMIAL_NK:
            use_binomial = True
            continue
        reads = _index_reads(f)
        if reads == {_OF_K}:
            of_k.append(f)
        elif reads <= {_OF_N_MINUS_K}:
            (of_j if _is_ring(f) else weights).append(f)
        else:
            raise ValueError("a summand factor must read k alone or n-k alone")
    return use_binomial, tuple(of_k), tuple(of_j), tuple(weights)


def _letters(a, b):
    """The letters (a, b) of h_j(a, b) or p_j(a, b); raises ValueError
    on a letter that reads an index."""
    if _index_reads(a) or _index_reads(b):
        raise ValueError("the letters of h_j(a, b) and p_j(a, b) must read no index")
    return a, b


@functools.lru_cache(maxsize=None)
def _ehp(kind: str, a, b) -> SideFn:
    """fn(ctx, j), the state of h_j(a, b) or p_j(a, b) (see
    :func:`~convcheck.symfun.ehp_step`) for ``Context.memo``: one step
    from the memo's state at j-1.  Equal nodes share one callable."""
    a, b = _compile(a), _compile(b)

    def state(ctx, j):
        prev = ctx.memo(state, j - 1) if j else None
        return ehp_step(kind, a(ctx, 0), b(ctx, 0), prev)

    return state


def _sum(parity: bool, summand) -> SideFn:
    use_binomial, of_k, of_j, weights = _split(summand)
    of_j, weights = (tuple(substitute(f, k=("num", 0)) for f in fs) for fs in (of_j, weights))
    low_fn = _operand(tuple(substitute(f, k=("idx", "n")) for f in of_k))
    high_fn = _operand(of_j)
    weight_fn = _compile(("mul", weights)) if weights else None

    def ev(ctx, n):
        memo = ctx.memo
        return eval_convolution_sum(
            ctx, n,
            functools.partial(memo, low_fn),
            functools.partial(memo, high_fn),
            use_binomial=use_binomial,
            weight=None if weight_fn is None else functools.partial(memo, weight_fn),
            parity=parity,
        )

    return ev


@functools.lru_cache(maxsize=None)
def _compile(node) -> SideFn:
    """The closure ev(ctx, n) of node; equal nodes share one.  A sum
    compiles its operands and weight rewritten to read n alone, so k
    can only be read outside a sum, and is refused."""
    tag = node[0]
    if tag == "num":
        value = node[1]
        return lambda ctx, n: value
    if tag == "sym":
        return _SYMBOLS[node[1]]
    if tag in ("seq", "npoly"):
        sub = _compile(node[2])
        if tag == "npoly":
            kind = _POLYNOMIALS[node[1]]
            return lambda ctx, n: ctx.npoly(kind, sub(ctx, n))
        if node[1] in _SEQUENCES:
            sequence = _SEQUENCES[node[1]]
            return lambda ctx, n: sequence(ctx, sub(ctx, n))
        number = _NUMBERS[node[1]]

        def ev_number(ctx, n):
            j = sub(ctx, n)
            return number(j) if j >= 0 else 0

        return ev_number
    if tag == "ehp":
        sub, state = _compile(node[2]), _ehp(node[1], *_letters(node[3], node[4]))

        def ev_ehp(ctx, n):
            j = sub(ctx, n)
            if j < 0:
                raise ValueError(f"h_j/p_j: index must be non-negative, got {j}")
            # filled from below, each state finds the one before it in
            # the memo, so no call recurses more than one step
            for i in range(j + 1):
                got = ctx.memo(state, i)
            return got[0]

        return ev_ehp
    if tag == "binom":
        a, b = _compile(node[1]), _compile(node[2])
        return lambda ctx, n: binomial(a(ctx, n), b(ctx, n))
    if tag == "pow":
        base, exp = _compile(node[1]), _compile(node[2])
        if _is_ring(node[1]):
            return lambda ctx, n: ctx.power(base(ctx, n), exp(ctx, n))
        return lambda ctx, n: _scalar_power(base(ctx, n), exp(ctx, n))
    if tag == "div":
        if _is_ring(node[2]):
            raise ValueError("a ring denominator must divide a whole term of a side")
        num, den = _compile(node[1]), _compile(node[2])
        if _is_ring(node[1]):
            return lambda ctx, n: num(ctx, n) * printed_ratio(1, den(ctx, n))
        return lambda ctx, n: printed_ratio(num(ctx, n), den(ctx, n))
    if tag == "mul":
        return _product(_factors(node))
    if tag in ("idx", "add"):
        lin = _linear(node)
        if lin is not None:
            a, b, c = lin
            if b:
                raise ValueError("k is read outside a sum")
            return lambda ctx, n: a * n + c
        (sign0, first), rest = node[1][0], [(s == "-", _compile(t)) for s, t in node[1][1:]]
        first, negate = _compile(first), sign0 == "-"

        def ev_add(ctx, n):
            total = first(ctx, n)
            if negate:
                total = -total
            for minus, f in rest:
                total = total - f(ctx, n) if minus else total + f(ctx, n)
            return total

        return ev_add
    return _sum(node[1], node[2])


# symbols whose generic value is not carried to a root ring by the map
# of Context.from_generic: the variables it does not fix (y and t), and
# d and the family sequences, which the generic ring does not have
_ROOT_ONLY_SYMBOLS = core.NOT_FIXED_BY_PHI + ("d",)
_ROOT_ONLY_SEQUENCES = ("F_", "L_", "B*_", "C_")


def _reads_root_only(node) -> bool:
    if node[0] == "sym":
        return node[1] in _ROOT_ONLY_SYMBOLS
    if node[0] == "seq" and node[1] in _ROOT_ONLY_SEQUENCES:
        return True
    return any(_reads_root_only(c) for c in node if isinstance(c, tuple))


@functools.lru_cache(maxsize=None)
def _side(node) -> SideFn:
    """side(ctx, n) of a side tree: its compiled closure, or for a tree
    that may be transported, a closure that tests the context first.
    Equal trees share one callable, and so one ``Context.memo`` entry
    per n, whichever records state them.

    In the shared context of a root ring (:func:`get_context`), a tree
    that reads no root-only symbol (y, t, d, ``F_``, ``L_``, ``B*_``,
    ``C_``) takes its value at n from the shared generic context's memo,
    through the ring map :meth:`Context.from_generic`, and the generic
    context evaluates it there first when it does not hold it; such a
    tree is evaluated directly only in a context a caller made itself.
    Every ring holds its elements in Sig, D and x, and the map is the
    identity on them, so both routes give one polynomial, and each such
    tree is evaluated once for both families.  A derived corollary
    states its theorem's trees, so it takes its sides from the theorem's
    run."""
    ev = _compile(node)
    if _reads_root_only(node):
        return ev

    def side(ctx, n):
        if ctx.family is not None and core._CONTEXTS.get(ctx.ring) is ctx:
            return ctx.from_generic(get_context("indeterminate").memo(side, n))
        return ev(ctx, n)

    return side


Statement = Tuple[Any, Any]  # the two side trees of an equation


def _cleared(lhs, rhs) -> Statement:
    """Both sides, cleared."""
    lhs, by_lhs = _clear(lhs)
    rhs, by_rhs = _clear(rhs)
    if by_lhs is not None:
        rhs = ("mul", (by_lhs, rhs))
    if by_rhs is not None:
        lhs = ("mul", (by_rhs, lhs))
    return lhs, rhs


# --------------------------------------------------------------------------
# reading an anchor, and the records that state one
# --------------------------------------------------------------------------


def _check(anchor: str, note, ring: str, lo: int) -> None:
    """Raise if the annotation note rules out a record in ring from lo."""
    kind, at = note[0], note[1]
    if kind == "positive":
        if lo < 1:
            raise _error(anchor, at, f"(n positive) needs a range from 1, not from {lo}")
    elif kind == "letters":
        if ring != f"{note[2]}-roots":
            raise _error(anchor, at, f"the letters are {note[2]} roots, not of ring {ring}")
    else:
        ctx = get_context(ring)
        if ctx.family is None or _compile(note[2])(ctx, 0) != ctx.delta * ctx.delta:
            raise _error(anchor, at, f"the radicand is not d^2 in ring {ring}")


@functools.lru_cache(maxsize=None)
def _read(anchor: str, ring: str, lo: int, companion: Optional[str]):
    """(statement, statement of the companion or None, cleared) of an
    anchor, read once per (anchor, ring, lo, companion), which is also
    when its annotations are checked against ``ring`` and ``lo``."""
    lhs, rhs, notes = _Reader(anchor).statement()
    for note in notes:
        _check(anchor, note, ring, lo)
    statement = _cleared(lhs, rhs)
    full = None
    if companion is not None:
        if not (lhs[0] == "sum" and lhs[1]):
            raise ValueError(f"anchor {anchor!r}: a companion needs a parity-restricted sum")
        full = _cleared(("sum", False, lhs[2]), _piece(companion))
    return statement, full, statement != (lhs, rhs)


# the views a side passed to IdentityRecord.replace takes the place of
_SIDES = ("lhs", "rhs", "unrestricted_lhs", "unrestricted_rhs")


class IdentityRecord(Fields):
    """One catalog entry: a single equation in a single variant.

    ``anchor`` quotes the equation as the catalog states it, and is the
    statement checked unless ``rewritten`` holds the statement rewritten
    from another record's (:mod:`convcheck.identities.derive`); ``note``
    documents a known discrepancy on as-printed variants.  A parity
    restricted sum may carry a ``companion``, the closed form of the
    same sum over every k, which :func:`parity_restriction_equivalence`
    checks.

    Everything else is a view of these fields, read on first use:
    ``statement``, the two cleared side trees; ``parity``; and the side
    callables ``lhs``/``rhs`` (and ``unrestricted_lhs``/
    ``unrestricted_rhs`` of the companion), each ``side(ctx, n)`` for a
    context's ring at index n.  Reading the anchor checks its
    annotations against the record's ring and lo, and raises any error
    of the anchor; a rewritten record reads its quoted anchor so when
    its sides are first compiled.  A side passed to
    :meth:`replace` takes the place of its view.
    """

    _fields = ("ident", "variant", "ring", "lo", "hi", "anchor", "note", "source",
               "companion", "rewritten")

    def __init__(
        self,
        ident: str,
        variant: str,  # "as_printed" | "corrected"
        ring: str,
        lo: int,
        hi: int,
        anchor: str,
        note: Optional[str] = None,
        *,
        source: Optional[str] = None,
        companion: Optional[str] = None,
        rewritten: Optional[Statement] = None,
    ):
        self.ident = ident
        self.variant = variant
        self.ring = ring
        self.lo = lo
        self.hi = hi
        self.anchor = anchor
        self.note = note
        self.source = source
        self.companion = companion
        self.rewritten = rewritten

    @functools.cached_property
    def _trees(self):
        if self.rewritten is None:
            return _read(self.anchor, self.ring, self.lo, self.companion)
        if self.companion is not None:
            raise ValueError(f"{self.key}: a rewritten statement takes no companion")
        return self.rewritten, None, False

    @property
    def statement(self) -> Statement:
        return self._trees[0]

    @property
    def cleared(self) -> bool:
        """Whether a factor of the anchor was cleared into the other side."""
        return self._trees[2]

    @property
    def parity(self) -> bool:
        """Whether the left side sums over k = n (mod 2) only; a cleared
        right side wraps the left one in ("mul", (by, lhs))."""
        lhs = self.statement[0]
        if lhs[0] == "mul":
            lhs = lhs[1][-1]
        return lhs[0] == "sum" and lhs[1]

    @functools.cached_property
    def _checked(self) -> Statement:
        # the statement, once a rewritten record's quoted anchor reads
        # and its annotations hold; a read anchor's were checked when read
        if self.rewritten is not None:
            _read(self.anchor, self.ring, self.lo, None)
        return self.statement

    @functools.cached_property
    def lhs(self) -> SideFn:
        return _side(self._checked[0])

    @functools.cached_property
    def rhs(self) -> SideFn:
        return _side(self._checked[1])

    @functools.cached_property
    def unrestricted_lhs(self) -> Optional[SideFn]:
        full = self._trees[1]
        return None if full is None else _side(full[0])

    @functools.cached_property
    def unrestricted_rhs(self) -> Optional[SideFn]:
        full = self._trees[1]
        return None if full is None else _side(full[1])

    def replace(self, **changes) -> "IdentityRecord":
        """A new record with the named fields changed, its views read from
        its own fields; a side named here takes the place of its view."""
        unknown = sorted(set(changes) - set(self._fields) - set(_SIDES))
        if unknown:
            raise TypeError(f"IdentityRecord has no field {unknown[0]!r}")
        new = object.__new__(type(self))
        vars(new).update((name, getattr(self, name)) for name in self._fields)
        vars(new).update(changes)
        return new

    @property
    def key(self) -> str:
        return f"{self.ident}:{self.variant}"

    def default_range(self) -> Tuple[int, int]:
        return (self.lo, self.hi)


# a table of printed anchors states each record by this name
printed = IdentityRecord


def read_anchor(
    anchor: str, ring: str, lo: int, companion: Optional[str] = None
) -> IdentityRecord:
    """A record stating ``anchor`` in ``ring`` from n = ``lo``, read now.

    Raises ValueError naming the anchor and the position of the first
    thing that cannot be read, a summand with a factor that reads n
    other than as n-k, or an annotation the record rules out.  (A ring
    denominator inside a term, which no clearing rule removes, is
    refused when the side is first compiled.)
    """
    _read(anchor, ring, lo, companion)
    return IdentityRecord("", "as_printed", ring, lo, lo, anchor, companion=companion)


# --------------------------------------------------------------------------
# rewrites of a statement's sides; a new piece is written in the notation
# --------------------------------------------------------------------------


def _piece(part):
    """A side tree, or the tree of a piece written in the notation."""
    return _Reader(part).lone_side() if isinstance(part, str) else part


def summand(side):
    """The summand of a side that is a sum over every k."""
    if side[0] != "sum" or side[1]:
        raise ValueError("the side is not a sum over every k")
    return side[2]


def sum_of(term):
    """The sum over every k of a summand."""
    return ("sum", False, _piece(term))


def without(term, *factors: str):
    """The product ``term`` with each of ``factors`` taken out once."""
    rest = _factors(term)
    for text in factors:
        factor = _piece(text)
        if factor not in rest:
            raise ValueError(f"the term has no factor {text}")
        rest.remove(factor)
    return ("mul", tuple(rest))


def substitute(node, **indices):
    """``node`` with the index n and/or k replaced, at once, by pieces or trees."""
    pieces = {("idx", name): _piece(text) for name, text in indices.items()}

    def walk(part):
        if part in pieces:
            return pieces[part]
        return tuple(walk(c) if isinstance(c, tuple) else c for c in part)

    return walk(node)


def product(*parts):
    """The product of trees and pieces."""
    return ("mul", tuple(_piece(p) for p in parts))


def difference(first, *rest):
    """``first`` minus each of ``rest``."""
    return ("add", (("+", _piece(first)),) + tuple(("-", _piece(p)) for p in rest))


def quotient(num, den):
    """``num`` divided by a scalar ``den``."""
    return ("div", _piece(num), _piece(den))
