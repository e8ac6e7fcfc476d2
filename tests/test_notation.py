"""The anchor notation: every printed record's sides are read from its anchor.

``tests/data/printed_sides.json`` is the migration oracle.  It holds, for
each of the 71 records once written as hand-transcribed side functions
(the 67 as-printed records and the hand-stated corrected L1.2S, R1.1,
R1.2 and BINET.C) and for the 4 parity companions, the sha256 of
``str(side)`` at every n in [lo, min(hi, lo+12)], or the ``undefined: ...``
reason.  It was written from those hand-written functions before they
were deleted; the sides read from the anchors must reproduce it exactly.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from convcheck.arith import VARIABLES, ProductSum
from convcheck.identities import (
    Context,
    PrintedFormUndefined,
    get_context,
    get_record,
    register_catalog,
    run_record,
)
from convcheck.identities.notation import printed, read_anchor
from convcheck.quadext import QuadExtElem

ORACLE = json.loads((Path(__file__).parent / "data" / "printed_sides.json").read_text())
HAND_STATED = {"L1.2S", "R1.1", "R1.2", "BINET.C"}
SIDES = ("lhs", "rhs", "unrestricted_lhs", "unrestricted_rhs")


def from_anchor(rec):
    return rec.variant == "as_printed" or rec.ident in HAND_STATED


def side_digest(fn, ctx, n):
    try:
        value = fn(ctx, n)
    except PrintedFormUndefined as exc:
        return f"undefined: {exc}"
    return hashlib.sha256(str(value).encode()).hexdigest()


# ---------------------------------------------------------------------------
# the migration oracle and the records' own consistency
# ---------------------------------------------------------------------------


def test_oracle_covers_every_record_read_from_an_anchor():
    keys = {rec.key for rec in register_catalog() if from_anchor(rec)}
    assert keys == set(ORACLE) and len(keys) == 71
    assert sum("unrestricted_lhs" in entry for entry in ORACLE.values()) == 4


@pytest.mark.parametrize("key", sorted(ORACLE))
def test_parsed_sides_match_the_hand_written_ones(key):
    rec = get_record(key)
    ctx = Context(rec.ring)
    entry = ORACLE[key]
    assert entry["lo"] == rec.lo
    assert [name for name in SIDES if getattr(rec, name) is not None] == [
        name for name in SIDES if name in entry
    ]
    for name in SIDES:
        if name in entry:
            fn = getattr(rec, name)
            got = [side_digest(fn, ctx, rec.lo + i) for i in range(len(entry[name]))]
            assert got == entry[name], name


@pytest.mark.parametrize("ident", ["T3.5b", "T3.3", "T3.6a", "T3.6b"])
def test_rewritten_record_evaluates_its_quoted_anchor(ident):
    # each side of a record rewritten from its source statement equals the
    # same side read from the corrected anchor it quotes, not only their
    # difference, so a dropped halving or sign flip shows
    rec = get_record(f"{ident}:corrected")
    form = read_anchor(rec.anchor, rec.ring, rec.lo)
    ctx = Context(rec.ring)
    for n in range(rec.lo, rec.lo + 13):
        assert rec.lhs(ctx, n) == form.lhs(ctx, n), n
        assert rec.rhs(ctx, n) == form.rhs(ctx, n), n


QUOTED = ["T3.3", "T3.5b", "T3.6a", "T3.6b", "C3.3", "C3.5b", "C3.6a", "C3.6b",
          "C3.10", "C3.12b", "C3.13a", "C3.13b"]


@pytest.mark.parametrize("ident", QUOTED)
def test_a_quoted_corrected_form_holds_over_the_full_range(ident):
    # a rewritten record checks its rewritten tree and quotes a
    # hand-simplified anchor in the errata; read as a statement in the
    # record's ring, the quotation holds at every n of the record's
    # range, and each of its sides is the rewritten record's
    rec = get_record(f"{ident}:corrected")
    assert rec.rewritten is not None
    lo, hi = rec.default_range()
    quoted = read_anchor(rec.anchor, rec.ring, rec.lo)
    ctx = Context(rec.ring)
    verdicts = run_record(quoted, (lo, hi), ctx)
    assert [v.n for v in verdicts if v.passed] == list(range(lo, hi + 1))
    for n in range(lo, hi + 1):
        assert rec.lhs(ctx, n) == quoted.lhs(ctx, n), n
        assert rec.rhs(ctx, n) == quoted.rhs(ctx, n), n


def test_every_rewritten_record_is_quoted():
    rewritten = {rec.ident for rec in register_catalog() if rec.rewritten is not None}
    assert rewritten == set(QUOTED)


def test_note_says_cleared_exactly_when_a_factor_was_cleared():
    cleared = {}
    for rec in register_catalog():
        if from_anchor(rec):
            form = read_anchor(rec.anchor, rec.ring, rec.lo)
            cleared[rec.key] = form.cleared
            assert form.cleared == ("recorded cleared by" in (rec.note or "")), rec.key
    assert sum(cleared.values()) == 14


def test_the_parity_flag_comes_from_the_anchor():
    for rec in register_catalog():
        if from_anchor(rec):
            assert rec.parity == rec.anchor.startswith(("sum[n=k(2)]", "sum[m=k(2)]"))


def test_corrected_anchors_hold_in_their_rings():
    # the anchors of the mechanically derived records are quoted in the
    # errata as "corrected form"; read as statements they must hold too
    derived = [rec for rec in register_catalog() if not from_anchor(rec)]
    assert len(derived) == 4 + 38
    for rec in derived:
        form = read_anchor(rec.anchor, rec.ring, rec.lo)
        ctx = get_context(rec.ring)
        for n in range(rec.lo, 7):
            assert form.lhs(ctx, n) == form.rhs(ctx, n), (rec.key, n)


# ---------------------------------------------------------------------------
# the notation itself
# ---------------------------------------------------------------------------


def sides(anchor, ring="indeterminate", n=3):
    form = read_anchor(anchor, ring, 0)
    ctx = get_context(ring)
    return form.lhs(ctx, n), form.rhs(ctx, n)


def test_glued_symbols_multiply():
    ctx = get_context("fibonacci-roots")
    lhs, rhs = sides("2xd = 2 x d", "fibonacci-roots")
    assert lhs == rhs == 2 * ctx.x * ctx.delta
    lhs, rhs = sides("dx + 9y^2 = d x + 9 y^2", "fibonacci-roots")
    assert lhs == rhs
    ind = get_context("indeterminate")
    lhs, rhs = sides("xD = x D")
    assert lhs == rhs == ind.x * ind.D
    lhs, rhs = sides("(3u+v)^n = (3 u + v)^n")
    assert lhs == rhs == (3 * ind.u + ind.v) ** 3


def test_juxtaposed_parenthesis_multiplies_but_a_basis_is_called():
    ind = get_context("indeterminate")
    for n in range(5):
        lhs, rhs = sides("n(1-n) u^n = n u^n - n^2 u^n", n=n)
        assert lhs == rhs == n * (1 - n) * ind.u ** n
        lhs, rhs = sides("S_n = h_n(u, v)", n=n)
        assert lhs == rhs == ind.S(n)


def test_division_binds_tighter_than_juxtaposition():
    ind = get_context("indeterminate")
    lhs, rhs = sides("2 u/2 v = u v")
    assert lhs == rhs == ind.u * ind.v
    # a scalar ratio is one factor: 3/(n-1) at n = 3 is 3/2, not 3/n - 1
    lhs, _ = sides("3/(n-1) u = u", n=3)
    assert lhs == Fraction(3, 2) * ind.u


def test_a_ratio_over_zero_is_undefined_unless_its_numerator_is_zero():
    ctx = get_context("indeterminate")
    form = read_anchor("B_(n-2)/(n-2) u^n = u^n", "indeterminate", 0)
    with pytest.raises(PrintedFormUndefined, match=r"^summand coefficient 1/0$"):
        form.lhs(ctx, 2)
    assert form.lhs(ctx, 3) == -ctx.u ** 3 / 2
    # G_0 = 0, so G_0/0 contributes nothing
    zero = read_anchor("G_(n-2)/(n-2) u^n = u^n", "indeterminate", 0)
    assert zero.lhs(ctx, 2) == ctx.zero


def test_scalar_zero_skips_the_ring_factors():
    # x^(n-2) has no value at n = 0 or 1, where the scalar part is 0
    ctx = get_context("fibonacci-roots")
    form = read_anchor("2n(1-n) (y^2+4t) x^(n-2) = 0 x", "fibonacci-roots", 0)
    assert form.lhs(ctx, 0) == form.lhs(ctx, 1) == ctx.zero


def one_line_error(anchor, ring, lo=0):
    with pytest.raises(ValueError) as info:
        read_anchor(anchor, ring, lo)
    message = str(info.value)
    assert "\n" not in message and repr(anchor) in message
    return message


def test_a_false_radicand_is_refused_where_it_stands():
    anchor = get_record("C3.1:as_printed").anchor.replace("sqrt(y^2+4t)", "sqrt(y^2+5t)")
    message = one_line_error(anchor, "fibonacci-roots")
    assert f"at position {anchor.index('[d = ')}:" in message


def test_an_unknown_symbol_is_refused_where_it_stands():
    anchor = get_record("T3.1:as_printed").anchor.replace("G_(n-k)", "Q_(n-k)")
    message = one_line_error(anchor, "indeterminate")
    assert f"at position {anchor.index('Q_')}: unknown symbol 'Q'" in message


def test_a_record_checks_its_annotations_when_its_sides_are_first_read():
    anchor = get_record("L1.1a:as_printed").anchor
    assert "(n positive)" in anchor
    rec = printed("L1.1a", "as_printed", "indeterminate", 0, 3, anchor)
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            rec.lhs
        assert repr(anchor) in str(info.value) and "(n positive)" in str(info.value)


def test_annotations_are_checked_against_the_record():
    assert "(n positive)" in one_line_error("S_n - u v S_(n-2) = phi_n  (n positive)", "indeterminate")
    derived = get_record("C3.1:corrected").anchor
    assert "fibonacci roots" in one_line_error(derived, "balancing-roots")


def test_a_companion_needs_a_parity_restricted_sum():
    anchor = get_record("T2.1b:as_printed").anchor
    with pytest.raises(ValueError) as info:
        read_anchor(anchor, "indeterminate", 0, "2^n phi_n")
    message = str(info.value)
    assert "\n" not in message and repr(anchor) in message
    assert "a companion needs a parity-restricted sum" in message


# ---------------------------------------------------------------------------
# the two operands of a summand
# ---------------------------------------------------------------------------


def summand_operands(key, n_range):
    """{(n, k): (first, second)}, the operands every summand of the
    record's sides hands the accumulator, on a fresh context."""
    ctx = Context(get_record(key).ring)
    seen = {}
    pair_product = ctx.pair_product

    def recording(left_fn, right_fn, k, j):
        seen[k + j, k] = pair_product(left_fn, right_fn, k, j)
        return seen[k + j, k]

    ctx.pair_product = recording
    run_record(get_record(key), n_range, ctx)
    return seen


def variables(value):
    """The variables a ring element reads, in Sig (x1), D (x2) and x for
    an element of a ring; ``sqrt`` for a printed root-ring element with
    a part in sqrt(d)."""
    parts = (value.a, value.b) if isinstance(value, QuadExtElem) else (value.poly,)
    names = {name for part in parts for exp in part.terms for name, e in zip(VARIABLES, exp) if e}
    return names | ({"sqrt"} if isinstance(value, QuadExtElem) and value.b else set())


@pytest.mark.parametrize(
    "key", ["T4.1:as_printed", "C4.1:as_printed", "C4.4:as_printed", "T3.1:as_printed"])
def test_a_summand_is_a_factor_of_k_times_a_factor_of_n_minus_k(key):
    # each operand is memoized per index: the one of k is one object at
    # every n, the one of n-k one object at (n, k) and at (n+1, k+1)
    operands = summand_operands(key, (4, 7))
    assert len(operands) >= 10
    for (n, k), (first, second) in operands.items():
        for m in range(4, 8):
            if (m, k) in operands:
                assert operands[m, k][0] is first
            if (m, k + m - n) in operands:
                assert operands[m, k + m - n][1] is second
        # the factors in x, G_j(x) of T4/C4, are in the operand of n-k
        assert "x" not in variables(first)
    if key != "T3.1:as_printed":
        assert sorted(operands) == [(n, k) for n in range(4, 8) for k in range(n + 1)]
        # G_0(x) = 0 and G_1(x) = 1 read no variable; the others read x
        assert "x" in variables(operands[6, 0][1])


def test_memoized_operands_form_fewer_products(monkeypatch):
    # T4.1-T4.3 to n = 32: the operand of n-k, D^j G_j(x), is formed once
    # per j, not once per (n, k) times its factor of k; it, the powers
    # (Sig + xD)^(n-1) and the right sides' products by 2n D form no
    # product in ProductSum
    counted = [0, 0]
    add = ProductSum.add

    def counting_add(self, num, den, p, q):
        counted[0] += len(p.terms) * len(q.terms) if num else 0
        counted[1] += 1
        return add(self, num, den, p, q)

    monkeypatch.setattr(ProductSum, "add", counting_add)
    ctx = Context("indeterminate")
    for key in ("T4.1:as_printed", "T4.2:as_printed", "T4.3:as_printed"):
        run_record(get_record(key), (0, 32), ctx)
    products, calls = counted
    assert products <= 52_000 and calls <= 1_800


@pytest.mark.parametrize("anchor", [
    "sum C(n,k) 2^n phi_k = 2^n phi_n",
    "sum C(n,k) C(n+2,k) S_k = S_n",
    "sum C(n,k) C(n-k,k) S_k = S_n",
])
def test_a_summand_factor_must_read_k_alone_or_n_minus_k_alone(anchor):
    # 2^n reads n, and so does C(n+2,k); C(n-k,k) reads both k and n-k
    ctx = get_context("indeterminate")
    with pytest.raises(ValueError) as info:
        rec = read_anchor(anchor, "indeterminate", 0)
        rec.lhs(ctx, 2)
    message = str(info.value)
    assert "\n" not in message and "k alone or n-k alone" in message


@pytest.mark.parametrize("anchor, side", [
    ("S_k = S_0", "lhs"),
    ("sum C(n,k) S_k S_(n-k) = S_(n+k)", "rhs"),
])
def test_k_read_outside_a_sum_is_refused_when_the_side_is_compiled(anchor, side):
    # k is the summation index; outside a sum it names no value, so a
    # side reading it is refused, not evaluated at some k
    rec = read_anchor(anchor, "indeterminate", 0)
    with pytest.raises(ValueError) as info:
        getattr(rec, side)
    message = str(info.value)
    assert "\n" not in message and "k is read outside a sum" in message


def test_a_bad_summand_is_refused_where_the_anchor_is_read():
    anchor = "sum C(n,k) 2^n phi_k = 2^n phi_n"
    with pytest.raises(ValueError) as info:
        read_anchor(anchor, "indeterminate", 0)
    assert str(info.value) == (
        f"anchor {anchor!r} at position 4: a summand factor must read k alone or n-k alone")


@pytest.mark.parametrize("anchor, at", [
    ("S_n = h_n(u, k)", 9),
    ("phi_n = p_n(n u, v)", 11),
    ("S_n = h_(n-1)(u + v^(n-1), v)", 13),
])
def test_the_letters_of_a_basis_must_read_no_index(anchor, at):
    # h_j(a, b) and p_j(a, b) keep one state per j, the same at every n;
    # the refusal points at the letters' parenthesis
    with pytest.raises(ValueError) as info:
        read_anchor(anchor, "indeterminate", 0)
    assert str(info.value) == (
        f"anchor {anchor!r} at position {at}: "
        "the letters of h_j(a, b) and p_j(a, b) must read no index")


def test_a_basis_at_a_negative_index_is_refused():
    rec = read_anchor("S_(n-1) = h_(n-1)(u, v)", "indeterminate", 0)
    ctx = Context("indeterminate")
    assert rec.lhs(ctx, 0) == 0
    with pytest.raises(ValueError, match=r"^h_j/p_j: index must be non-negative, got -1$"):
        rec.rhs(ctx, 0)
    assert rec.rhs(ctx, 3) == ctx.S(2)


@pytest.mark.parametrize("anchor", [
    "sum C(n,k) k = n 2^(n-1)",
    "sum C(n,k) 2^k phi_(n-k) = (2+u)^n + (2+v)^n",
])
def test_a_scalar_factor_of_k_is_part_of_the_operand_of_k(anchor):
    rec = read_anchor(anchor, "indeterminate", 0)
    assert all(v.passed for v in run_record(rec, (0, 6), Context("indeterminate")))
