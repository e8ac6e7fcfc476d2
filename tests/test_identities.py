"""Catalog-level behavior: which records hold, which fail, and where.

The expected first-failure table below is the adjudicated behavior of
the as-printed forms; it is asserted exactly so that any change in the
checker's verdict on any printed equation is caught.
"""

import dataclasses
from collections import Counter

import pytest

from convcheck._scalar import Rational
from convcheck.arith import MultiPoly
from convcheck.egf import EgfSeries, egf_mul
from convcheck.identities import (
    Context,
    PrintedFormUndefined,
    check_identity,
    get_context,
    get_record,
    parity_restriction_equivalence,
    printed_ratio,
    register_catalog,
    run_record,
    run_record_substituted,
    substitute_value,
)

# ---------------------------------------------------------------------------
# catalog shape
# ---------------------------------------------------------------------------


def test_catalog_size_and_uniqueness():
    catalog = register_catalog()
    assert len(catalog) == 113
    keys = [r.key for r in catalog]
    assert len(set(keys)) == len(keys)
    variants = {r.variant for r in catalog}
    assert variants == {"as_printed", "corrected"}


def test_catalog_is_registered_once():
    assert register_catalog() is not register_catalog() or True
    # same records, fresh list
    a, b = register_catalog(), register_catalog()
    assert [r.key for r in a] == [r.key for r in b]
    assert a is not b


def test_lookup_and_errors():
    rec = get_record("T2.1a:as_printed")
    assert rec.ident == "T2.1a"
    with pytest.raises(KeyError, match="unknown identity: NOPE"):
        check_identity("NOPE")
    with pytest.raises(KeyError):
        get_record("L1.2S")  # ambiguous: two variants


# ---------------------------------------------------------------------------
# adjudicated behavior of the as-printed forms
# ---------------------------------------------------------------------------

# ids that hold exactly as printed (full default ranges checked in the
# acceptance suite; a cheaper prefix is enough to pin behavior here)
PASSING_AS_PRINTED = [
    "T2.1a", "T2.1b", "T2.1c", "T2.2a", "T2.2b", "T2.2c",
    "T3.1", "T3.2", "T3.4a", "T3.4b", "T3.5a", "T3.7",
    "T4.1", "T4.2", "T4.3",
    "L1.1a", "L1.1b", "L1.1c",
    "BINET.F", "BINET.L", "BINET.Bst",
    "C2.1.1", "C2.1.3", "C2.2.1", "C2.2.2", "C2.2.3",
    "C2.3.1", "C2.3.2", "C2.3.3", "C2.4.1", "C2.4.2", "C2.4.3",
    "C3.7", "C3.9", "C3.12a", "C3.14",
    "C4.2", "C4.3", "C4.4",
]

# id -> first failing index of the as-printed variant
FIRST_FAIL = {
    "T3.3": 0,
    "T3.5b": 0,
    "T3.6a": 0,
    "T3.6b": 0,
    "L1.2S": 1,
    "BINET.C": 0,
    "C2.1.2": 0,
    "C3.1": 3,
    "C3.2": 3,
    "C3.3": 0,
    "C3.4a": 1,
    "C3.4b": 1,
    "C3.5a": 2,
    "C3.5b": 2,
    "C3.6a": 0,
    "C3.6b": 0,
    "C3.8": 2,
    "C3.10": 0,
    "C3.11a": 3,
    "C3.11b": 1,
    "C3.12b": 2,
    "C3.13a": 0,
    "C3.13b": 0,
    "C4.1": 1,
    "C4.5": 0,
    "C4.6": 1,
}


def first_fail_of(verdicts):
    for v in verdicts:
        if not v.passed:
            return v.n
    return None


@pytest.mark.parametrize("ident", PASSING_AS_PRINTED)
def test_printed_form_holds(ident):
    rec = get_record(f"{ident}:as_printed")
    lo, hi = rec.default_range()
    verdicts = run_record(rec, (lo, min(hi, lo + 12)))
    assert all(v.passed for v in verdicts), first_fail_of(verdicts)


@pytest.mark.parametrize("ident,expected_n", sorted(FIRST_FAIL.items()))
def test_printed_form_first_failure(ident, expected_n):
    rec = get_record(f"{ident}:as_printed")
    lo, hi = rec.default_range()
    verdicts = run_record(rec, (lo, min(hi, expected_n + 6)))
    assert first_fail_of(verdicts) == expected_n


def test_r_records_fail_except_at_matching_index():
    # the printed subscript is the literal 2, so only n = 2 agrees
    for ident in ("R1.1", "R1.2"):
        verdicts = run_record(get_record(f"{ident}:as_printed"), (0, 8))
        assert [v.n for v in verdicts if v.passed] == [2]


def test_every_corrected_record_holds():
    for rec in register_catalog():
        if rec.variant != "corrected":
            continue
        lo, hi = rec.default_range()
        verdicts = run_record(rec, (lo, min(hi, lo + 10)))
        assert all(v.passed for v in verdicts), (rec.key, first_fail_of(verdicts))


def test_every_failing_printed_form_has_a_corrected_sibling():
    corrected = {r.ident for r in register_catalog() if r.variant == "corrected"}
    for ident in list(FIRST_FAIL) + ["R1.1", "R1.2"]:
        assert ident in corrected, ident


def test_failure_verdicts_carry_both_sides():
    verdicts = run_record(get_record("C2.1.2:as_printed"), (0, 0))
    v = verdicts[0]
    assert not v.passed and v.status == "fail"
    assert v.lhs_value is not None and v.rhs_value is not None
    assert v.diff


# ---------------------------------------------------------------------------
# boundary conventions
# ---------------------------------------------------------------------------


def test_l11a_is_stated_for_positive_n_only():
    rec = get_record("L1.1a:as_printed")
    assert rec.default_range() == (1, 40)
    ctx = get_context(rec.ring)
    # at n = 0 the relation itself is false: S_0 - uv S_(-2) = 1 but phi_0 = 2
    assert rec.lhs(ctx, 0) != rec.rhs(ctx, 0)
    assert rec.lhs(ctx, 0) == ctx.one
    assert rec.rhs(ctx, 0) == 2 * ctx.one


def test_printed_ratio_conventions():
    assert printed_ratio(0, 0) == 0
    assert printed_ratio(Rational(3), 6) == Rational(1, 2)
    with pytest.raises(PrintedFormUndefined):
        printed_ratio(1, 0)


def test_undefined_printed_summand_is_reported_not_raised():
    # the printed forms divide a number value by an index that hits zero
    for ident in ("C3.6a", "C3.6b", "C3.13a", "C3.13b"):
        verdicts = run_record(get_record(f"{ident}:as_printed"), (2, 4))
        assert all(not v.passed for v in verdicts)
        assert any(v.diff and v.diff.startswith("undefined") for v in verdicts), ident


# ---------------------------------------------------------------------------
# parity companions
# ---------------------------------------------------------------------------


def test_parity_restriction_equivalence_for_parity_records():
    for ident in ("T3.1", "T3.4a", "T3.4b", "T3.7"):
        rec = get_record(f"{ident}:as_printed")
        assert rec.parity
        verdicts = parity_restriction_equivalence(rec, (0, 12))
        assert all(v.passed for v in verdicts), ident


def test_parity_equivalence_skips_records_without_companion():
    rec = get_record("T4.3:as_printed")
    verdicts = parity_restriction_equivalence(rec, (0, 5))
    assert len(verdicts) == 1
    assert verdicts[0].status == "skipped"
    assert verdicts[0].n == -1


# ---------------------------------------------------------------------------
# EGF cross-verification of the binomial convolutions
# ---------------------------------------------------------------------------


def letter_series(sign, order):
    x1 = MultiPoly.var("x1")
    x2 = MultiPoly.var("x2")
    if sign == "+":
        return EgfSeries([x1 ** n + x2 ** n for n in range(order + 1)])
    return EgfSeries([x1 ** n - x2 ** n for n in range(order + 1)])


def test_egf_product_oracle_t21a():
    ctx = get_context("indeterminate")
    rec = get_record("T2.1a:as_printed")
    diff_sq = egf_mul(letter_series("-", 20), letter_series("-", 20))
    for n in range(21):
        assert diff_sq[n] == rec.lhs(ctx, n)
        assert diff_sq[n] == rec.rhs(ctx, n)


def test_egf_product_oracle_t21b():
    ctx = get_context("indeterminate")
    rec = get_record("T2.1b:as_printed")
    sum_sq = egf_mul(letter_series("+", 20), letter_series("+", 20))
    for n in range(21):
        assert sum_sq[n] == rec.lhs(ctx, n)
        assert sum_sq[n] == rec.rhs(ctx, n)


def test_egf_product_oracle_t21c():
    ctx = get_context("indeterminate")
    rec = get_record("T2.1c:as_printed")
    mixed = egf_mul(letter_series("+", 20), letter_series("-", 20))
    for n in range(21):
        assert mixed[n] == ctx.D * rec.lhs(ctx, n)
        assert mixed[n] == ctx.D * rec.rhs(ctx, n)


# ---------------------------------------------------------------------------
# substitution checks and hand-computed anchors
# ---------------------------------------------------------------------------


def test_t31_spot_value_at_2_1():
    # n = 2 at (x1, x2) = (2, 1): both sides equal -4
    rec = get_record("T3.1:as_printed")
    ctx = get_context(rec.ring)
    point = {"x1": 2, "x2": 1}
    lhs = substitute_value(rec.lhs(ctx, 2), point)
    rhs = substitute_value(rec.rhs(ctx, 2), point)
    assert lhs == rhs == MultiPoly.constant(-4)
    # the unrestricted companion differs (the parity restriction matters)
    full = substitute_value(rec.unrestricted_rhs(ctx, 2), point)
    assert full == MultiPoly.constant(20)


def test_t37_spot_value_at_2_1():
    rec = get_record("T3.7:as_printed")
    ctx = get_context(rec.ring)
    point = {"x1": 2, "x2": 1}
    assert substitute_value(rec.rhs(ctx, 2), point) == MultiPoly.constant(37)


def test_c211_spot_value_is_six():
    # the binomial Fibonacci self-convolution at n = 3, evaluated at (1, 1):
    # F = 0, 1, 1, 2 gives sum C(3,k) F_k F_(3-k) = 6, and the closed form
    # (2^3 L_3 - 2 y^3)/(y^2 + 4t) gives (8*4 - 2)/5 = 6.  The catalog
    # record stores the form cleared by y^2 + 4t, so both its sides are 30.
    import math
    from convcheck.sequences import bivariate_sequence

    point = {"y": 1, "t": 1}
    fib = [bivariate_sequence("fibonacci", k).substitute(point).constant_value()
           for k in range(4)]
    lhs = sum(math.comb(3, k) * fib[k] * fib[3 - k] for k in range(4))
    lucas3 = bivariate_sequence("lucas", 3).substitute(point).constant_value()
    rhs = (Rational(2) ** 3 * lucas3 - 2) / 5
    assert lhs == rhs == 6

    rec = get_record("C2.1.1:as_printed")
    ctx = get_context(rec.ring)
    cleared_lhs = substitute_value(rec.lhs(ctx, 3), point)
    cleared_rhs = substitute_value(rec.rhs(ctx, 3), point)
    assert str(cleared_lhs) == str(cleared_rhs) == "30"  # 6 * (1 + 4)
    verdicts = run_record_substituted(rec, point, (3, 3))
    assert verdicts[0].passed


def test_run_record_substituted_specializes_both_sides():
    rec = get_record("C2.2.1:as_printed")
    verdicts = run_record_substituted(rec, {"t": 1}, (0, 8))
    assert all(v.passed for v in verdicts)
    verdicts = run_record_substituted(rec, {"y": 1, "t": 1}, (0, 8))
    assert all(v.passed for v in verdicts)


def test_corrected_t33_small_values():
    rec = get_record("T3.3:corrected")
    ctx = get_context(rec.ring)
    assert rec.lhs(ctx, 0) == rec.rhs(ctx, 0) == -2 * ctx.Dpow(2)
    assert rec.lhs(ctx, 1) == rec.rhs(ctx, 1) == -2 * ctx.Dpow(2) * ctx.Sig


# ---------------------------------------------------------------------------
# memoization by value
# ---------------------------------------------------------------------------


_SIDES = ("lhs", "rhs", "unrestricted_lhs", "unrestricted_rhs")


def _counted(record, calls):
    """A copy of record whose side callables count their calls."""

    def counted(name, fn):
        def side(ctx, n):
            calls[record.key, name, n] += 1
            return fn(ctx, n)

        return side

    return dataclasses.replace(record, **{
        name: counted(name, getattr(record, name))
        for name in _SIDES if getattr(record, name) is not None
    })


def _four_checks(record, ctx_for):
    """run_record, the record at two points and its parity companion,
    each on the context ctx_for() hands it."""
    return [
        run_record(record, (0, 6), ctx_for()),
        run_record_substituted(record, {"t": 1}, (0, 6), ctx_for()),
        run_record_substituted(record, {"y": 1, "t": 1}, (0, 6), ctx_for()),
        parity_restriction_equivalence(record, (0, 6), ctx_for()),
    ]


def test_record_sides_are_built_once_per_n_on_one_context():
    # in the Fibonacci root ring: the corrected C3.1 carries a parity
    # companion, and the as-printed one fails from n = 3
    records = [get_record("C3.1:corrected"), get_record("C3.1:as_printed")]
    ctx = Context("fibonacci-roots")
    calls = Counter()
    verdicts = [_four_checks(_counted(rec, calls), lambda: ctx) for rec in records]
    assert sorted(calls) == sorted(
        (rec.key, name, n)
        for rec in records
        for name in _SIDES if getattr(rec, name) is not None
        for n in range(7)
    )
    assert set(calls.values()) == {1}
    # the memo changes no verdict: each check on a fresh context agrees,
    # failures included, down to the rendered strings
    fresh = [_four_checks(rec, lambda: Context(rec.ring)) for rec in records]
    assert verdicts == fresh
    assert any(not v.passed for v in fresh[1][0])
    for got, want in zip(sum(verdicts, []), sum(fresh, [])):
        assert [(v.diff, v.lhs_value, v.rhs_value) for v in got] == [
            (v.diff, v.lhs_value, v.rhs_value) for v in want
        ]


def test_failing_verdict_renders_its_sides_on_read():
    ctx = Context("indeterminate")
    rec = get_record("C2.1.2:as_printed")
    v = run_record(rec, (0, 0))[0]
    lhs_v, rhs_v = v.sides
    assert v.lhs_value == str(lhs_v) and v.rhs_value == str(rhs_v)
    assert v.diff == str(lhs_v - rhs_v) != "0"
    passed = run_record(get_record("T2.1b:as_printed"), (0, 0), ctx)[0]
    assert passed.sides is None
    assert (passed.diff, passed.lhs_value, passed.rhs_value) == (None, None, None)


def test_power_is_cached_by_the_value_of_its_base():
    ctx = Context("indeterminate")
    first = ctx.power(ctx.u + 3 * ctx.v, 5)
    # an equal base built separately gets the very same cached power
    assert ctx.power(3 * ctx.v + ctx.u, 5) is first
    assert first == (ctx.u + 3 * ctx.v) ** 5
    other = ctx.power(3 * ctx.u + ctx.v, 5)
    assert other != first and other == (3 * ctx.u + ctx.v) ** 5
    assert ctx.power(ctx.u + 3 * ctx.v, 0) == ctx.one
    with pytest.raises(ValueError):
        ctx.power(ctx.u, -1)
    roots = Context("balancing-roots")
    assert roots.power(2 * roots.delta, 3) is roots.power(roots.delta * 2, 3)
    assert roots.power(2 * roots.delta, 3) == 8 * roots.deltapow(3)
    assert roots.power(roots.delta + 1, 3) != roots.power(roots.delta - 1, 3)
