"""Catalog-level behavior: which records hold, which fail, and where.

The expected first-failure table below is the adjudicated behavior of
the as-printed forms; it is asserted exactly so that any change in the
checker's verdict on any printed equation is caught.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from convcheck import report
from convcheck._scalar import Rational
from convcheck.arith import MultiPoly
from convcheck.egf import EgfSeries, egf_mul
from convcheck.identities import (
    RINGS,
    Context,
    PrintedFormUndefined,
    core,
    get_context,
    get_record,
    parity_restriction_equivalence,
    printed_ratio,
    register_catalog,
    run_record,
    run_record_substituted,
    substitute_value,
)
from convcheck.identities.notation import read_anchor
from convcheck.sequences import bivariate_sequence, number_polynomial

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
        get_record("NOPE")
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


PARITY_RECORDS = [r for r in register_catalog() if r.companion is not None]


def test_the_catalog_has_twelve_parity_records():
    assert len(PARITY_RECORDS) == 12 and all(rec.parity for rec in PARITY_RECORDS)


@pytest.mark.parametrize("rec", PARITY_RECORDS, ids=lambda rec: rec.key)
def test_a_wrong_companion_fails_the_parity_check(rec):
    # the companion's first term with its sign flipped is not the closed
    # form of the full sum, so the check must fail at some n
    wrong = rec.replace(companion="-" + rec.companion)
    verdicts = parity_restriction_equivalence(wrong, (0, 8))
    assert not all(v.passed for v in verdicts), rec.key


@pytest.mark.parametrize("rec", PARITY_RECORDS, ids=lambda rec: rec.key)
def test_the_unrestricted_left_side_is_the_full_sum(rec):
    # the record's own sum over every k, read from its anchor, not the
    # companion's closed form; equal trees share one callable
    full = read_anchor(rec.anchor.replace("sum[n=k(2)]", "sum", 1), rec.ring, rec.lo)
    assert not full.parity
    assert rec.unrestricted_lhs is full.lhs is not rec.unrestricted_rhs


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


def _counting_substitutions(monkeypatch):
    """Route core.substitute_value through a wrapper that counts its calls."""
    calls = []
    real = core.substitute_value

    def counting(value, bindings):
        calls.append(value)
        return real(value, bindings)

    monkeypatch.setattr(core, "substitute_value", counting)
    return calls


def test_equal_sides_form_no_image(monkeypatch):
    # equal elements have equal images at every point, so a passing
    # index substitutes no side
    calls = _counting_substitutions(monkeypatch)
    rec = get_record("C2.1.1:corrected")
    verdicts = run_record_substituted(rec, {"y": Rational(2, 3), "t": Rational(-1, 2)}, (0, 5))
    assert all(v.passed for v in verdicts) and len(verdicts) == 6
    assert calls == []
    # the as-printed C3.1 fails at (1, 1) from n = 3: there the sides
    # differ, and each is substituted itself
    rec, point = get_record("C3.1:as_printed"), {"y": 1, "t": 1}
    per_n, verdicts = [], []
    for n in range(5):
        del calls[:]
        verdicts += run_record_substituted(rec, point, (n, n))
        per_n.append(len(calls))
    assert per_n == [0, 0, 0, 2, 2]
    assert [v.passed for v in verdicts] == [True, True, True, False, False]
    ctx = get_context(rec.ring)
    for v in verdicts[3:]:
        by_hand = substitute_value(rec.lhs(ctx, v.n), point) - substitute_value(rec.rhs(ctx, v.n), point)
        assert v.diff == str(by_hand) != "0"


def test_equal_values_of_two_types_are_each_substituted(monkeypatch):
    # a constant and its scalar compare equal but are of two types: each
    # is substituted (the scalar passes through), as they were before
    calls = _counting_substitutions(monkeypatch)
    rec = get_record("C2.1.1:corrected").replace(lhs=lambda ctx, n: ctx.one, rhs=lambda ctx, n: 1)
    verdicts = run_record_substituted(rec, {"y": 2, "t": 1}, (0, 2), Context(rec.ring))
    assert [v.passed for v in verdicts] == [True] * 3
    assert len(calls) == 6


def _pairs_seen_by_compare_sides(monkeypatch):
    """Route core._compare_sides through a wrapper that keeps every pair
    of sides it is handed, and the pair of their images when it is
    handed bindings."""
    pairs = []
    real = core._compare_sides

    def seeing(record, n, lhs_v, rhs_v, bindings=None):
        pairs.append((lhs_v, rhs_v))
        if bindings is not None:
            pairs.append((substitute_value(lhs_v, bindings), substitute_value(rhs_v, bindings)))
        return real(record, n, lhs_v, rhs_v, bindings)

    monkeypatch.setattr(core, "_compare_sides", seeing)
    return pairs


def _equality_is_the_zero_difference(pairs):
    for a, b in pairs:
        assert (a == b) is not bool(a - b), (a, b)


_GOLDEN_ROOTS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json")
                           .read_text())["roots_subst"]


def test_equality_decides_as_the_difference_does(monkeypatch):
    # every element is canonical, so two sides are equal exactly when
    # their difference is zero: over verify --all, passing and failing
    pairs = _pairs_seen_by_compare_sides(monkeypatch)
    report.run_records(register_catalog())
    assert Counter(a == b for a, b in pairs) == {True: 2139, False: 28}
    _equality_is_the_zero_difference(pairs)
    # over the 12 parity companions
    del pairs[:]
    companions = [rec for rec in register_catalog() if rec.companion is not None]
    assert len(companions) == 12
    for rec in companions:
        assert all(v.passed for v in parity_restriction_equivalence(rec))
    assert len(pairs) > 200
    _equality_is_the_zero_difference(pairs)
    # and over the benchmark's substituted records at a seeded point,
    # the sides and their images
    del pairs[:]
    rng = random.Random(20261020)
    point = {"y": Rational(rng.choice([-5, -3, 2, 7]), rng.randint(2, 9)),
             "t": Rational(rng.choice([-7, -1, 3, 4]), rng.randint(2, 9))}
    assert point["y"] ** 2 + 4 * point["t"] and 9 * point["y"] ** 2 - point["t"]
    for key, lo, hi in _GOLDEN_ROOTS["records"]:
        assert all(v.passed for v in run_record_substituted(get_record(key), point, (lo, hi)))
    assert len(pairs) > 1000
    _equality_is_the_zero_difference(pairs)


def test_sides_of_two_rings_are_still_refused():
    # two root rings' elements compare unequal, and their difference
    # raises: the verdict is never a plain "not equal"
    generic, fib, bal = (Context(ring) for ring in RINGS)
    rec = get_record("C2.1.1:corrected")
    for bindings in (None, {"y": 2, "t": 1}):
        with pytest.raises(ValueError, match="mixed discriminants"):
            core._compare_sides(rec, 0, fib.Sig, bal.Sig, bindings)
        with pytest.raises(ValueError, match="mixed discriminants"):
            core._compare_sides(rec, 0, bal.one, fib.one, bindings)
    with pytest.raises(TypeError):
        core._compare_sides(rec, 0, generic.Sig, fib.Sig)


@pytest.mark.parametrize("key, point, message", [
    ("C2.1.1:corrected", {"y": 2, "t": -1}, "discriminant must be non-zero"),
    ("C3.8:corrected", {"y": 1, "t": 9}, "discriminant must be non-zero"),
    ("R1.1:corrected", {"z": 1}, "unknown variable 'z' in substitution"),
])
def test_a_refused_point_is_refused_where_the_sides_are_equal(key, point, message):
    # d = y^2 + 4t and d = 9y^2 - t vanish at the first two points, and z
    # is no variable: the sides form no image, and the point is still
    # refused as their images would refuse it
    rec = get_record(key)
    assert all(v.passed for v in run_record(rec, (0, 3)))
    with pytest.raises(ValueError) as exc:
        run_record_substituted(rec, point, (0, 3), Context(rec.ring))
    assert str(exc.value) == message


def test_corrected_t33_small_values():
    rec = get_record("T3.3:corrected")
    ctx = get_context(rec.ring)
    assert rec.lhs(ctx, 0) == rec.rhs(ctx, 0) == -2 * ctx.power(ctx.D, 2)
    assert rec.lhs(ctx, 1) == rec.rhs(ctx, 1) == -2 * ctx.power(ctx.D, 2) * ctx.Sig


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

    return record.replace(**{
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


def test_record_replace_keeps_unchanged_sides_and_overrides_unread_ones():
    from convcheck.identities import notation

    # an anchor no record states, so this record is the first to read it
    rec = notation.printed("X", "as_printed", "indeterminate", 0, 2, "phi_n + 7 = p_n(u, v) + 7")
    reads = notation._read.cache_info().misses
    zero = lambda ctx, n: ctx.zero  # noqa: E731
    bad = rec.replace(variant="corrected", rhs=zero)
    assert bad.rhs is zero and bad.key == "X:corrected" and rec.key == "X:as_printed"
    assert notation._read.cache_info().misses == reads
    # the unchanged fields are the source's own, read once for both
    assert bad.lhs is rec.lhs and bad.statement is rec.statement
    assert rec.rhs is not zero
    assert notation._read.cache_info().misses == reads + 1
    assert rec.replace() == rec != bad
    assert [v.passed for v in run_record(rec)] == [True] * 3
    assert [v.passed for v in run_record(bad)] == [False] * 3
    with pytest.raises(TypeError, match="'sides'"):
        rec.replace(sides=None)


def test_record_replace_reads_its_views_from_its_own_fields():
    rec = get_record("T2.1b:as_printed")
    other = get_record("T2.2a:as_printed")
    assert rec.lhs is not other.lhs
    # rec's views are cached now; the copy reads the other anchor's
    moved = rec.replace(anchor=other.anchor)
    assert moved.statement == other.statement != rec.statement
    assert moved.lhs is other.lhs and moved.rhs is other.rhs
    # a side passed to replace still overrides its view
    zero = lambda ctx, n: ctx.zero  # noqa: E731
    assert moved.replace(rhs=zero).rhs is zero
    assert moved.replace(rhs=zero).lhs is other.lhs


def test_a_derived_record_moved_to_another_ring_refuses_its_letters():
    rec = get_record("C3.1:corrected")
    assert rec.lhs is not None
    moved = rec.replace(ring="balancing-roots")
    with pytest.raises(ValueError) as info:
        moved.lhs
    message = str(info.value)
    assert "\n" not in message and "fibonacci roots" in message


def test_a_rewritten_record_moved_to_another_ring_refuses_its_letters():
    # C3.3 carries the statement rewritten from T3.2; its anchor, a
    # quotation, still states the letters, which hold in one ring only
    rec = get_record("C3.3:corrected")
    assert rec.rewritten is not None and rec.lhs is not None
    moved = rec.replace(ring="balancing-roots")
    assert moved.statement == rec.statement
    with pytest.raises(ValueError) as info:
        moved.lhs
    message = str(info.value)
    assert "\n" not in message and message.startswith(f"anchor {rec.anchor!r}")
    assert "fibonacci roots" in message and "balancing-roots" in message


def test_equal_side_trees_share_one_callable_catalog_wide():
    # the sides are compiled per tree, not per record, so equal sides of
    # different records (a printed and a corrected variant, a theorem and
    # its corollary) share one callable and one memo entry per n
    by_tree = {}
    for rec in register_catalog():
        for tree, side in zip(rec.statement, (rec.lhs, rec.rhs)):
            by_tree.setdefault((rec.ring, tree), []).append(side)
    assert len(by_tree) == 221
    for sides in by_tree.values():
        assert all(side is sides[0] for side in sides)
    assert get_record("L1.1a:as_printed").rhs is get_record("R1.2:as_printed").lhs
    assert get_record("BINET.C:as_printed").lhs is get_record("BINET.C:corrected").lhs


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
    assert roots.power(2 * roots.delta, 3) == 8 * roots.power(roots.delta, 3)
    assert roots.power(roots.delta + 1, 3) != roots.power(roots.delta - 1, 3)


@pytest.mark.parametrize("ring", RINGS)
def test_sequence_values_are_memoized_by_kind_and_index(ring):
    ctx = Context(ring)
    euler = ctx.npoly("euler", 4)
    assert ctx.npoly("euler", 4) is euler
    assert euler == ctx.embed(number_polynomial("euler", 4))
    # the same index under another kind is another entry
    bernoulli = ctx.npoly("bernoulli", 4)
    assert bernoulli == ctx.embed(number_polynomial("bernoulli", 4)) != euler
    if ctx.family is None:
        with pytest.raises(ValueError):
            ctx.seq("lucas", 4)
        return
    lucas = ctx.seq("lucas", 4)
    assert ctx.seq("lucas", 4) is lucas
    assert lucas == ctx.embed(bivariate_sequence("lucas", 4))
    fibonacci = ctx.seq("fibonacci", 4)
    assert fibonacci == ctx.embed(bivariate_sequence("fibonacci", 4)) != lucas
    assert ctx.seq("lucas", -1) is ctx.zero and not ctx.zero

