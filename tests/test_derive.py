"""Mechanical derivations: weight conversion, index shift, family descent."""

import math

import pytest

from convcheck._scalar import Rational
from convcheck.identities import (
    COROLLARY_TO_THEOREM,
    THEOREM_TO_COROLLARY,
    Context,
    convert_genocchi_to_bernoulli,
    core,
    derive_corollary,
    get_context,
    get_record,
    register_catalog,
    reindex_shift_two,
    run_record,
)
from convcheck import report
from convcheck.identities import notation
from convcheck.identities.theorems import theorem_records
from convcheck.report import run_records

ROOT_RINGS = ("fibonacci-roots", "balancing-roots")


def printed_theorems():
    return {r.ident: r for r in theorem_records() if r.variant == "as_printed"}


def leaves(tree):
    """Every string in a statement tree, in order."""
    if isinstance(tree, tuple):
        return [leaf for part in tree for leaf in leaves(part)]
    return [tree] if isinstance(tree, str) else []


# ---------------------------------------------------------------------------
# the binomial re-indexing identity behind the n = m+2 shift
# ---------------------------------------------------------------------------


def test_shift_binomial_identity():
    # C(m+2, k) (m+1-k) = C(m, k) (m+1)(m+2) / (m-k+2)
    for m in range(0, 15):
        for k in range(0, m + 1):
            lhs = math.comb(m + 2, k) * (m + 1 - k)
            rhs = Rational(math.comb(m, k) * (m + 1) * (m + 2), m - k + 2)
            assert lhs == rhs, (m, k)


def test_reindexed_lhs_recovers_source_sum():
    # (m+1)(m+2) * shifted-lhs(m) + boundary = source-lhs(m+2), by construction
    # of the transform; checking it against the records certifies that the
    # shifted form was produced mechanically and not hand-tuned.
    src = printed_theorems()["T3.2"]
    shifted = reindex_shift_two(src, "X", anchor=get_record("T3.3:corrected").anchor)
    ctx = get_context(src.ring)
    for m in range(0, 8):
        lhs_shift = shifted.lhs(ctx, m)
        rhs_shift = shifted.rhs(ctx, m)
        assert (lhs_shift - rhs_shift).is_zero(), m
        # un-shift: multiply back and compare with the source at n = m+2
        recovered = (m + 1) * (m + 2) * lhs_shift
        source_total = src.lhs(ctx, m + 2)
        # the difference is exactly the two boundary summands k=m+1, m+2
        delta = source_total - recovered
        assert delta == src.rhs(ctx, m + 2) - (m + 1) * (m + 2) * rhs_shift


def test_a_rewritten_record_reads_its_quoted_anchor():
    # the quoted form is read when the sides are first compiled, so a
    # quotation that does not read is refused
    shifted = reindex_shift_two(printed_theorems()["T3.2"], "X", anchor="scratch")
    with pytest.raises(ValueError) as info:
        shifted.lhs
    message = str(info.value)
    assert "\n" not in message and "'scratch'" in message


def test_reindex_requires_shape():
    bare = printed_theorems()["T2.1a"]
    with pytest.raises(ValueError):
        reindex_shift_two(bare, "X", anchor="scratch")


def test_reindex_refuses_a_parity_restricted_sum():
    with pytest.raises(ValueError, match="not a sum over every k"):
        reindex_shift_two(printed_theorems()["T3.1"], "X", anchor="scratch")


def test_conversion_requires_plain_genocchi_shape():
    with pytest.raises(ValueError):
        convert_genocchi_to_bernoulli(printed_theorems()["T3.5a"], "X", anchor="scratch")


def test_conversion_refuses_a_sum_without_a_genocchi_factor():
    for ident in ("T3.5a", "T2.1b"):
        with pytest.raises(ValueError, match="no factor G_"):
            convert_genocchi_to_bernoulli(printed_theorems()[ident], "X", anchor="scratch")


def test_conversion_halves_right_side():
    src = printed_theorems()["T3.2"]
    conv = convert_genocchi_to_bernoulli(src, "X", anchor=get_record("T3.5b:corrected").anchor)
    ctx = get_context(src.ring)
    for n in range(0, 8):
        assert conv.rhs(ctx, n) == Rational(1, 2) * src.rhs(ctx, n)
        assert (conv.lhs(ctx, n) - conv.rhs(ctx, n)).is_zero()
    # the rewritten statement: the G_ weight is gone, one B_ weight is in
    assert "G_" in leaves(src.statement)
    assert "G_" not in leaves(conv.statement)
    assert leaves(conv.statement).count("B_") == 1


def test_corrected_records_carry_their_sources():
    for ident, expected_src in (
        ("T3.5b", "T3.2"), ("T3.3", "T3.2"),
        ("T3.6a", "T3.5a"), ("T3.6b", "T3.5b"),
    ):
        rec = get_record(f"{ident}:corrected")
        assert rec.source == expected_src, ident


# ---------------------------------------------------------------------------
# the theorem -> corollary naming map
# ---------------------------------------------------------------------------


def test_mapping_is_a_bijection_onto_the_printed_corollaries():
    assert len(THEOREM_TO_COROLLARY) == 38
    assert len(set(THEOREM_TO_COROLLARY.values())) == 38
    assert COROLLARY_TO_THEOREM == {
        cid: pair for pair, cid in THEOREM_TO_COROLLARY.items()
    }
    printed_cids = {
        r.ident for r in register_catalog()
        if r.variant == "as_printed" and r.ident.startswith("C")
    }
    assert printed_cids == set(THEOREM_TO_COROLLARY.values())


def test_every_theorem_appears_for_both_families():
    tids = {tid for tid, _ in THEOREM_TO_COROLLARY}
    for tid in tids:
        assert (tid, "fibonacci") in THEOREM_TO_COROLLARY, tid
        assert (tid, "balancing") in THEOREM_TO_COROLLARY, tid


def test_derive_corollary_record_shape():
    rec = derive_corollary("T2.1a", "fibonacci")
    assert rec.ident == "C2.1.1"
    assert rec.variant == "corrected"
    assert rec.ring == "fibonacci-roots"
    assert rec.default_range() == (0, 20)
    assert rec.source == "T2.1a"
    assert rec.statement == printed_theorems()["T2.1a"].statement
    with pytest.raises(ValueError):
        derive_corollary("T2.1a", "pell")
    with pytest.raises(ValueError):
        derive_corollary("T9.9", "fibonacci")


def test_derived_records_prefer_corrected_theorem_sources():
    # theorems whose printed statements are false must descend from the
    # corrected variants, otherwise the corollaries would inherit the errors
    for tid in ("T3.3", "T3.5b", "T3.6a", "T3.6b"):
        for family in ("fibonacci", "balancing"):
            rec = derive_corollary(tid, family)
            verdicts = run_record(rec, (0, 8))
            assert all(v.passed for v in verdicts), (tid, family)


def test_derived_corollaries_match_catalog_entries():
    catalog = {r.key: r for r in register_catalog()}
    for (tid, family), cid in THEOREM_TO_COROLLARY.items():
        rec = catalog[f"{cid}:corrected"]
        assert rec.source == tid
        assert rec.ring == f"{family}-roots"


def test_parity_marker_survives_descent():
    rec = derive_corollary("T3.1", "balancing")
    assert rec.parity
    assert rec.unrestricted_rhs is not None


def test_corollaries_share_the_sides_of_the_catalog_records_they_descend_from():
    # the catalog builds each record list once, so a corollary of a
    # corrected theorem descends from the catalog's own corrected record
    assert get_record("C3.5b:corrected").lhs is get_record("T3.5b:corrected").lhs
    catalog = {r.key: r for r in register_catalog()}
    for (tid, family), cid in THEOREM_TO_COROLLARY.items():
        src = catalog.get(f"{tid}:corrected") or catalog[f"{tid}:as_printed"]
        rec = catalog[f"{cid}:corrected"]
        for name in ("lhs", "rhs", "unrestricted_lhs", "unrestricted_rhs"):
            assert getattr(rec, name) is getattr(src, name), (cid, name)


def test_derive_corollary_shares_the_catalog_records_sides_and_memo(monkeypatch):
    # derive_corollary descends from the catalog's own records, so each
    # call gives the catalog corollary's sides and no new memo entry; a
    # shared root context keeps only its sides, whose values the shared
    # generic context evaluates
    monkeypatch.setattr(core, "_CONTEXTS", {})
    rec = get_record("C3.5b:corrected")

    def memo_sizes():
        ctx = get_context(rec.ring)
        sizes = []
        for got in (rec, derive_corollary("T3.5b", "fibonacci"), derive_corollary("T3.5b", "fibonacci")):
            assert got == rec
            assert got.lhs is rec.lhs and got.rhs is rec.rhs
            run_record(got, (0, 8), ctx)
            sizes.append((len(ctx._memo), len(get_context("indeterminate")._memo)))
        return sizes

    # n = 0..8: the two sides at each n (18), in both rings; in the
    # generic one also the left sum's weight (n-k-1)(1-2^(n-k)) B_(n-k)
    # at each j = n-k = 0..8 (9); its operand of n-k, D^j, at the j where
    # the weight is not 0, j = 2, 4, 6, 8 (4); its operand of k at
    # k = n-j, so k = 0..6 (7); and phi_k, which the context keeps per
    # k, at those k (7)
    assert memo_sizes() == [(18, 45)] * 3
    # once the theorem ran in the shared generic context, a fresh shared
    # root context takes its images, and the generic memo gains nothing
    monkeypatch.setattr(core, "_CONTEXTS", {})
    run_record(get_record("T3.5b:corrected"), (0, 8))
    assert memo_sizes() == [(18, 45)] * 3
    # a context a caller made itself evaluates its sides directly
    ctx = Context(rec.ring)
    run_record(rec, (0, 8), ctx)
    assert len(ctx._memo) == 45


# ---------------------------------------------------------------------------
# a derived corollary's sides are the images of its theorem's
# ---------------------------------------------------------------------------


def derived_records():
    """The 38 derived corollaries, as the catalog states them."""
    return [r for r in register_catalog()
            if r.variant == "corrected" and r.ident in COROLLARY_TO_THEOREM]


def test_the_map_from_the_generic_ring_is_direct_root_ring_evaluation():
    # phi(generic side) against the side evaluated in the root ring, for
    # both sides of the 38 derived corollaries over their full ranges;
    # every context is fresh, so the two routes share no memo entry
    generic = Context("indeterminate")
    roots = {ring: (Context(ring), Context(ring)) for ring in ROOT_RINGS}
    checked, wrong = 0, set()
    for rec in derived_records():
        image_ctx, direct_ctx = roots[rec.ring]
        for tree in rec.statement:
            ev = notation._compile(tree)
            for n in range(rec.lo, rec.hi + 1):
                image = image_ctx.from_generic(ev(generic, n))
                if image != ev(direct_ctx, n):
                    wrong.add(rec.key)
                checked += 1
    assert checked == 1596
    assert not wrong, sorted(wrong)


def test_the_map_refuses_a_value_that_reads_y_or_t():
    generic, fib = Context("indeterminate"), Context("fibonacci-roots")
    for value in (generic.y, generic.Sig * generic.t):
        with pytest.raises(ValueError, match="reads y or t"):
            fib.from_generic(value)
    assert fib.from_generic(Rational(2, 3)) == Rational(2, 3)
    assert fib.from_generic(generic.u * generic.v) == fib.Prod


@pytest.mark.parametrize("ring", ROOT_RINGS)
def test_the_map_shares_the_generic_polynomial(ring):
    # every chart holds its elements in Sig, D and x, so the image is
    # the generic polynomial itself, in the root ring's chart
    generic, roots = Context("indeterminate"), Context(ring)
    for g in (generic.u, generic.v, generic.Sig * generic.D ** 3 + generic.x, generic.S(7),
              generic.zero):
        image = roots.from_generic(g)
        assert type(image) is core.LetterElem and image.chart is roots.chart
        assert image.poly is g.poly
    assert roots.from_generic(generic.u) == roots.u and roots.from_generic(generic.D) == roots.D


def test_a_catalog_run_takes_every_derived_side_from_its_theorem(monkeypatch):
    # verify --all runs each theorem before its corollaries; all 1,596
    # derived side values are images of generic memo entries, and so are
    # the 125 values of the BINET records' letter-power sides (31 for each
    # of the four that pass, and n = 0 of BINET.C as printed, which fails
    # there), the only other root-ring trees that read no root-only symbol
    monkeypatch.setattr(core, "_CONTEXTS", {})
    images, rings, current = {}, set(), [None]
    from_generic = Context.from_generic
    run_one = report.run_record

    def counted(ctx, value):
        images[current[0]] = images.get(current[0], 0) + 1
        rings.add(ctx.ring)
        return from_generic(ctx, value)

    def tagged(rec, *args):
        current[0] = rec.key
        return run_one(rec, *args)

    monkeypatch.setattr(Context, "from_generic", counted)
    monkeypatch.setattr(report, "run_record", tagged)
    rows = run_records(register_catalog())
    derived = {rec.key for rec in derived_records()}
    assert sum(images.get(key, 0) for key in derived) == 1596
    others = {key: count for key, count in images.items() if key not in derived}
    assert others == {"BINET.F:as_printed": 31, "BINET.L:as_printed": 31, "BINET.Bst:as_printed": 31,
                      "BINET.C:as_printed": 1, "BINET.C:corrected": 31}
    assert sorted(rings) == sorted(ROOT_RINGS)
    assert all(row.status == "pass" for row in rows if row.record.key in derived)


def test_a_fresh_shared_root_context_evaluates_no_transported_tree_itself(monkeypatch):
    # the derived corollaries of both families in fresh shared contexts:
    # each root memo holds the records' sides and nothing else (no sum
    # operand, weight, S_j or phi_j), and each side value shares its
    # polynomial with the generic memo's, evaluated once per n for both
    # families
    monkeypatch.setattr(core, "_CONTEXTS", {})
    records = derived_records()
    for rec in records:
        run_record(rec)
    sides = {side for rec in records for side in (rec.lhs, rec.rhs)}
    generic = get_context("indeterminate")._memo
    for ring in ROOT_RINGS:
        ctx = get_context(ring)
        assert ctx._memo and not ctx._powers
        for (fn, n), value in ctx._memo.items():
            assert fn in sides and value.poly is generic[(fn, n)].poly
    fib, bal = (get_context(ring)._memo for ring in ROOT_RINGS)
    shared = fib.keys() & bal.keys()
    assert len(shared) > 500
    assert all(fib[key].poly is bal[key].poly for key in shared)
