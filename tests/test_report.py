"""Catalog selection behind the verify and report commands."""

import pytest

from convcheck.identities import register_catalog
from convcheck.identities.catalog import get_record
from convcheck.report import (
    build_payload,
    exit_code_for,
    render_markdown,
    render_text,
    run_records,
    select_records,
)


def keys(records):
    return [r.key for r in records]


def test_select_records_returns_each_record_once_in_catalog_order():
    got = keys(select_records(["T2.1a", "L1.2S", "L1.2S:corrected", "L1.2S"]))
    assert got == ["L1.2S:as_printed", "L1.2S:corrected", "T2.1a:as_printed"]
    order = keys(register_catalog())
    assert got == sorted(got, key=order.index)


def test_select_records_without_ids_is_the_whole_catalog():
    assert keys(select_records(None)) == keys(register_catalog())


def test_select_records_unknown_id_raises_keyerror():
    for ids, bad in ((["L1.2S", "NOPE"], "NOPE"),
                     (["L1.2S:bogus", "NOPE"], "L1.2S:bogus")):
        with pytest.raises(KeyError) as info:
            select_records(ids)
        assert info.value.args == (f"unknown identity: {bad}",)


def test_select_records_filters_by_variant():
    assert keys(select_records(["T3.3", "L1.2S"], "corrected")) == [
        "L1.2S:corrected", "T3.3:corrected",
    ]
    # an id the filter empties is an error even when other ids remain
    with pytest.raises(KeyError) as info:
        select_records(["L1.2S", "T3.3", "T2.1a"], "corrected")
    assert info.value.args == ("no corrected variant of T2.1a",)
    ids = ["L1.2S", "T3.3", "T2.1a"]
    assert keys(select_records(ids, "as_printed")) == [
        "L1.2S:as_printed", "T2.1a:as_printed", "T3.3:as_printed",
    ]
    corrected = select_records(None, "corrected")
    assert corrected and all(r.variant == "corrected" for r in corrected)


def test_select_records_that_the_variant_filter_empties_raises_keyerror():
    for ids, variant in ((["T2.1b"], "corrected"), (["L1.2S:corrected"], "as_printed")):
        with pytest.raises(KeyError) as info:
            select_records(ids, variant)
        assert info.value.args == (f"no {variant} variant of {ids[0]}",)


def test_a_row_with_no_verdicts_is_skipped():
    # L1.1a starts at n = 1: capped at 0 its range holds no index
    skipped, checked = run_records([get_record("L1.1a"), get_record("T2.1a")], max_n=0)
    assert skipped.verdicts == [] and (skipped.lo, skipped.hi) == (1, 0)
    assert (skipped.status, skipped.failed, skipped.first_fail_n) == ("skipped", False, None)
    assert checked.status == "pass"
    text = render_text([skipped, checked]).splitlines()
    assert text[0] == "SKIP L1.1a:as_printed  n in [1,0]"
    assert text[-1] == "1/1 records pass, 1 skipped"
    assert render_text([skipped]).splitlines()[-1] == "0/0 records pass, 1 skipped"
    assert exit_code_for([skipped]) == 0
    payload = build_payload([skipped, checked], {})
    assert [r["status"] for r in payload["results"]] == ["skipped", "pass"]
    assert "L1.1a" not in {e["id"] for e in payload["errata"]}
    assert "; 1 records checked, 1 skipped." in render_markdown(payload)


def test_a_failing_record_stops_at_its_first_failing_index():
    rec = get_record("C3.1:as_printed")
    (stopped,) = run_records([rec])
    (listed,) = run_records([rec], per_n=True)
    assert [v.n for v in stopped.verdicts] == [0, 1, 2, 3]
    assert [v.n for v in listed.verdicts] == list(range(21))
    assert stopped.first_fail_n == listed.first_fail_n == 3
    assert stopped.status == listed.status == "fail"
    assert [v.passed for v in listed.verdicts[:4]] == [v.passed for v in stopped.verdicts]
