"""Catalog selection behind the verify and report commands."""

import pytest

from convcheck.identities import register_catalog
from convcheck.report import select_records


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
    ids = ["L1.2S", "T3.3", "T2.1a"]
    assert keys(select_records(ids, "corrected")) == ["L1.2S:corrected", "T3.3:corrected"]
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
