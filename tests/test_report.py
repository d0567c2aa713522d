"""Summary tables and runtime histograms over result records.

Oracles: counts are re-derived by direct loops over the records, and bucket
membership is re-checked per record against the interval definitions.
"""

import csv
import io
import random

import pytest

from eqimp.report import (
    DEFAULT_EDGES,
    FORMAT_CSV,
    FORMAT_TABLE,
    Histogram,
    SummaryRow,
    SummaryTable,
    histogram,
    render,
    summarize,
)
from eqimp.runner import UNSOLVED, ResultRecord

PROVEN = "proven"
REFUTED = "refuted"


def _rec(lhs, rhs, status, method, seconds):
    stage = None if status == UNSOLVED else 1
    method = None if status == UNSOLVED else method
    witness = None if status == UNSOLVED else "w"
    return ResultRecord(lhs, rhs, status, method, stage, seconds, witness)


def _random_records(rng, count):
    records = []
    methods = ["fmb-500i", "satur-500i", "closure:R1"]
    pairs = iter((i, j) for i in range(1, 100) for j in range(1, 100) if i != j)
    for _ in range(count):
        lhs, rhs = next(pairs)
        status = rng.choice([PROVEN, REFUTED, UNSOLVED])
        records.append(_rec(lhs, rhs, status, rng.choice(methods), rng.random() * 200))
    return records


# --- summary table -----------------------------------------------------------


def test_summarize_counts_match_direct_recount():
    rng = random.Random(7)
    records = _random_records(rng, 200)
    table = summarize(records)
    for row in table.rows:
        refuted = sum(1 for r in records if r.method == row.method and r.status == REFUTED)
        proven = sum(1 for r in records if r.method == row.method and r.status == PROVEN)
        assert (row.refuted, row.proven, row.total) == (refuted, proven, refuted + proven)
    decided = sum(1 for r in records if r.status != UNSOLVED)
    assert table.footer.total == decided
    assert table.footer.refuted == sum(row.refuted for row in table.rows)
    assert table.footer.proven == sum(row.proven for row in table.rows)


def test_summarize_empty_is_all_zero():
    table = summarize([])
    assert table.rows == ()
    assert (table.footer.refuted, table.footer.proven, table.footer.total) == (0, 0, 0)
    ordered = summarize([], method_order=["fmb-500i", "satur-500i"])
    assert [row.method for row in ordered.rows] == ["fmb-500i", "satur-500i"]
    assert all(row.total == 0 for row in ordered.rows)


def test_summarize_respects_method_order_and_appends_closure_rows():
    records = [
        _rec(1, 2, PROVEN, "satur-500i", 0.1),
        _rec(1, 3, REFUTED, "closure:R2", 0.0),
        _rec(2, 3, REFUTED, "fmb-500i", 0.1),
    ]
    table = summarize(records, method_order=["fmb-500i", "satur-500i", "fmb-60s"])
    assert [row.method for row in table.rows] == [
        "fmb-500i", "satur-500i", "fmb-60s", "closure:R2",
    ]
    assert table.rows[2] == SummaryRow("fmb-60s", 0, 0)
    assert table.rows[3] == SummaryRow("closure:R2", 1, 0)


def test_unsolved_records_neither_order_nor_count_methods():
    # an engine crash writes an unsolved record carrying its stage's name,
    # here ahead of that method's first decided record; "fmb-60s" has
    # unsolved records only
    records = [
        ResultRecord(1, 2, UNSOLVED, "satur-500i", 2, 0.3, "error:boom"),
        _rec(1, 3, REFUTED, "fmb-500i", 0.05),
        ResultRecord(1, 4, UNSOLVED, "fmb-60s", 3, 60.0, "error:boom"),
        _rec(1, 5, PROVEN, "satur-500i", 0.2),
        ResultRecord(1, 6, UNSOLVED, "fmb-60s", 3, 60.0, "error:boom"),
    ]
    assert summarize(records).rows == (
        SummaryRow("fmb-500i", 1, 0), SummaryRow("satur-500i", 0, 1),
    )
    assert summarize(records, method_order=["satur-500i", "fmb-60s"]).rows == (
        SummaryRow("satur-500i", 0, 1), SummaryRow("fmb-60s", 0, 0), SummaryRow("fmb-500i", 1, 0),
    )
    hist = histogram(records)
    assert hist.cells == {
        ("fmb-500i", REFUTED): (0, 0, 0, 1, 0, 0, 0, 0, 0),
        ("satur-500i", PROVEN): (0, 0, 0, 0, 1, 0, 0, 0, 0),
    }


def test_summary_row_shape_matches_published_scale():
    # the famous first row: row total is the sum of its refuted/proven counts
    row = SummaryRow("fmb-500i", 13_837_151, 275_209)
    assert row.total == 14_112_360
    table = SummaryTable(
        (
            row,
            SummaryRow("satur-500i", 778, 7_895_986),
            SummaryRow("fmb-60s", 16_302, 0),
            SummaryRow("satur-600s", 36, 2_390),
            SummaryRow("fmb-600s", 28, 0),
        )
    )
    assert table.footer == SummaryRow("Total", 13_854_295, 8_173_585)
    assert table.footer.total == 22_027_880


# --- histogram ---------------------------------------------------------------


def test_histogram_example_buckets():
    # DEFAULT_EDGES run 1e-4, 1e-3, ..., 1000: nine buckets
    records = [
        _rec(1, 2, PROVEN, "m", 0.00001),
        _rec(1, 3, PROVEN, "m", 0.5),
        _rec(1, 4, PROVEN, "m", 1200.0),
    ]
    hist = histogram(records)
    assert hist.cells[("m", PROVEN)] == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert hist.totals == (1, 0, 0, 0, 1, 0, 0, 0, 1)


def test_histogram_empty_is_all_zero():
    hist = histogram([])
    assert hist.cells == {}
    assert hist.totals == (0,) * (len(DEFAULT_EDGES) + 1)


def test_histogram_partitions_decided_records():
    rng = random.Random(11)
    records = _random_records(rng, 300)
    hist = histogram(records)
    decided = [r for r in records if r.status != UNSOLVED]
    assert sum(hist.totals) == len(decided)
    edges = hist.edges
    for record in decided:
        # exactly one bucket admits this record
        member = [record.seconds < edges[0]]
        member += [a <= record.seconds < b for a, b in zip(edges, edges[1:])]
        member.append(record.seconds >= edges[-1])
        assert member.count(True) == 1
    # per-cell recount
    for (method, status), counts in hist.cells.items():
        expected = sum(1 for r in decided if r.method == method and r.status == status)
        assert sum(counts) == expected


def test_histogram_boundary_lands_in_upper_bucket():
    hist = histogram([_rec(1, 2, PROVEN, "m", 1.0)])
    assert DEFAULT_EDGES[4] == 1.0
    assert hist.cells[("m", PROVEN)] == (0, 0, 0, 0, 0, 1, 0, 0, 0)


# --- rendering ---------------------------------------------------------------


def test_render_zero_summary_has_header_and_footer():
    text = render(summarize([]), FORMAT_TABLE)
    lines = text.splitlines()
    assert lines[0].split() == ["Method", "Refuted", "Proven", "Total"]
    assert lines[-1].split() == ["Total", "0", "0", "0"]


def test_render_is_deterministic():
    rng = random.Random(3)
    records = _random_records(rng, 50)
    table = summarize(records)
    hist = histogram(records)
    for obj in (table, hist):
        for fmt in (FORMAT_TABLE, FORMAT_CSV):
            assert render(obj, fmt) == render(obj, fmt)


def test_render_csv_round_trips():
    records = [
        _rec(1, 2, PROVEN, "satur-500i", 0.25),
        _rec(2, 1, REFUTED, "fmb-500i", 0.003),
        _rec(1, 3, REFUTED, "fmb-500i", 0.004),
    ]
    table = summarize(records, method_order=["fmb-500i", "satur-500i"])
    rows = list(csv.reader(io.StringIO(render(table, FORMAT_CSV))))
    assert rows[0] == ["Method", "Refuted", "Proven", "Total"]
    assert rows[1] == ["fmb-500i", "2", "0", "2"]
    assert rows[2] == ["satur-500i", "0", "1", "1"]
    assert rows[-1] == ["Total", "2", "1", "3"]
    hist_rows = list(csv.reader(io.StringIO(render(histogram(records), FORMAT_CSV))))
    assert hist_rows[0][:2] == ["Method", "Status"]
    assert hist_rows[0][2] == "<0.0001"
    assert hist_rows[0][-1] == ">=1000"
    total = sum(int(v) for v in hist_rows[-1][2:])
    assert total == 3


def test_render_rejects_unknown_shapes_and_formats():
    with pytest.raises(ValueError):
        render(summarize([]), "latex")
    with pytest.raises(TypeError):
        render({"not": "a table"}, FORMAT_TABLE)
