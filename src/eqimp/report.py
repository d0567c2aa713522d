"""Aggregate result records into a per-method summary table and a runtime
histogram.

Both summaries count decided records only (proven or refuted); an unsolved
record, even one a crash attributes to its stage, decides nothing.  Each is
one Counter over any iterable, so a log can be folded in as it is read.
Rendering is a pure function of the input: same records, same bytes.
"""

from __future__ import annotations

import bisect
import csv
import io
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter

from .closure import PROVEN, REFUTED

# powers of ten spanning sub-millisecond attempts to the longest wall budgets
DEFAULT_EDGES = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)

FORMAT_TABLE = "table"
FORMAT_CSV = "csv"


@dataclass(frozen=True)
class SummaryRow:
    method: str
    refuted: int
    proven: int

    @property
    def total(self) -> int:
        return self.refuted + self.proven


@dataclass(frozen=True)
class SummaryTable:
    rows: tuple[SummaryRow, ...]

    @property
    def footer(self) -> SummaryRow:
        return SummaryRow(
            "Total",
            sum(row.refuted for row in self.rows),
            sum(row.proven for row in self.rows),
        )


@dataclass(frozen=True)
class Histogram:
    edges: tuple[float, ...]
    # per (method, status): one count per bucket; bucket 0 is below the first
    # edge, bucket len(edges) is at or above the last, the rest half-open
    # [edges[k-1], edges[k]) in between
    cells: dict[tuple[str, str], tuple[int, ...]]

    @property
    def bucket_count(self) -> int:
        return len(self.edges) + 1

    @property
    def totals(self) -> tuple[int, ...]:
        out = [0] * self.bucket_count
        for counts in self.cells.values():
            for k, value in enumerate(counts):
                out[k] += value
        return tuple(out)


def summarize(records, method_order=None) -> SummaryTable:
    """Per-method refuted/proven counts.  method_order (e.g. a schedule's
    stage names) fixes the leading rows, zero-count rows included; methods not
    listed, such as closure derivations, follow in the order of their first
    decided record."""
    counts = Counter(map(attrgetter("method", "status"), records))
    decided = (method for method, status in counts if status in (PROVEN, REFUTED))
    return SummaryTable(tuple(
        SummaryRow(name, counts[name, REFUTED], counts[name, PROVEN])
        for name in dict.fromkeys([*(method_order or ()), *decided])
    ))


def histogram(records) -> Histogram:
    """Bucket decided records by solve time over DEFAULT_EDGES, grouped by
    (method, status).  Records outside [first edge, last edge) land in the
    open end buckets."""
    counts = Counter(
        (record.method, record.status, bisect.bisect_right(DEFAULT_EDGES, record.seconds))
        for record in records
    )
    buckets = range(len(DEFAULT_EDGES) + 1)
    return Histogram(DEFAULT_EDGES, {
        (method, status): tuple(counts[method, status, bucket] for bucket in buckets)
        for method, status, _ in counts if status in (PROVEN, REFUTED)
    })


def _bucket_labels(edges) -> list[str]:
    labels = [f"<{edges[0]:g}"]
    labels += [f"{a:g}-{b:g}" for a, b in zip(edges, edges[1:])]
    labels.append(f">={edges[-1]:g}")
    return labels


def _summary_cells(summary: SummaryTable) -> list[list[str]]:
    rows = [["Method", "Refuted", "Proven", "Total"]]
    for row in list(summary.rows) + [summary.footer]:
        rows.append([row.method, str(row.refuted), str(row.proven), str(row.total)])
    return rows


def _histogram_cells(hist: Histogram) -> list[list[str]]:
    rows = [["Method", "Status"] + _bucket_labels(hist.edges)]
    for key in sorted(hist.cells):
        method, status = key
        rows.append([method, status] + [str(v) for v in hist.cells[key]])
    rows.append(["Total", ""] + [str(v) for v in hist.totals])
    return rows


def _render_plain(cells: list[list[str]]) -> str:
    widths = [max(len(row[col]) for row in cells) for col in range(len(cells[0]))]
    lines = []
    for row in cells:
        padded = [value.ljust(widths[col]) for col, value in enumerate(row)]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(cells: list[list[str]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows(cells)
    return out.getvalue()


def render(table, fmt: str = FORMAT_TABLE) -> str:
    """Deterministic text for a SummaryTable or Histogram, as an aligned plain
    table or comma-separated rows."""
    if isinstance(table, SummaryTable):
        cells = _summary_cells(table)
    elif isinstance(table, Histogram):
        cells = _histogram_cells(table)
    else:
        raise TypeError(f"cannot render {type(table).__name__}")
    if fmt == FORMAT_TABLE:
        return _render_plain(cells)
    if fmt == FORMAT_CSV:
        return _render_csv(cells)
    raise ValueError(f"unknown format {fmt!r}")
