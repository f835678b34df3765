"""Trace records, CSV writers, and the metrics reduction.

The trace is the single source of truth for a run: metrics are a fold over
its rows, and positions.csv is a projection of its POSITION rows. Writers and
folds take the rows a batch at a time, so a run can stream its trace through
them and keep none of it; the one-call forms (write_trace_csv,
metrics_from_trace, ...) are the one-batch case. Files are UTF-8 with LF line
endings and stable column order, so equal runs produce byte-identical output.

A row is any 5-tuple in TRACE_COLUMNS order, and writers and folds read rows by
position only: a World with a sink hands them plain tuples, and TraceRecord
names the fields of the rows a World without a sink keeps.

trace.csv and positions.csv hold one row per record, so their writer skips
csv.writer's per-row cost: it formats each row as one f-string line and
writes them a chunk at a time, and hands a chunk to csv.writer only when
some field in it could need quoting. The bytes are csv.writer's either way.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, NamedTuple, TextIO

# wire-level events
INTEREST_TX = "INTEREST_TX"
INTEREST_RX = "INTEREST_RX"
DATA_TX = "DATA_TX"
DATA_RX = "DATA_RX"
DECISION = "DECISION"
DROP = "DROP"
SATISFY = "SATISFY"

# application-level events
BEACON_TX = "BEACON_TX"
BITMAP_TX = "BITMAP_TX"
PIECE_REQ = "PIECE_REQ"
PIECE_RX = "PIECE_RX"
COMPLETED = "COMPLETED"

# world bookkeeping
POSITION = "POSITION"
WALK_EPOCH = "WALK_EPOCH"
END = "END"

APP_EVENTS = frozenset({BEACON_TX, BITMAP_TX, PIECE_REQ, PIECE_RX, COMPLETED})
# every event code a trace row can hold
EVENTS = frozenset({INTEREST_TX, INTEREST_RX, DATA_TX, DATA_RX, DECISION, DROP, SATISFY,
                    *APP_EVENTS, POSITION, WALK_EPOCH, END})

# strategy reason codes
REASON_PROB_FWD = "PROB_FWD"
REASON_PROB_DROP = "PROB_DROP"
REASON_FOREIGN_LEARN = "FOREIGN_LEARN"
REASON_FOREIGN_FWD = "FOREIGN_FWD"
REASON_OWN_APP = "OWN_APP"
REASON_UNKNOWN_DROP = "UNKNOWN_DROP"

# forwarding drop reasons
REASON_PIT_DUP = "PIT_DUP"
REASON_UNSOLICITED = "UNSOLICITED_DATA"
REASON_HOP_CAP = "HOP_CAP"
REASON_EMIT_STALE = "EMIT_STALE"
REASON_COLLISION = "COLLISION"

DROP_DECISIONS = frozenset({REASON_PROB_DROP, REASON_FOREIGN_LEARN, REASON_UNKNOWN_DROP})

# the events MetricsFold counts; it passes over every other row
_COUNTED = frozenset({INTEREST_TX, DATA_TX, PIECE_RX, COMPLETED, DROP, DECISION})
# the counted events whose node must be in `nodes`
_NODE_COUNTED = frozenset({INTEREST_TX, DATA_TX, PIECE_RX, DROP, DECISION})

TRACE_COLUMNS = ("time_us", "node", "event", "name", "detail")
POSITION_COLUMNS = ("time_us", "node", "x", "y")


class TraceRecord(NamedTuple):
    time_us: int
    node: str
    event: str
    name: str
    detail: str


# rows formatted, joined and checked together; 1,024 trace rows are about 80 kB
_CHUNK_ROWS = 1024


def _unquoted(text: str, lines: int, commas: int) -> bool:
    """Whether text, `lines` formatted lines of `commas` commas each, is what
    csv.writer writes for their rows: no field holds a comma, a quote, a
    carriage return or a newline. csv.writer quotes a lone carriage return
    only from CPython 3.13 on, so rows holding one are left to it."""
    return (text.count(",") == commas * lines and text.count("\n") == lines
            and '"' not in text and "\r" not in text)


class RowWriter:
    """A CSV file written as csv.writer(fh, lineterminator="\\n") writes header
    and rows, fed a batch of rows at a time.

    `lines` renders a chunk of rows as one line each, fields joined by commas.
    A chunk whose lines need no quoting is written as the joined lines; any
    other chunk goes through csv.writer. Either way the bytes are csv.writer's,
    so where batches and chunks begin and end does not change them.
    """

    header: tuple[str, ...]
    lines: Callable[[list[tuple]], list[str]]

    def __init__(self, path: str) -> None:
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._commas = len(self.header) - 1
        try:
            self._writer.writerow(self.header)
        except BaseException:
            self._fh.close()
            raise

    def add(self, rows: Iterable[tuple]) -> None:
        fh, lines, commas = self._fh, self.lines, self._commas
        rows = iter(rows)
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            text = "".join(lines(chunk))
            if _unquoted(text, len(chunk), commas):
                fh.write(text)
            else:
                self._writer.writerows(chunk)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> RowWriter:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceWriter(RowWriter):
    """trace.csv, one row per trace record."""

    header = TRACE_COLUMNS

    @staticmethod
    def lines(records: list[TraceRecord]) -> list[str]:
        return [f"{t},{n},{e},{k},{d}\n" for t, n, e, k, d in records]


def write_trace_csv(path: str, records: Iterable[TraceRecord]) -> None:
    with TraceWriter(path) as writer:
        writer.add(records)


def read_trace_csv(path: str) -> list[TraceRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header {header!r}")
        return [TraceRecord(int(t), node, event, name, detail)
                for t, node, event, name, detail in reader]


def detail_fields(detail: str) -> dict[str, str]:
    """Parse a 'k=v;k=v' detail string."""
    fields: dict[str, str] = {}
    for part in detail.split(";"):
        if "=" in part:
            key, value = part.split("=", 1)
            fields[key] = value
    return fields


def _position_rows(records: Iterable[TraceRecord]):
    # most rows are not samples: pick the samples out before unpacking any row
    for time_us, node, _, _, detail in [rec for rec in records if rec[2] == POSITION]:
        # the World writes every POSITION detail as x=...;y=...
        x, y = detail[2:].split(";y=")
        yield time_us, node, x, y


class PositionsWriter(RowWriter):
    """positions.csv, one row per POSITION record of the trace rows it is fed."""

    header = POSITION_COLUMNS

    @staticmethod
    def lines(rows: list[tuple[int, str, str, str]]) -> list[str]:
        return [f"{t},{n},{x},{y}\n" for t, n, x, y in rows]

    def add(self, records: Iterable[TraceRecord]) -> None:
        super().add(_position_rows(records))


def write_positions_csv(path: str, records: Iterable[TraceRecord]) -> None:
    with PositionsWriter(path) as writer:
        writer.add(records)


# ---------------------------------------------------------------------------
# metrics

@dataclass
class LeecherMetrics:
    torrent: str
    completed: bool = False
    completion_time_us: int | None = None


@dataclass
class NodeCounters:
    interests_tx: int = 0
    data_tx: int = 0
    drops: dict[str, int] = field(default_factory=dict)


@dataclass
class MetricsSummary:
    per_leecher: dict[str, LeecherMetrics]
    per_node: dict[str, NodeCounters]
    total_tx: int = 0
    pieces_delivered: int = 0
    overhead_ratio: float | None = None


class CompletionsFold:
    """Each leecher's completion, folded over the COMPLETED rows of the rows
    it is fed.

    leechers maps leecher node id to its torrent, so a leecher that never
    completes still gets an entry; a completion row from a node not in
    leechers raises ValueError. A leecher's completion is its last such row.
    """

    def __init__(self, leechers: dict[str, str]) -> None:
        self.per_leecher = {nid: LeecherMetrics(torrent)
                            for nid, torrent in sorted(leechers.items())}

    def add(self, records: Iterable[TraceRecord]) -> None:
        for time_us, node, _, _, _ in [rec for rec in records if rec[2] == COMPLETED]:
            self.complete(time_us, node)

    def complete(self, time_us: int, node: str) -> None:
        metrics = self.per_leecher.get(node)
        if metrics is None:
            raise ValueError(f"trace row {COMPLETED} from non-leecher node {node!r}")
        metrics.completed = True
        metrics.completion_time_us = time_us


class MetricsFold:
    """The run summary, folded over the rows it is fed, a batch at a time.

    leechers and COMPLETED rows go to a CompletionsFold; nodes lists every
    node for zero-filled counters. An interest, data, piece, drop or decision
    row from a node not in nodes raises ValueError, and the fold is then of no
    further use. summary() shares the fold's records, so take it after the
    last batch.
    """

    def __init__(self, leechers: dict[str, str], nodes: Iterable[str]) -> None:
        self.completions = CompletionsFold(leechers)
        self.per_node = {nid: NodeCounters() for nid in sorted(nodes)}
        self.total_tx = self.pieces_delivered = 0

    def add(self, records: Iterable[TraceRecord]) -> None:
        per_node = self.per_node
        complete = self.completions.complete
        total_tx, pieces_delivered = self.total_tx, self.pieces_delivered
        for time_us, node, event, _, detail in records:
            if event not in _COUNTED:
                continue
            counters = per_node.get(node)
            if counters is None and event in _NODE_COUNTED:
                raise ValueError(f"trace row {event} from unknown node {node!r}")
            if event == INTEREST_TX:
                counters.interests_tx += 1
                total_tx += 1
            elif event == DATA_TX:
                counters.data_tx += 1
                total_tx += 1
            elif event == PIECE_RX:
                pieces_delivered += 1
            elif event == COMPLETED:
                complete(time_us, node)
            elif event == DROP or detail in DROP_DECISIONS:  # a DECISION that drops
                counters.drops[detail] = counters.drops.get(detail, 0) + 1
        self.total_tx, self.pieces_delivered = total_tx, pieces_delivered

    def summary(self) -> MetricsSummary:
        total_tx, pieces_delivered = self.total_tx, self.pieces_delivered
        return MetricsSummary(
            per_leecher=self.completions.per_leecher, per_node=self.per_node,
            total_tx=total_tx, pieces_delivered=pieces_delivered,
            overhead_ratio=total_tx / pieces_delivered if pieces_delivered > 0 else None)


def metrics_from_trace(records: Iterable[TraceRecord],
                       leechers: dict[str, str],
                       nodes: Iterable[str]) -> MetricsSummary:
    """Reduce a whole trace to the run summary: MetricsFold fed it as one batch."""
    fold = MetricsFold(leechers, nodes)
    fold.add(records)
    return fold.summary()


def write_metrics_csv(path: str, summary: MetricsSummary) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_metrics(fh, summary)


def write_metrics(fh: TextIO, summary: MetricsSummary) -> None:
    """metrics.csv into the open file fh: a key-value rendering with one row per
    metric entry, sorted for stability."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(("metric", "node", "detail", "value"))
    for node_id, lm in summary.per_leecher.items():
        writer.writerow(("completed", node_id, lm.torrent, int(lm.completed)))
        writer.writerow(("completion_time_us", node_id, lm.torrent,
                         "" if lm.completion_time_us is None else lm.completion_time_us))
    for node_id, counters in summary.per_node.items():
        writer.writerow(("interests_tx", node_id, "", counters.interests_tx))
        writer.writerow(("data_tx", node_id, "", counters.data_tx))
        for reason in sorted(counters.drops):
            writer.writerow(("drops", node_id, reason, counters.drops[reason]))
    writer.writerow(("total_tx", "", "", summary.total_tx))
    writer.writerow(("pieces_delivered", "", "", summary.pieces_delivered))
    writer.writerow(("overhead_ratio", "", "",
                     "" if summary.overhead_ratio is None else repr(summary.overhead_ratio)))
