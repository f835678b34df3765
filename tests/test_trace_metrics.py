"""Trace CSV round trips and the metrics reduction over traces."""
import csv
import io
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from ntorrent_sim import trace as tc
from ntorrent_sim.trace import (
    LeecherMetrics,
    MetricsSummary,
    NodeCounters,
    TraceRecord,
    detail_fields,
    metrics_from_trace,
    read_trace_csv,
    write_metrics_csv,
    write_positions_csv,
    write_trace_csv,
)


def sample_trace():
    return [
        TraceRecord(0, "n0", tc.BEACON_TX, "/ntorrent/beacon/n0", ""),
        TraceRecord(0, "n0", tc.INTEREST_TX, "/ntorrent/beacon/n0",
                    "nonce=00000000000000ff;hop=0;origin=n0"),
        TraceRecord(500, "n1", tc.INTEREST_RX, "/ntorrent/beacon/n0",
                    "nonce=00000000000000ff;hop=0;origin=n0"),
        TraceRecord(500, "n1", tc.DECISION, "/ntorrent/movie1/data/0",
                    tc.REASON_FOREIGN_LEARN),
        TraceRecord(700, "n1", tc.DROP, "/ntorrent/movie1/data/0",
                    tc.REASON_PIT_DUP),
        TraceRecord(900, "n2", tc.DATA_TX, "/ntorrent/movie1/data/0",
                    "hop=0;origin=n2;bytes=1024"),
        TraceRecord(1_400, "n1", tc.PIECE_RX, "/ntorrent/movie1/data/0", "piece=0"),
        TraceRecord(1_400, "n1", tc.COMPLETED, "", "torrent=movie1;pieces=1"),
        TraceRecord(2_000, "n1", tc.POSITION, "", "x=12.5;y=40.25"),
        TraceRecord(2_000, "", tc.END, "", ""),
    ]


def test_trace_csv_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    records = sample_trace()
    write_trace_csv(str(path), records)
    assert read_trace_csv(str(path)) == records


def test_trace_csv_is_lf_and_utf8(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), sample_trace())
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").splitlines()[0] == "time_us,node,event,name,detail"


def test_empty_trace_writes_header_only(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), [])
    assert path.read_bytes() == b"time_us,node,event,name,detail\n"
    assert read_trace_csv(str(path)) == []


def test_reader_rejects_foreign_headers(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unexpected trace header"):
        read_trace_csv(str(path))


def test_detail_fields():
    assert detail_fields("nonce=ff;hop=2;origin=n0") == {
        "nonce": "ff", "hop": "2", "origin": "n0"}
    assert detail_fields("") == {}
    assert detail_fields("PIT_DUP") == {}
    assert detail_fields("x=1=2") == {"x": "1=2"}


# ids from a scenario file may hold any character but "/"
@pytest.mark.parametrize("char", [",", '"', "\r", "\n", "\r\n"])
def test_writers_quote_exactly_as_csv_writer_does(char, tmp_path):
    node = f"n{char}1"
    records = [
        TraceRecord(0, node, tc.POSITION, "", "x=1.5;y=2.0"),
        TraceRecord(10, "n0", tc.INTEREST_TX, f"/ntorrent/mo{char}vie/data/0",
                    "nonce=00000000000000ff;hop=0;origin=n0"),
        TraceRecord(20, node, tc.INTEREST_RX, "/ntorrent/beacon/n0",
                    f"nonce=00000000000000ff;hop=0;origin=n0{char}"),
        TraceRecord(30, "n0", tc.POSITION, "", "x=3.0;y=4.25"),
        TraceRecord(40, "", tc.END, "", ""),
    ]
    positions = [(0, node, "1.5", "2.0"), (30, "n0", "3.0", "4.25")]
    for writer, header, rows in (
            (write_trace_csv, tc.TRACE_COLUMNS, records),
            (write_positions_csv, ("time_us", "node", "x", "y"), positions)):
        path = tmp_path / "out.csv"
        writer(str(path), records)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", encoding="utf-8", newline="") as fh:
            reference = csv.writer(fh, lineterminator="\n")
            reference.writerow(header)
            reference.writerows(rows)
        assert path.read_bytes() == expected.read_bytes(), writer.__name__
    write_trace_csv(str(path), records)
    # csv.writer quotes a lone carriage return only from CPython 3.13 on; before
    # that, csv.reader reads one as a line end
    if char != "\r" or sys.version_info >= (3, 13):
        assert read_trace_csv(str(path)) == records


def test_positions_csv_projects_position_records(tmp_path):
    path = tmp_path / "positions.csv"
    write_positions_csv(str(path), sample_trace())
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["time_us", "node", "x", "y"],
        ["2000", "n1", "12.5", "40.25"],
    ]


# field text with every character csv.writer may quote, and non-ASCII, but no
# lone carriage return, which csv.writer quotes only from CPython 3.13 on, and
# no NUL, which csv.writer refuses before CPython 3.11
field_text = st.lists(
    st.one_of(st.sampled_from([",", '"', "\n", "\r\n", "é", "中", "😀"]),
              st.characters(exclude_categories=("Cs",), exclude_characters="\r\x00")),
    max_size=4).map("".join)
trace_row = st.builds(TraceRecord, st.integers(0, 2**63 - 1),
                      field_text, field_text, field_text, field_text)
CLEAN_ROW = TraceRecord(7, "n0", tc.INTEREST_TX, "/ntorrent/beacon/n0", "hop=0")
HOSTILE_ROW = TraceRecord(8, 'n"1', tc.INTEREST_RX, "/ntorrent/mo,vie/data/0", "a\r\nb")


# a run repeats one row, so a few draws fill rows past the 1,024-row chunks
@given(runs=st.lists(st.tuples(trace_row, st.integers(1, 1_100)), max_size=6))
@example(runs=[(CLEAN_ROW, 1_024), (CLEAN_ROW, 500), (HOSTILE_ROW, 1), (CLEAN_ROW, 500)])
@settings(max_examples=100, deadline=None)
def test_trace_csv_bytes_are_csv_writers_at_chunk_boundaries(runs, tmp_path_factory):
    records = [row for row, count in runs for _ in range(count)][:2_500]
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    write_trace_csv(str(path), records)
    expected = io.StringIO(newline="")
    reference = csv.writer(expected, lineterminator="\n")
    reference.writerow(tc.TRACE_COLUMNS)
    reference.writerows(records)
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


@pytest.mark.parametrize("detail", ["x=1.0", "x=1.0;y=2.0;y=3.0"])
def test_positions_csv_refuses_a_detail_without_one_x_and_one_y(tmp_path, detail):
    records = [TraceRecord(0, "n0", tc.POSITION, "", "x=1.0;y=2.0"),
               TraceRecord(1, "n0", tc.POSITION, "", detail)]
    with pytest.raises(ValueError):
        write_positions_csv(str(tmp_path / "positions.csv"), records)


# -- metrics ---------------------------------------------------------------------

def test_metrics_reduction_from_a_hand_built_trace():
    summary = metrics_from_trace(sample_trace(),
                                 leechers={"n1": "movie1", "n3": "movie2"},
                                 nodes=["n0", "n1", "n2", "n3"])
    assert summary.per_leecher["n1"].completed is True
    assert summary.per_leecher["n1"].completion_time_us == 1_400
    assert summary.per_leecher["n1"].torrent == "movie1"
    # n3 never completed but still gets a row
    assert summary.per_leecher["n3"].completed is False
    assert summary.per_leecher["n3"].completion_time_us is None
    assert summary.per_node["n0"].interests_tx == 1
    assert summary.per_node["n2"].data_tx == 1
    assert summary.per_node["n1"].drops == {
        tc.REASON_FOREIGN_LEARN: 1, tc.REASON_PIT_DUP: 1}
    assert summary.total_tx == 2
    assert summary.pieces_delivered == 1
    assert summary.overhead_ratio == 2.0


def test_no_deliveries_leaves_overhead_undefined():
    records = [TraceRecord(0, "n0", tc.INTEREST_TX, "/x", "")]
    summary = metrics_from_trace(records, leechers={}, nodes=["n0"])
    assert summary.pieces_delivered == 0
    assert summary.overhead_ratio is None


def test_forwarding_decisions_count_only_drop_reasons():
    records = [
        TraceRecord(0, "n0", tc.DECISION, "/x", tc.REASON_PROB_FWD),
        TraceRecord(1, "n0", tc.DECISION, "/x", tc.REASON_PROB_DROP),
        TraceRecord(2, "n0", tc.DECISION, "/x", tc.REASON_OWN_APP),
        TraceRecord(3, "n0", tc.DECISION, "/x", tc.REASON_UNKNOWN_DROP),
    ]
    summary = metrics_from_trace(records, leechers={}, nodes=["n0"])
    assert summary.per_node["n0"].drops == {
        tc.REASON_PROB_DROP: 1, tc.REASON_UNKNOWN_DROP: 1}


@pytest.mark.parametrize("event,detail", [
    (tc.INTEREST_TX, "nonce=00000000000000ff;hop=0;origin=ghost"),
    (tc.DATA_TX, "hop=0;origin=ghost;bytes=1024"),
    (tc.DROP, tc.REASON_PIT_DUP),
    (tc.DECISION, tc.REASON_PROB_FWD),
    (tc.PIECE_RX, "piece=0"),
])
def test_rows_from_unknown_nodes_are_rejected(event, detail):
    records = [TraceRecord(0, "ghost", event, "/ntorrent/movie1/data/0", detail)]
    with pytest.raises(ValueError, match="ghost"):
        metrics_from_trace(records, leechers={}, nodes=["n0"])


def test_completion_from_a_non_leecher_is_rejected():
    records = [TraceRecord(5, "n0", tc.COMPLETED, "", "torrent=movie1")]
    with pytest.raises(ValueError, match="n0"):
        metrics_from_trace(records, leechers={"n1": "movie1"}, nodes=["n0", "n1"])


def test_metrics_are_a_pure_function_of_the_trace(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), sample_trace())
    direct = metrics_from_trace(sample_trace(), {"n1": "movie1"}, ["n0", "n1", "n2"])
    reread = metrics_from_trace(read_trace_csv(str(path)),
                                {"n1": "movie1"}, ["n0", "n1", "n2"])
    assert direct == reread


def test_metrics_csv_layout(tmp_path):
    path = tmp_path / "metrics.csv"
    summary = metrics_from_trace(sample_trace(), {"n1": "movie1"}, ["n0", "n1", "n2"])
    summary.total_tx = 3
    summary.overhead_ratio = 3 / 7
    write_metrics_csv(str(path), summary)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "node", "detail", "value"]
    assert ["completed", "n1", "movie1", "1"] in rows
    assert ["completion_time_us", "n1", "movie1", "1400"] in rows
    assert ["interests_tx", "n0", "", "1"] in rows
    # the float is written with repr so rereading it loses nothing
    overhead_row = [r for r in rows if r[0] == "overhead_ratio"][0]
    assert float(overhead_row[3]) == 3 / 7


# -- the one-pass readers against the per-row reductions they replace -----------

def reference_metrics(records, leechers, nodes):
    """The per-row reduction metrics_from_trace must equal: each row's fields
    read by name, and a PIECE_RX row from an unknown node rejected."""
    summary = MetricsSummary(
        per_leecher={nid: LeecherMetrics(torrent) for nid, torrent in sorted(leechers.items())},
        per_node={nid: NodeCounters() for nid in sorted(nodes)},
    )
    for rec in records:
        counters = summary.per_node.get(rec.node)
        if counters is None and rec.event in (tc.INTEREST_TX, tc.DATA_TX, tc.PIECE_RX,
                                              tc.DROP, tc.DECISION):
            raise ValueError(f"trace row {rec.event} from unknown node {rec.node!r}")
        if rec.event == tc.INTEREST_TX:
            counters.interests_tx += 1
            summary.total_tx += 1
        elif rec.event == tc.DATA_TX:
            counters.data_tx += 1
            summary.total_tx += 1
        elif rec.event == tc.PIECE_RX:
            summary.pieces_delivered += 1
        elif rec.event == tc.COMPLETED:
            metrics = summary.per_leecher.get(rec.node)
            if metrics is None:
                raise ValueError(f"trace row {rec.event} from non-leecher node {rec.node!r}")
            metrics.completed = True
            metrics.completion_time_us = rec.time_us
        elif rec.event == tc.DROP:
            counters.drops[rec.detail] = counters.drops.get(rec.detail, 0) + 1
        elif rec.event == tc.DECISION and rec.detail in tc.DROP_DECISIONS:
            counters.drops[rec.detail] = counters.drops.get(rec.detail, 0) + 1
    if summary.pieces_delivered > 0:
        summary.overhead_ratio = summary.total_tx / summary.pieces_delivered
    return summary


EVENTS = [tc.INTEREST_TX, tc.INTEREST_RX, tc.DATA_TX, tc.DATA_RX, tc.DECISION, tc.DROP,
          tc.SATISFY, tc.BEACON_TX, tc.BITMAP_TX, tc.PIECE_REQ, tc.PIECE_RX, tc.COMPLETED,
          tc.POSITION, tc.WALK_EPOCH, tc.END]
DETAILS = [tc.REASON_PROB_FWD, tc.REASON_PROB_DROP, tc.REASON_FOREIGN_LEARN,
           tc.REASON_FOREIGN_FWD, tc.REASON_OWN_APP, tc.REASON_UNKNOWN_DROP,
           tc.REASON_PIT_DUP, tc.REASON_UNSOLICITED, tc.REASON_HOP_CAP,
           tc.REASON_EMIT_STALE, tc.REASON_COLLISION, "", "piece=0"]
KNOWN = ["n0", "n1", "n2"]
rows = st.builds(TraceRecord, st.integers(0, 10**9),
                 st.sampled_from(KNOWN + ["", "ghost"]), st.sampled_from(EVENTS),
                 st.just("/ntorrent/movie1/data/0"), st.sampled_from(DETAILS))


def reduce_or_raise(reduction, records, leechers):
    try:
        return reduction(records, leechers, KNOWN)
    except ValueError as exc:
        return ("ValueError", str(exc))


@given(records=st.lists(rows, max_size=40),
       leechers=st.dictionaries(st.sampled_from(KNOWN + ["ghost"]),
                                st.sampled_from(["movie1", "movie2"])))
@settings(max_examples=400)
def test_metrics_equal_the_per_row_reduction(records, leechers):
    # the same summary, or the same exception and message from the first bad row
    assert (reduce_or_raise(metrics_from_trace, records, leechers)
            == reduce_or_raise(reference_metrics, records, leechers))


def reference_positions(path, records):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(tc.POSITION_COLUMNS)
        for rec in records:
            if rec.event == tc.POSITION:
                fields = detail_fields(rec.detail)
                writer.writerow((rec.time_us, rec.node, fields["x"], fields["y"]))


SIDE = 300.0
coords = st.one_of(
    st.floats(0.0, SIDE),
    st.sampled_from([0.0, 1e-05, 5e-324, math.nextafter(0.0, SIDE),
                     math.nextafter(SIDE, 0.0), SIDE, 1e16, 123456789.0]))
position_rows = st.builds(
    lambda t, node, x, y: TraceRecord(t, node, tc.POSITION, "", f"x={x!r};y={y!r}"),
    st.integers(0, 10**9), st.sampled_from(KNOWN), coords, coords)
other_rows = st.builds(TraceRecord, st.integers(0, 10**9), st.sampled_from(KNOWN),
                       st.sampled_from([tc.INTEREST_TX, tc.WALK_EPOCH, tc.END]),
                       st.just(""), st.just("x=1.0;y=2.0;z=3.0"))


@given(records=st.lists(st.one_of(position_rows, other_rows), max_size=30))
@settings(max_examples=200)
def test_positions_csv_equals_the_detail_fields_projection(records, tmp_path_factory):
    out = tmp_path_factory.mktemp("positions")
    write_positions_csv(str(out / "got.csv"), records)
    reference_positions(str(out / "want.csv"), records)
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()
