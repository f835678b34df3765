"""Streamed runs: the folds and row writers fed a trace in batches give what
the one-call forms give for the whole trace, and a World with a sink hands on
exactly the rows a World without one keeps."""
import functools

import pytest
from hypothesis import given, settings, strategies as st

from ntorrent_sim import trace as tc
from ntorrent_sim.scenario import (
    MobilityKind,
    NodeKind,
    NodeSpec,
    ScenarioConfig,
    build_five_node,
    build_random_field,
    scenario_from_json,
)
from ntorrent_sim.trace import (
    CompletionsFold,
    MetricsFold,
    PositionsWriter,
    TraceRecord,
    TraceWriter,
    metrics_from_trace,
    write_positions_csv,
    write_trace_csv,
)
from ntorrent_sim.world import HAND_OFF_ROWS, World

from test_golden import csv_hostile_document

SEED = 4
SCENARIOS = {
    "five-node": build_five_node,
    "random-field-12": lambda: build_random_field(12, SEED),
    # 195,014 rows, so a sink World hands rows on several times before the END row
    "random-field-30": lambda: build_random_field(30, SEED),
    # 126,401 rows and no delivery: only position samples hand rows on
    "forwarders-only": lambda: ScenarioConfig(
        nodes=[NodeSpec(f"f{i}", NodeKind.PURE_FORWARDER, mobility=MobilityKind.RANDOM_WALK)
               for i in range(200)],
        torrents=[], duration_us=600_000_000),
    # long enough for several 1,024-row chunks
    "csv-hostile-ids": lambda: scenario_from_json(
        dict(csv_hostile_document(), duration_us=120_000_000)),
}


@functools.cache
def full_run(name):
    """(cfg, run report, whole trace) of a World without a sink."""
    cfg = SCENARIOS[name]()
    world = World(cfg, SEED)
    report = world.run()
    return cfg, report, world.trace


def batches_at(rows, cuts):
    """rows split at the cut points, each taken modulo len(rows) + 1; empty
    batches included."""
    bounds = [0, *sorted(cut % (len(rows) + 1) for cut in cuts), len(rows)]
    return [rows[start:end] for start, end in zip(bounds, bounds[1:])]


def batches_of(rows, size):
    return [rows[i:i + size] for i in range(0, len(rows), size)]


def node_ids(cfg):
    return [spec.node_id for spec in cfg.nodes]


cuts = st.lists(st.integers(0, 10**6), max_size=30)


# -- folds ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["five-node", "random-field-12"])
@given(cuts=cuts)
@settings(max_examples=40, deadline=None)
def test_metrics_fold_over_batches_equals_the_whole_trace_reduction(name, cuts):
    cfg, _, trace = full_run(name)
    whole = metrics_from_trace(trace, cfg.leechers(), node_ids(cfg))
    assert whole.total_tx > 0 and whole.pieces_delivered > 0
    fold = MetricsFold(cfg.leechers(), node_ids(cfg))
    for batch in batches_at(trace, cuts):
        fold.add(batch)
    assert fold.summary() == whole


@pytest.mark.parametrize("name", ["five-node", "random-field-12"])
@given(cuts=cuts)
@settings(max_examples=40, deadline=None)
def test_completions_fold_over_batches_equals_per_leecher(name, cuts):
    cfg, _, trace = full_run(name)
    whole = metrics_from_trace(trace, cfg.leechers(), node_ids(cfg))
    assert any(lm.completed for lm in whole.per_leecher.values())
    fold = CompletionsFold(cfg.leechers())
    for batch in batches_at(trace, cuts):
        fold.add(batch)
    assert fold.per_leecher == whole.per_leecher


def test_completions_fold_rejects_a_completion_from_a_non_leecher():
    fold = CompletionsFold({"n1": "movie1"})
    fold.add([TraceRecord(5, "n1", tc.COMPLETED, "", "torrent=movie1")])
    with pytest.raises(ValueError, match="non-leecher node 'n0'"):
        fold.add([TraceRecord(6, "n0", tc.COMPLETED, "", "torrent=movie1")])


# -- a World with a sink ----------------------------------------------------------------

@pytest.mark.parametrize("name", list(SCENARIOS))
def test_a_sink_world_hands_on_the_trace_a_plain_world_keeps(name):
    cfg, report, trace = full_run(name)
    batches = []
    world = World(cfg, SEED, batches.append)
    assert world.run() == report
    # a hand-off once a delivery leaves HAND_OFF_ROWS rows or more, and one
    # after the END row
    assert all(len(batch) >= HAND_OFF_ROWS for batch in batches[:-1])
    assert len(batches) > len(trace) // (2 * HAND_OFF_ROWS)
    assert batches[-1][-1][2] == tc.END
    handed_on = [row for batch in batches for row in batch]
    assert handed_on == trace
    # a sink gets exact tuples; a World without one keeps TraceRecords
    assert all(type(row) is tuple for row in handed_on)
    assert all(type(row) is TraceRecord for row in trace)
    assert world.trace == []
    with pytest.raises(RuntimeError, match="sink"):
        world.metrics()


# -- row writers ---------------------------------------------------------------------------

def written(tmp_path, writer_type, batches):
    path = tmp_path / "batched.csv"
    with writer_type(str(path)) as writer:
        for batch in batches:
            writer.add(batch)
    return path.read_bytes()


def whole(tmp_path, write, trace):
    path = tmp_path / "whole.csv"
    write(str(path), trace)
    return path.read_bytes()


@pytest.mark.parametrize("size", [1, 1_023, 1_025])
@pytest.mark.parametrize("name", ["random-field-12", "csv-hostile-ids"])
def test_batch_writers_write_the_one_call_bytes(name, size, tmp_path):
    _, _, trace = full_run(name)
    for writer_type, write in ((TraceWriter, write_trace_csv),
                               (PositionsWriter, write_positions_csv)):
        assert (written(tmp_path, writer_type, batches_of(trace, size))
                == whole(tmp_path, write, trace)), writer_type.__name__


def test_the_hostile_ids_trace_needs_quoting_in_every_chunk():
    # so the writer tests above split chunks that go through csv.writer
    _, _, trace = full_run("csv-hostile-ids")
    assert len(trace) > 2 * 1_025
    for chunk in batches_of(trace, 1_024):
        text = "".join(TraceWriter.lines(chunk))
        assert not tc._unquoted(text, len(chunk), len(tc.TRACE_COLUMNS) - 1)


@given(cuts=cuts)
@settings(max_examples=40, deadline=None)
def test_batch_writers_write_the_one_call_bytes_at_any_split(cuts, tmp_path_factory):
    _, _, trace = full_run("csv-hostile-ids")
    tmp_path = tmp_path_factory.mktemp("split")
    for writer_type, write in ((TraceWriter, write_trace_csv),
                               (PositionsWriter, write_positions_csv)):
        assert (written(tmp_path, writer_type, batches_at(trace, cuts))
                == whole(tmp_path, write, trace)), writer_type.__name__
