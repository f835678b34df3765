"""Per-layer metrics of a traced pass.

Times come from the tracer's spans (``_s`` is self time unless the metric's
note says otherwise). Protocol counts come from outside the timed region: a
probe reads each run's trace rows right after ``World.run`` returns, and the
file sizes right after each CSV writer returns. Trace rows are read by their
text format (event code, name layout, detail fields), not through the
simulator's own parsing, so they count the same however the code changes.
"""
from __future__ import annotations

import os
from collections import Counter

from tracer import DISPATCH, Missing, Tracer

EVENT_KINDS = ("PacketDelivery", "Timer", "MobilityEpoch", "GcTick")
DROP_REASONS = ("PIT_DUP", "UNSOLICITED_DATA", "HOP_CAP", "EMIT_STALE", "COLLISION")
# strategy decisions that drop the interest; metrics_from_trace counts these
# as drops too
DROP_DECISIONS = ("PROB_DROP", "FOREIGN_LEARN", "UNKNOWN_DROP")
DECISIONS = ("PROB_FWD", "PROB_DROP", "FOREIGN_LEARN", "FOREIGN_FWD", "OWN_APP",
             "UNKNOWN_DROP")
FORWARD_DECISIONS = ("PROB_FWD", "FOREIGN_FWD")
TX_CLASSES = ("beacon", "bitmap", "piece_interest", "data")


def _interest_class(name: str) -> str:
    # /ntorrent/beacon/<node>, /ntorrent/<t>/bitmap/..., /ntorrent/<t>/data/<i>
    parts = name.split("/")
    if len(parts) > 2 and parts[2] == "beacon":
        return "beacon"
    if len(parts) > 3 and parts[3] == "bitmap":
        return "bitmap"
    if len(parts) > 3 and parts[3] == "data":
        return "piece_interest"
    return "other"


class TraceCounts:
    """Probe targets: protocol counts from trace rows and written file sizes."""

    def __init__(self) -> None:
        self.rows = 0
        self.events = 0
        self.codes: Counter[str] = Counter()
        self.tx: Counter[str] = Counter()
        self.drops: Counter[str] = Counter()
        self.decisions: Counter[str] = Counter()
        self.piece_retx = 0
        self.bytes = 0

    def on_world_run(self, args, kwargs, report) -> None:
        world = args[0]
        self.events += report.events_dispatched
        self.rows += len(world.trace)
        for rec in world.trace:
            code = rec.event
            self.codes[code] += 1
            if code == "INTEREST_TX":
                self.tx[_interest_class(rec.name)] += 1
            elif code == "DATA_TX":
                self.tx["data"] += 1
            elif code == "DROP":
                self.drops[rec.detail] += 1
            elif code == "DECISION":
                self.decisions[rec.detail] += 1
                if rec.detail in DROP_DECISIONS:
                    self.drops[rec.detail] += 1
            elif code == "PIECE_REQ" and not rec.detail.endswith(";retry=0"):
                self.piece_retx += 1

    def on_write(self, args, kwargs, result) -> None:
        self.bytes += os.path.getsize(args[0] if args else kwargs["path"])

    def probes(self) -> dict:
        return {"world.run": self.on_world_run, "trace.write": self.on_write}


def _ratio(num: float, den: float) -> float:
    # a ratio whose base is 0 reads 0: the layer did no work of that kind
    return num / den if den else 0.0


def layer_metrics(t: Tracer, c: TraceCounts, oracle_agreed: list[bool]
                  ) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """(metrics as name -> (value, unit), names of metrics whose spans are gone)."""
    tx = c.codes["INTEREST_TX"] + c.codes["DATA_TX"]
    rx = c.codes["INTEREST_RX"] + c.codes["DATA_RX"]
    table = [
        ("engine.events", "count", lambda: c.events),
        ("engine.scheduled", "count", lambda: t.calls_of("engine.schedule")),
        *[(f"engine.events.{kind}", "count",
           lambda kind=kind: t.scheduled(kind))
          for kind in EVENT_KINDS],
        ("engine.self_s", "s", lambda: t.self_of("engine.run_until")),
        ("engine.schedule_s", "s", lambda: t.self_of("engine.schedule")),
        ("engine.streams_derived", "count", lambda: t.calls_of("engine.derive")),
        ("engine.derive_s", "s", lambda: t.self_of("engine.derive")),

        ("mobility.position_at_calls", "count", lambda: t.calls_of("mobility.position_at")),
        ("mobility.position_at_s", "s", lambda: t.self_of("mobility.position_at")),
        ("mobility.receivers_calls", "count", lambda: t.calls_of("mobility.receivers")),
        ("mobility.receivers_s", "s", lambda: t.self_of("mobility.receivers")),
        ("mobility.range_tests", "count",
         lambda: t.calls_of("mobility.in_range", parent="mobility.receivers")),
        ("mobility.in_range_s", "s", lambda: t.self_of("mobility.in_range")),
        ("mobility.walk_epochs", "count", lambda: t.calls_of("mobility.walk_epoch")),
        ("mobility.positions_per_tx", "ratio",
         lambda: _ratio(t.calls_of("mobility.position_at"), tx)),
        ("mobility.rx_per_range_test", "ratio",
         lambda: _ratio(t.scheduled("PacketDelivery"),
                        t.calls_of("mobility.in_range", parent="mobility.receivers"))),

        ("world.init_s", "s", lambda: t.total_of("world.init")),
        ("world.run_s", "s", lambda: t.total_of("world.run")),
        ("world.self_s", "s", lambda: t.self_of("world.run") + t.self_of(DISPATCH)),
        ("world.position_of_calls", "count", lambda: t.calls_of("world.position_of")),
        ("world.position_of_s", "s", lambda: t.self_of("world.position_of")),
        ("world.tx", "count", lambda: tx),
        ("world.rx", "count", lambda: rx),
        ("world.metrics_s", "s", lambda: t.total_of("world.metrics")),

        ("forwarding.interest_calls", "count", lambda: t.calls_of("forwarding.interest")),
        ("forwarding.interest_s", "s", lambda: t.self_of("forwarding.interest")),
        ("forwarding.data_calls", "count", lambda: t.calls_of("forwarding.data")),
        ("forwarding.data_s", "s", lambda: t.self_of("forwarding.data")),
        ("forwarding.emit_calls", "count", lambda: t.calls_of("forwarding.emit")),
        ("forwarding.emit_s", "s", lambda: t.self_of("forwarding.emit")),
        ("forwarding.gc_s", "s", lambda: t.self_of("forwarding.gc")),
        ("forwarding.pit_dup_ratio", "ratio",
         lambda: _ratio(c.drops["PIT_DUP"], c.codes["INTEREST_RX"])),
        ("forwarding.unsolicited_ratio", "ratio",
         lambda: _ratio(c.drops["UNSOLICITED_DATA"], c.codes["DATA_RX"])),

        ("strategies.decide_calls", "count", lambda: t.calls_of("strategies.decide")),
        ("strategies.decide_s", "s", lambda: t.self_of("strategies.decide")),
        ("strategies.forward_ratio", "ratio",
         lambda: _ratio(sum(c.decisions[d] for d in FORWARD_DECISIONS),
                        sum(c.decisions.values()))),

        ("app.calls", "count",
         lambda: t.calls_of("app.other") + t.calls_of("app.bitmap")),
        ("app.s", "s", lambda: t.self_of("app.other") + t.self_of("app.bitmap")),
        ("app.bitmap_calls", "count", lambda: t.calls_of("app.bitmap")),
        ("app.bitmap_s", "s", lambda: t.self_of("app.bitmap")),
        ("app.retx_ratio", "ratio",
         lambda: _ratio(c.piece_retx, c.codes["PIECE_REQ"])),

        ("names.classify_calls", "count", lambda: t.calls_of("names.classify")),
        ("names.classify_s", "s", lambda: t.self_of("names.classify")),
        ("names.render_calls", "count", lambda: t.calls_of("names.render")),
        ("names.render_s", "s", lambda: t.self_of("names.render")),
        ("names.decode_bitmap_calls", "count", lambda: t.calls_of("names.decode_bitmap")),
        ("names.decode_bitmap_s", "s", lambda: t.self_of("names.decode_bitmap")),
        ("names.classify_per_rx", "ratio",
         lambda: _ratio(t.calls_of("names.classify"), rx)),

        ("trace.rows", "count", lambda: c.rows),
        ("trace.rows_per_event", "ratio", lambda: _ratio(c.rows, c.events)),
        ("trace.bytes", "B", lambda: c.bytes),
        ("trace.write_s", "s", lambda: t.self_of("trace.write")),
        ("trace.metrics_s", "s", lambda: t.self_of("trace.metrics")),
        *[(f"trace.tx.{cls}", "count", lambda cls=cls: c.tx[cls]) for cls in TX_CLASSES],
        *[(f"trace.drops.{reason}", "count", lambda reason=reason: c.drops[reason])
          for reason in DROP_REASONS + DROP_DECISIONS],
        *[(f"trace.decisions.{reason}", "count", lambda reason=reason: c.decisions[reason])
          for reason in DECISIONS],

        ("scenario.build_s", "s", lambda: t.self_of("scenario.build")),

        ("oracle.calls", "count", lambda: t.calls_of("oracle")),
        ("oracle.s", "s", lambda: t.self_of("oracle")),
        ("oracle.agree_ratio", "ratio",
         lambda: _ratio(sum(oracle_agreed), len(oracle_agreed))),
    ]
    metrics: dict[str, tuple[float, str]] = {}
    missing: list[str] = []
    for name, unit, value in table:
        try:
            metrics[name] = (value(), unit)
        except Missing:
            missing.append(name)
    return metrics, missing
