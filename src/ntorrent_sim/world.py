"""Run loop: wires nodes, radio medium, mobility, and timers to the engine.

One World owns the event loop and all per-node state for a single run: each
node's forwarding state, with its app if it peers, its station record of
where it was last seen and the latest frame sent to it, and, from its first
transmission on, its sender record of what may hear it, with a two-sided
range certificate per candidate (see `_hearers_near`). Only the World and
the sender records refer to station records, and no station refers to
another, so a run makes no reference cycle: `run` pauses automatic garbage
collection, which would only walk the run's live objects (a kept trace
among them) again and again, and reference counting frees all a run drops.
On the way out, unless some objects are already frozen, it moves all that
the run left alive to the oldest generation, so no young collection after
the run walks it either; a full collection still does.
The World only creates these records from the node specs: each derives the
streams it draws on first use, the station its mobility and medium streams,
the forwarding state its strategy stream and the app its app stream, and the
piece store makes each bitmap on first use. The forwarding and app handlers
get the World as `out` and call its note, send, emit, timer and originate
methods, which act at the current time. The World only carries packets and
keeps the clock. A transmission is one delivery event, a batch of one event
per receiver; it notes each reception and hands it to the receiver's
forwarding plane, which decides what to do with it, before the next receiver
hears the frame; in collision mode a receiver in the transmission's collided
set notes a collision instead. It calls back the handler an app armed with
`timer` when that timer fires. The World calls an app itself only to start it.
An app's own interest goes through forwarding.on_own_interest and is on the
radio before `originate` returns. Every observable action lands in the trace,
and the trace plus the metrics reduced from it are the run's result. A World
given a sink streams its trace to a caller's folds (trace.MetricsFold, the CSV
row writers): it hands the rows on once a delivery or a position sample leaves
HAND_OFF_ROWS of them, and at the end, so a run holds not many more at once.
Those rows are plain tuples in trace.TRACE_COLUMNS order, since folds and
writers take rows apart by position; a World without a sink keeps TraceRecords.
A World given a sink may also be told which event codes the sink reads
(`keep`); it then builds no other row, and formats no detail that only such a
row would hold. The World is the one module that knows the text of the
wire-level details: it formats an interest's nonce, hop and origin once per
transmission, and the TX row and every RX row of it share that string.
Every PIT, dead-nonce and overheard-name lookup checks expiry itself, so the
1 s GC tick only bounds memory: it sweeps a node's tables once they have
doubled since its last sweep (see `_on_gc`).
"""
from __future__ import annotations

import gc
import math
from dataclasses import InitVar, dataclass, field
from functools import partial
from typing import Callable

from . import forwarding as fw
from . import trace as tc
from .app import PeerApp
from .engine import EventLoop, RunReport, cached, stream
from .mobility import (
    EPOCH_INTERVAL_US,
    SPEED_MAX_MS,
    GridBounds,
    Leg,
    Position,
    in_range,
    walk_epoch,
)
from .names import Data, Interest, Name
from .scenario import MobilityKind, NodeKind, ScenarioConfig
from .trace import MetricsSummary, TraceRecord, metrics_from_trace

GC_INTERVAL_US = 1_000_000
# the GC tick sweeps a node once its PIT and dead-nonce records reach twice
# what its last sweep left plus this many
GC_SLACK = 8
HAND_OFF_ROWS = 32_768

EV_DELIVERY = "PacketDelivery"
EV_TIMER = "Timer"
EV_MOBILITY = "MobilityEpoch"
EV_GC = "GcTick"


@dataclass
class _Station:
    """Where a node was last seen and the latest frame sent to it."""

    node_id: str
    master_seed: int
    place: InitVar[tuple[float, float] | None]  # None: drawn from the mobility stream
    grid: InitVar[GridBounds]
    # its exact position at seen_us, or where it was placed: a static node's
    # place for good, a walker's until its first exact position (seen_us -1);
    # _hearers_near bounds where it can be now from it
    seen: Position = field(init=False)
    seen_us: int = 0
    leg: Leg | None = None  # the walk leg it is on; None for static nodes
    # collision mode: the latest frame sent to this node, as its arrival time and
    # the collided set of its transmission
    on_air: tuple[int, set[str]] | None = None

    mobility = stream("mobility")
    medium = stream("medium")  # read only when the radio loses frames

    def __post_init__(self, place: tuple[float, float] | None, grid: GridBounds) -> None:
        if place is None:
            place = (self.mobility.uniform(0.0, grid.width),
                     self.mobility.uniform(0.0, grid.height))
        self.seen = Position(*place)

    @cached
    def fixed_detail(self) -> str:
        """A static node's POSITION detail, the same at every sample."""
        return _position_detail(self.seen)


@dataclass(slots=True)
class _Sender:
    """What may hear a node's transmissions, made by World._reach before its
    first one. The World keeps these apart from the stations, so no station
    refers to another and a finished World is freed by reference counting."""

    own: _Station
    # a static sender whose candidates are all static: the ones in range, in
    # order, for good
    hearers: list[str] | None = None
    # any other sender: the stations that may hear it, in insertion order, and
    # per candidate the µs before which it surely cannot hear the sender (due)
    # and the µs before which it surely can (sure), both set by _hearers_near
    candidates: list[_Station] | None = None
    due: list[int] | None = None
    sure: list[int] | None = None


def _position_detail(pos: Position) -> str:
    return f"x={pos.x!r};y={pos.y!r}"


class World:
    """One run of cfg from master_seed.

    Without a sink, `trace` holds every row of the run as a TraceRecord. With
    one, the World hands `trace` to sink(rows) once a delivery or a position
    sample leaves HAND_OFF_ROWS rows or more, and after the END row, and starts
    a new list, so `trace` holds only the rows noted since the last hand-off,
    the World keeps no row it has handed on, and `metrics()` raises. A sink's
    rows are plain tuples in trace.TRACE_COLUMNS order.

    keep, given with a sink, is the set of event codes the sink reads: the
    World builds only rows of those codes, in the order a full run notes them,
    and formats no detail that only another row would hold. The run itself,
    its events and RNG draws, is the same whatever keep is. A code outside
    trace.EVENTS, or a keep without a sink, raises ValueError: a sinkless World
    reduces its own trace, which must be whole.
    """

    def __init__(self, cfg: ScenarioConfig, master_seed: int,
                 sink: Callable[[list[tuple]], None] | None = None,
                 keep: frozenset[str] | None = None) -> None:
        if not 0 <= master_seed < 1 << 64:  # derive_stream would wrap it onto another run
            raise ValueError(f"master seed {master_seed} does not fit in 64 bits")
        if keep is not None:
            if sink is None:
                raise ValueError("keep needs a sink: a World without one keeps its "
                                 "whole trace for metrics()")
            unknown = sorted(keep - tc.EVENTS)
            if unknown:
                raise ValueError(f"keep names {', '.join(map(repr, unknown))}, "
                                 "not trace event codes")
        self.cfg = cfg
        self.loop = EventLoop()
        self.master_seed = master_seed
        self.trace: list[tuple] = []
        self._sink = sink
        # None keeps every row. The rows whose details the World formats itself
        # are decided here, once
        self._keep = keep
        self._interest_rx = self._keeps(tc.INTEREST_RX)
        self._interest_details = self._interest_rx or self._keeps(tc.INTEREST_TX)
        self._data_tx = self._keeps(tc.DATA_TX)
        self._data_rx = self._keeps(tc.DATA_RX)
        # every row is built through this: a sink's folds and writers take rows
        # apart by position, and an exact tuple is the cheapest row to build,
        # unpack and free
        self._row = tuple if sink is not None else partial(tuple.__new__, TraceRecord)
        self.nodes: dict[str, fw.NodeState] = {}
        self._stations: dict[str, _Station] = {}
        self._senders: dict[str, _Sender] = {}  # filled as each node first transmits
        # Positions are exact to a few ulps of the largest length in their
        # arithmetic (a grid side, the range, a 200 m leg), and position_at moves
        # an anchor on a wall by the smallest step, so this margin on the bounds
        # in _hearers_near covers both with room to spare.
        self._margin_m = 1e-9 * (cfg.grid.width + cfg.grid.height + cfg.radio.range_m
                                 + SPEED_MAX_MS * EPOCH_INTERVAL_US / 1e6)
        self._build_nodes()
        # per node, how many PIT and dead-nonce records the GC tick sweeps at
        self._sweep_at = dict.fromkeys(self.nodes, GC_SLACK)
        self._schedule_initial()

    # -- construction -------------------------------------------------------

    def _build_nodes(self) -> None:
        cfg = self.cfg
        torrents = {torrent.torrent_id: torrent for torrent in cfg.torrents}
        for spec in cfg.nodes:
            store = fw.PieceStore(torrents)
            app = None
            if spec.kind is not NodeKind.PURE_FORWARDER:
                app = PeerApp(node_id=spec.node_id, torrent=spec.torrent,
                              seeder=spec.kind is NodeKind.SEEDER, cfg=cfg.app,
                              have=store.bitmap(spec.torrent),
                              data_response_delay_us=cfg.forwarding.data_response_delay_us,
                              master_seed=self.master_seed)
            self.nodes[spec.node_id] = fw.NodeState(
                node_id=spec.node_id, strategy=cfg.strategy, store=store,
                params=cfg.forwarding, master_seed=self.master_seed, app=app)
            station = _Station(spec.node_id, self.master_seed, spec.position, cfg.grid)
            if spec.mobility is MobilityKind.RANDOM_WALK:
                self._new_leg(spec.node_id, station, station.seen)
                station.seen_us = -1  # a placement on a wall is not yet exact
            self._stations[spec.node_id] = station

    def _schedule_initial(self) -> None:
        cfg = self.cfg
        self.loop.schedule(0, EV_TIMER, None, ("sample",))
        if cfg.duration_us > 0:
            self.loop.schedule(min(GC_INTERVAL_US, cfg.duration_us), EV_GC)
            if any(station.leg is not None for station in self._stations.values()):
                self.loop.schedule(min(EPOCH_INTERVAL_US, cfg.duration_us), EV_MOBILITY)
        for node in self.nodes.values():
            if node.app is not None:
                node.app.start(self)

    # -- helpers --------------------------------------------------------------

    def _keeps(self, code: str) -> bool:
        """Whether rows of code are built."""
        return self._keep is None or code in self._keep

    def _new_leg(self, node_id: str, station: _Station, start: Position) -> None:
        """Start the station's next walk leg from start now, drawn from its
        mobility stream, and note it."""
        walk = walk_epoch(station.mobility)
        station.leg = Leg(start, walk, self.loop.now_us, self.cfg.grid)
        if self._keeps(tc.WALK_EPOCH):
            self.note(node_id, tc.WALK_EPOCH, "",
                      f"heading={walk.heading_rad!r};speed={walk.speed_ms!r}")

    def position_of(self, node_id: str, t_us: int) -> Position:
        station = self._stations[node_id]
        leg = station.leg
        if leg is None or t_us == station.seen_us:
            return station.seen
        station.seen = leg.position(t_us)
        station.seen_us = t_us
        return station.seen

    # -- what the handlers call ---------------------------------------------------

    def note(self, node_id: str, code: str, name_text: str, detail: str = "") -> None:
        """Append a trace row at the current time, if rows of code are kept."""
        keep = self._keep
        if keep is None or code in keep:
            self.trace.append(self._row((self.loop.now_us, node_id, code, name_text, detail)))

    def send(self, node_id: str, pkt: Interest | Data, delay_us: int) -> None:
        """Broadcast pkt after delay_us; a delay-0 send goes out before this returns."""
        if delay_us > 0:
            self.loop.schedule(self.loop.now_us + delay_us, EV_TIMER, node_id, ("tx", pkt))
        else:
            self._transmit(node_id, pkt)

    def emit(self, node_id: str, name: Name, delay_us: int) -> None:
        """Produce data for a satisfied name after delay_us (PIT-driven)."""
        self.loop.schedule(self.loop.now_us + delay_us, EV_TIMER, node_id, ("emit", name))

    def timer(self, node_id: str, handler: Callable[[int, World], None],
              delay_us: int) -> None:
        """Call an app's handler(now_us, world) after delay_us."""
        self.loop.schedule(self.loop.now_us + delay_us, EV_TIMER, node_id, (handler,))

    def originate(self, node_id: str, pkt: Interest) -> None:
        """Record an app-created interest in its node's PIT and transmit it now."""
        fw.on_own_interest(self.nodes[node_id], pkt, self.loop.now_us, self)

    # -- radio ---------------------------------------------------------------------

    def _transmit(self, node_id: str, pkt: Interest | Data) -> None:
        """Note pkt's transmission and broadcast it. An interest's detail is
        formatted here, once, and its receptions share the string."""
        detail = None
        if isinstance(pkt, Interest):
            if self._interest_details:
                name, nonce, origin, hop = pkt
                detail = f"nonce={nonce:016x};hop={hop};origin={origin}"
                self.note(node_id, tc.INTEREST_TX, name.key, detail)
        elif self._data_tx:
            self.note(node_id, tc.DATA_TX, pkt.name.key,
                      f"hop={pkt.hop_count};origin={pkt.origin};bytes={pkt.payload_bytes}")
        self._broadcast(node_id, pkt, detail)

    def _reach(self, sender: str) -> _Sender:
        """The sender's record, made before its first transmission: its
        candidates, the stations that may hear it in insertion order (every
        other station for a walking sender, else the walkers and the static
        nodes in range); and, when none of them walks, their ids as its hearers
        for good, since the disk test every frame would repeat is the one made
        here; else a due and a sure time of 0 per candidate for _hearers_near."""
        own = self._stations[sender]
        candidates = [station for station in self._stations.values()
                      if station is not own and (
                          own.leg is not None or station.leg is not None
                          or in_range(own.seen, station.seen, self.cfg.radio))]
        if own.leg is None and all(station.leg is None for station in candidates):
            record = _Sender(own, hearers=[station.node_id for station in candidates])
        else:
            record = _Sender(own, candidates=candidates, due=[0] * len(candidates),
                             sure=[0] * len(candidates))
        self._senders[sender] = record
        return record

    def _hearers_near(self, sender: str, record: _Sender, now: int) -> list[str]:
        """The candidates in range of sender now, in candidate order, as the
        exact closed-disk test on every exact position decides.

        A walker is now at most speed * elapsed from where it was last seen,
        since reflection only folds its path, and two nodes close in on each
        other or move apart at no more than 2 * SPEED_MAX_MS. From those bounds
        each candidate gets a two-sided certificate: it is skipped until its
        due time, when it may first be in range, and accepted with one
        comparison until its sure time, when it may first be out of range.
        Past both, the bounds decide it without its exact position unless it is
        near the range edge, where it is tested exactly, and they renew the
        certificate. A certificate shorter than 1 µs leaves the candidate due
        now: a sender can transmit twice in a µs. The sender's own exact
        position is computed only when some candidate needs the arithmetic.
        """
        radio = self.cfg.radio
        far = radio.range_m + self._margin_m
        near = radio.range_m - self._margin_m
        # a certificate past the run holds for good; int() of it may overflow
        after = self.cfg.duration_us + 1
        candidates = record.candidates
        due = record.due
        sure = record.sure
        origin = None
        hearers = []
        for i, due_us in enumerate(due):
            if now < due_us:
                continue
            station = candidates[i]
            if now >= sure[i]:
                if origin is None:
                    origin = self.position_of(sender, now)
                    ox, oy = origin
                sx, sy = station.seen
                leg = station.leg
                slack = 0.0 if leg is None else leg.state.speed_ms * (now - station.seen_us) / 1e6
                gap = math.hypot(sx - ox, sy - oy)
                lower = gap - slack - far
                if lower > 0.0:
                    wait = lower * 1e6 / (2.0 * SPEED_MAX_MS)
                    due[i] = now + int(wait) if wait < after else after
                    continue
                upper = gap + slack
                if upper > near:
                    if not in_range(origin, self.position_of(station.node_id, now), radio):
                        continue
                else:
                    hold = (near - upper) * 1e6 / (2.0 * SPEED_MAX_MS)
                    sure[i] = now + int(hold) if hold < after else after
            hearers.append(station.node_id)
        return hearers

    def _broadcast(self, sender: str, pkt: Interest | Data, detail: str | None) -> None:
        """Schedule pkt's delivery to each node that hears it; detail is an
        interest's trace detail, None for data or when no interest row is kept."""
        now = self.loop.now_us
        record = self._senders.get(sender)
        if record is None:
            record = self._reach(sender)
        radio = self.cfg.radio
        receivers = record.hearers
        if receivers is None:
            receivers = self._hearers_near(sender, record, now)
        if radio.loss_prob > 0.0:
            # one loss coin per node in range, in order
            coin = record.own.medium.random
            receivers = [node_id for node_id in receivers if not coin() < radio.loss_prob]
        arrival = now + radio.one_hop_delay_us
        collided = set() if self.cfg.collision_mode else None
        if collided is not None:
            for receiver in receivers:
                station = self._stations[receiver]
                # a frame still on its way arrives in (now, arrival], so within one
                # hop delay; any older one arrives first and is already collided
                last = station.on_air
                if last is not None and last[0] > now:
                    last[1].add(receiver)
                    collided.add(receiver)
                station.on_air = (arrival, collided)
        # one event per receiver, in order; receivers may be record.hearers itself
        self.loop.schedule_batch(arrival, EV_DELIVERY, receivers, (pkt, detail, collided))

    # -- event dispatch ---------------------------------------------------------------

    def _dispatch(self, kind: str, target: str | None, payload: object) -> None:
        if kind == EV_DELIVERY:
            self._on_delivery(target, payload)
        elif kind == EV_TIMER:
            self._on_timer(target, payload)
        elif kind == EV_MOBILITY:
            self._on_mobility_epoch()
        elif kind == EV_GC:
            self._on_gc()

    def _on_delivery(self, receivers: list[str], payload: tuple) -> None:
        """Deliver one transmission to each receiver in order, as its events would
        dispatch one by one: each receiver's handler runs before the next one
        hears the frame."""
        pkt, detail, collided = payload
        now = self.loop.now_us
        key = pkt.name.key
        if isinstance(pkt, Interest):
            code, handle, noted = tc.INTEREST_RX, fw.on_incoming_interest, self._interest_rx
        else:
            code, handle, noted = tc.DATA_RX, fw.on_incoming_data, self._data_rx
            if noted:
                detail = f"hop={pkt.hop_count};origin={pkt.origin}"
        append = self.trace.append
        row = self._row
        nodes = self.nodes
        for node_id in receivers:
            if collided and node_id in collided:
                self.note(node_id, tc.DROP, key, tc.REASON_COLLISION)
                continue
            if noted:  # the row note would append
                append(row((now, node_id, code, key, detail)))
            handle(nodes[node_id], pkt, now, self)
        # past the loop, no local holds the bound append of the list handed on
        self._hand_off(HAND_OFF_ROWS)

    def _on_timer(self, node_id: str | None, payload: tuple) -> None:
        tag = payload[0]
        now = self.loop.now_us
        if tag == "sample":
            # a sample that builds no row reads no position either: a walker's
            # last exact position only bounds where it can be (_hearers_near)
            if self._keeps(tc.POSITION):
                append = self.trace.append
                row = self._row
                for node_id, station in self._stations.items():
                    if station.leg is None:
                        detail = station.fixed_detail
                    else:
                        x, y = self.position_of(node_id, now)
                        detail = f"x={x!r};y={y!r}"  # _position_detail, inlined
                    # the row note would append
                    append(row((now, node_id, tc.POSITION, "", detail)))
            nxt = now + self.cfg.position_sample_interval_us
            if nxt <= self.cfg.duration_us:
                self.loop.schedule(nxt, EV_TIMER, None, ("sample",))
            self._hand_off(HAND_OFF_ROWS)  # a run with no deliveries also hands rows on
            return
        if tag == "tx":
            self._transmit(node_id, payload[1])
        elif tag == "emit":
            fw.on_data_emission(self.nodes[node_id], payload[1], now, self)
        else:  # an app timer holds the handler it armed in place of a tag
            tag(now, self)

    def _on_mobility_epoch(self) -> None:
        now = self.loop.now_us
        for node_id, station in self._stations.items():
            if station.leg is None:
                continue
            # the old leg's end is the new leg's start and its last seen position
            self._new_leg(node_id, station, self.position_of(node_id, now))
        nxt = now + EPOCH_INTERVAL_US
        if nxt <= self.cfg.duration_us:
            self.loop.schedule(nxt, EV_MOBILITY)

    def _on_gc(self) -> None:
        """Sweep each node whose PIT and dead-nonce records have reached its
        sweep threshold, then set that to twice what is left plus GC_SLACK. A
        node then holds at every tick less than twice what its last sweep left,
        plus GC_SLACK, and its overheard-name table is swept with them; it holds
        at most one name per torrent."""
        now = self.loop.now_us
        sweep_at = self._sweep_at
        for node_id, node in self.nodes.items():
            if len(node.pit) + len(node.dead_nonces) >= sweep_at[node_id]:
                fw.pit_gc(node, now)
                sweep_at[node_id] = 2 * (len(node.pit) + len(node.dead_nonces)) + GC_SLACK
        nxt = now + GC_INTERVAL_US
        if nxt <= self.cfg.duration_us:
            self.loop.schedule(nxt, EV_GC)

    def _hand_off(self, at_least: int = 0) -> None:
        """Give the rows since the last hand-off to the sink, if any, once they are at_least."""
        if self._sink is not None and len(self.trace) >= at_least:
            rows, self.trace = self.trace, []
            self._sink(rows)

    # -- run -------------------------------------------------------------------------

    def run(self) -> RunReport:
        """Run to the horizon, with automatic collection off until it returns.

        On the way out, unless some objects are already frozen, every object
        the collector tracks, the run's survivors (a kept trace among them) and
        the caller's own young objects alike, moves to the oldest generation,
        so no young collection walks them; a full collection still does. A run
        makes no reference cycles, so only a caller's own cyclic garbage is
        held, until the next full collection."""
        # A run makes no reference cycles, so reference counting frees all it
        # drops, and automatic collection would only walk its live objects
        enabled = gc.isenabled()
        gc.disable()
        try:
            report = self.loop.run_until(self.cfg.duration_us, self._dispatch)
            # the boundary marker always closes the trace, after anything that
            # fired exactly at the horizon
            self.note("", tc.END, "", "")
            self._hand_off()
        finally:
            # freeze then unfreeze splices every generation into the oldest and
            # zeroes gen-0's count, so the first allocation after the run starts
            # no collection over it. unfreeze releases every frozen object, so
            # skip it when some already are: CPython 3.12 starts with frozen
            # tuples, and a caller may freeze objects before a fork
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            if enabled:
                gc.enable()
        return report

    def metrics(self) -> MetricsSummary:
        if self._sink is not None:
            raise RuntimeError("a World with a sink keeps no trace to reduce; "
                               "fold the rows its sink receives")
        return metrics_from_trace(self.trace, self.cfg.leechers(), list(self.nodes))


def run_scenario(cfg: ScenarioConfig, master_seed: int) -> tuple[list[TraceRecord], MetricsSummary]:
    """Run one scenario to its horizon; returns the trace and its metrics."""
    world = World(cfg, master_seed)
    world.run()
    return world.trace, world.metrics()
