"""Run loop: wires nodes, radio medium, mobility, and timers to the engine.

One World owns the event loop and all per-node state for a single run: each
node's forwarding state, with its app if it peers, and its station record of
where it is, what may hear it and what is on its way to it. The World only
creates these records from the node specs: each derives the streams it draws
on first use, the station its mobility and medium streams, the forwarding
state its strategy stream and the app its app stream, and the piece store
makes each bitmap on first use. The forwarding and app handlers get the
World as `out` and call its note, send, emit, timer and originate methods,
which act at the current time. The World only carries packets and keeps the
clock: it notes each reception and hands it to the node's forwarding plane,
which decides what to do with it, and it calls back the handler an app
armed with `timer` when that timer fires. The World calls an app itself only
to start it. An app's own interest goes through forwarding.on_own_interest
and is on the radio before `originate` returns. Every observable action
lands in the trace, and the trace plus the metrics reduced from it are the
run's result.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Callable

from . import forwarding as fw
from . import trace as tc
from .app import PeerApp
from .engine import EventLoop, RunReport, stream
from .mobility import (
    EPOCH_INTERVAL_US,
    SPEED_MAX_MS,
    GridBounds,
    Position,
    WalkState,
    broadcast_receivers,
    in_range,
    position_at,
    walk_epoch,
)
from .names import Data, Interest, Name
from .scenario import MobilityKind, NodeKind, ScenarioConfig
from .trace import MetricsSummary, TraceRecord, metrics_from_trace

GC_INTERVAL_US = 1_000_000

EV_DELIVERY = "PacketDelivery"
EV_TIMER = "Timer"
EV_MOBILITY = "MobilityEpoch"
EV_GC = "GcTick"


class _DeliveryMark:
    """Mutable collision flag shared between overlapping deliveries."""

    __slots__ = ("time_us", "collided")

    def __init__(self, time_us: int) -> None:
        self.time_us = time_us
        self.collided = False


@dataclass
class _Station:
    """Where a node is, what may hear it and what is on its way to it."""

    node_id: str
    master_seed: int
    place: InitVar[tuple[float, float] | None]  # None: drawn from the mobility stream
    grid: InitVar[GridBounds]
    anchor: Position = field(init=False)
    # a position the node had at seen_us, to within rounding (a static node's
    # anchor); _positions_near bounds where it can be now from it
    seen: Position = field(init=False)
    seen_us: int = 0
    epoch_start_us: int = 0
    walk: WalkState | None = None  # None for static nodes
    # filled by _reach before the node's first transmission
    candidates: list[tuple[str, _Station]] | None = None
    fixed: dict[str, Position] | None = None
    # collision mode: the deliveries on their way to this node
    inflight: list[_DeliveryMark] = field(default_factory=list)

    mobility = stream("mobility")
    medium = stream("medium")  # read only when the radio loses frames

    def __post_init__(self, place: tuple[float, float] | None, grid: GridBounds) -> None:
        if place is None:
            place = (self.mobility.uniform(0.0, grid.width),
                     self.mobility.uniform(0.0, grid.height))
        self.anchor = self.seen = Position(*place)


class World:
    def __init__(self, cfg: ScenarioConfig, master_seed: int) -> None:
        self.cfg = cfg
        self.loop = EventLoop()
        self.master_seed = master_seed
        self.trace: list[TraceRecord] = []
        self.nodes: dict[str, fw.NodeState] = {}
        self._stations: dict[str, _Station] = {}
        # Positions are exact to a few ulps of the largest length in their
        # arithmetic (a grid side, the range, a 200 m leg), and position_at moves
        # an anchor on a wall by the smallest step, so this margin on the displacement
        # bound in _positions_near covers both with room to spare.
        self._margin_m = 1e-9 * (cfg.grid.width + cfg.grid.height + cfg.radio.range_m
                                 + SPEED_MAX_MS * EPOCH_INTERVAL_US / 1e6)
        self._build_nodes()
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
                self._new_leg(spec.node_id, station)
            self._stations[spec.node_id] = station

    def _schedule_initial(self) -> None:
        cfg = self.cfg
        self.loop.schedule(0, EV_TIMER, None, ("sample",))
        if cfg.duration_us > 0:
            self.loop.schedule(min(GC_INTERVAL_US, cfg.duration_us), EV_GC)
            if any(station.walk is not None for station in self._stations.values()):
                self.loop.schedule(min(EPOCH_INTERVAL_US, cfg.duration_us), EV_MOBILITY)
        for node in self.nodes.values():
            if node.app is not None:
                node.app.start(self)

    # -- helpers --------------------------------------------------------------

    def _new_leg(self, node_id: str, station: _Station) -> None:
        """Draw the station's next walk leg from its mobility stream and note it."""
        walk = station.walk = walk_epoch(station.mobility)
        self.note(node_id, tc.WALK_EPOCH, "",
                  f"heading={walk.heading_rad!r};speed={walk.speed_ms!r}")

    def position_of(self, node_id: str, t_us: int) -> Position:
        station = self._stations[node_id]
        if station.walk is None:
            return station.anchor
        station.seen = position_at(station.anchor, station.walk, station.epoch_start_us,
                                   t_us, self.cfg.grid)
        station.seen_us = t_us
        return station.seen

    # -- what the handlers call ---------------------------------------------------

    def note(self, node_id: str, code: str, name_text: str, detail: str = "") -> None:
        """Append a trace row at the current time."""
        # tuple.__new__ skips the NamedTuple's Python-level __new__; same row type
        self.trace.append(tuple.__new__(TraceRecord, (self.loop.now_us, node_id, code,
                                                      name_text, detail)))

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
        if isinstance(pkt, Interest):
            self.note(node_id, tc.INTEREST_TX, pkt.name.key, pkt.wire)
        else:
            self.note(node_id, tc.DATA_TX, pkt.name.key,
                      f"hop={pkt.hop_count};origin={pkt.origin};bytes={pkt.payload_bytes}")
        self._broadcast(node_id, pkt)

    def _reach(self, sender: str, own: _Station) -> None:
        """Fill own before sender's first transmission: its candidates, the nodes
        that may hear it in insertion order (every other node for a walking
        sender, else the walkers and the static nodes in range); and its and
        their anchors as fixed, for good, when none of them walks."""
        own.candidates = [(node_id, station) for node_id, station in self._stations.items()
                          if node_id != sender and (
                              own.walk is not None or station.walk is not None
                              or in_range(own.anchor, station.anchor, self.cfg.radio))]
        if own.walk is None and all(station.walk is None for _, station in own.candidates):
            own.fixed = {sender: own.anchor,
                         **{node_id: station.anchor for node_id, station in own.candidates}}

    def _positions_near(self, sender: str, own: _Station, now: int) -> dict[str, Position]:
        """Exact positions of sender, then of each candidate that may be in
        range now, in insertion order; broadcast_receivers' exact disk test
        then decides."""
        origin = self.position_of(sender, now)
        reach = self.cfg.radio.range_m + self._margin_m
        positions = {sender: origin}
        for node_id, station in own.candidates:
            seen = station.seen
            # reflection only folds a walker's path, so it is now at most
            # speed * elapsed from where it was last seen
            slack = 0.0 if station.walk is None else (
                station.walk.speed_ms * (now - station.seen_us) / 1e6)
            if math.hypot(seen.x - origin.x, seen.y - origin.y) <= reach + slack:
                positions[node_id] = self.position_of(node_id, now)
        return positions

    def _broadcast(self, sender: str, pkt: Interest | Data) -> None:
        now = self.loop.now_us
        own = self._stations[sender]
        if own.candidates is None:
            self._reach(sender, own)
        positions = own.fixed
        if positions is None:
            positions = self._positions_near(sender, own, now)
        radio = self.cfg.radio
        receivers = broadcast_receivers(sender, positions, radio,
                                        own.medium if radio.loss_prob > 0.0 else None)
        arrival = now + radio.one_hop_delay_us
        for receiver in receivers:
            mark = None
            if self.cfg.collision_mode:
                mark = _DeliveryMark(arrival)
                pending = self._stations[receiver].inflight
                pending[:] = [m for m in pending if m.time_us > now]
                # each pending frame arrives in (now, arrival], so within one hop delay
                for other in pending:
                    other.collided = True
                mark.collided = bool(pending)
                pending.append(mark)
            self.loop.schedule(arrival, EV_DELIVERY, receiver, (pkt, mark))

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

    def _on_delivery(self, node_id: str, payload: tuple) -> None:
        pkt, mark = payload
        if mark is not None and mark.collided:
            self.note(node_id, tc.DROP, pkt.name.key, tc.REASON_COLLISION)
            return
        if isinstance(pkt, Interest):
            self.note(node_id, tc.INTEREST_RX, pkt.name.key, pkt.wire)
            fw.on_incoming_interest(self.nodes[node_id], pkt, self.loop.now_us, self)
        else:
            self.note(node_id, tc.DATA_RX, pkt.name.key,
                      f"hop={pkt.hop_count};origin={pkt.origin}")
            fw.on_incoming_data(self.nodes[node_id], pkt, self.loop.now_us, self)

    def _on_timer(self, node_id: str | None, payload: tuple) -> None:
        tag = payload[0]
        now = self.loop.now_us
        if tag == "sample":
            for node_id in self.nodes:
                pos = self.position_of(node_id, now)
                self.note(node_id, tc.POSITION, "", f"x={pos.x!r};y={pos.y!r}")
            nxt = now + self.cfg.position_sample_interval_us
            if nxt <= self.cfg.duration_us:
                self.loop.schedule(nxt, EV_TIMER, None, ("sample",))
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
            if station.walk is None:
                continue
            # the old leg's end is the new leg's start and its last seen position
            station.anchor = self.position_of(node_id, now)
            station.epoch_start_us = now
            self._new_leg(node_id, station)
        nxt = now + EPOCH_INTERVAL_US
        if nxt <= self.cfg.duration_us:
            self.loop.schedule(nxt, EV_MOBILITY)

    def _on_gc(self) -> None:
        now = self.loop.now_us
        for node in self.nodes.values():
            fw.pit_gc(node, now)
        nxt = now + GC_INTERVAL_US
        if nxt <= self.cfg.duration_us:
            self.loop.schedule(nxt, EV_GC)

    # -- run -------------------------------------------------------------------------

    def run(self) -> RunReport:
        report = self.loop.run_until(self.cfg.duration_us, self._dispatch)
        # the boundary marker always closes the trace, after anything that
        # fired exactly at the horizon
        self.note("", tc.END, "", "")
        return report

    def metrics(self) -> MetricsSummary:
        return metrics_from_trace(self.trace, self.cfg.leechers(), list(self.nodes))


def run_scenario(cfg: ScenarioConfig, master_seed: int) -> tuple[list[TraceRecord], MetricsSummary]:
    """Run one scenario to its horizon; returns the trace and its metrics."""
    world = World(cfg, master_seed)
    world.run()
    return world.trace, world.metrics()
