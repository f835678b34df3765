"""Per-node forwarding plane: PIT, piece store, and dispatch.

Every node, peer or not, runs the same plane. An app's own interest
(on_own_interest) leaves its nonce in the PIT and goes straight to the radio.
An interest heard on the radio (on_incoming_interest) whose nonce the node
already holds, in a live PIT entry or a live dead-nonce record, is dropped as
PIT_DUP and changes nothing; this handler is the one place that rule is
stated. A new one leaves a PIT breadcrumb for the return path, is answered
from the local piece store when possible, and otherwise goes to a relay rule:
a pure forwarder (no app) calls strategies.pure_decide, a peer calls
strategies.peer_decide with its own torrent and its overheard-name table. The
rule's reason code is noted as the DECISION; a forward is sent after the
rule's delay, OWN_APP calls the node's app with the classified name (a
beacon's sender, a bitmap announcement or a piece request), and the drop
reasons do nothing more. Returning data consumes the breadcrumb: rebroadcast
once if a radio arrival asked for it, and passed to the node's app as a piece
if the node peers on that torrent; the entry stays as a dead-nonce record, so
late copies stay duplicates until it expires.

Handlers change only the given node's state, call its app directly, and act
on the world through `out`, the World: they note trace rows, send packets and
schedule emissions. Interests and data leave through `out.send`. Relay coins,
jitter and data response delays draw from the node's strategy stream, which
it derives on first use, as its store makes a torrent's bitmap.

Every lookup of a PIT entry, dead-nonce record or overheard name checks its
expiry, so pit_gc, which removes the expired ones, changes nothing a node does
and only bounds what it holds. The World's 1 s GC tick calls it on a node once
its PIT and dead-nonce records have doubled since its last sweep.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .engine import draw_int, stream
from .names import Beacon, Bitmap, BitmapAnnounce, Data, Interest, Name, PieceInterest
from .strategies import OverheardNameTable, StrategyParams, peer_decide, pure_decide
from . import trace as tc

if TYPE_CHECKING:  # pragma: no cover
    from .app import PeerApp
    from .scenario import TorrentSpec
    from .world import World


# ---------------------------------------------------------------------------
# node state

@dataclass(slots=True)
class PitEntry:
    nonces: set[int] = field(default_factory=set)
    # a radio arrival asked for the name, so its data is relayed back
    from_radio: bool = False
    expiry_us: int = 0


class PieceStore:
    """Bitmapped piece inventory over the declared torrents, given as one
    {torrent_id: TorrentSpec} map; a torrent's bitmap is made on first use."""

    def __init__(self, torrents: dict[str, TorrentSpec]) -> None:
        self._torrents = torrents
        self._bitmaps: dict[str, Bitmap] = {}

    def bitmap(self, torrent: str) -> Bitmap:
        bitmap = self._bitmaps.get(torrent)
        if bitmap is None:
            bitmap = self._bitmaps[torrent] = Bitmap(self._torrents[torrent].n_pieces)
        return bitmap

    def piece_bytes(self, torrent: str) -> int:
        return self._torrents[torrent].piece_bytes

    def has(self, torrent: str, piece: int) -> bool:
        bitmap = self._bitmaps.get(torrent)
        return bitmap is not None and bitmap.has(piece)

    def add(self, torrent: str, piece: int) -> None:
        self.bitmap(torrent).set(piece)


@dataclass(frozen=True)
class ForwardingParams:
    pit_lifetime_us: int = 2_000_000
    data_response_delay_us: int = 1_000
    cache_overheard_data: bool = False
    max_hops: int = 64


@dataclass
class NodeState:
    node_id: str
    strategy: StrategyParams
    store: PieceStore
    params: ForwardingParams
    master_seed: int
    app: "PeerApp | None" = None
    # torrents overheard recently; only a peer's decisions fill it
    table: OverheardNameTable = field(default_factory=OverheardNameTable)
    pit: dict[str, PitEntry] = field(default_factory=dict)
    # satisfied entries, kept until they expire, so late flood copies stay
    # duplicates instead of re-seeding the PIT
    dead_nonces: dict[str, PitEntry] = field(default_factory=dict)

    rng = stream("strategy")

    def peers_on(self, torrent: str) -> bool:
        return self.app is not None and self.app.torrent == torrent


def _live(entry: PitEntry | None, now_us: int) -> bool:
    return entry is not None and entry.expiry_us > now_us


def _retire_entry(node: NodeState, key: str, entry: PitEntry, now_us: int) -> None:
    """Make a satisfied entry its name's dead-nonce record. A live older record's
    entries left the PIT before this one was made, so it expires no later."""
    del node.pit[key]
    dead = node.dead_nonces.get(key)
    if _live(dead, now_us):
        entry.nonces |= dead.nonces
    node.dead_nonces[key] = entry


def jittered(base_us: int, rng: random.Random) -> int:
    """base_us plus a uniform integer offset within +-10% of it."""
    spread = base_us // 10
    if spread == 0:
        return base_us
    return base_us + draw_int(rng, -spread, spread)


def _record(node: NodeState, pkt: Interest, now_us: int) -> PitEntry:
    """Add pkt's nonce to its name's live PIT entry, or to a new one, and push
    the entry's expiry out a full lifetime."""
    key = pkt.name.key
    entry = node.pit.get(key)
    if entry is None or entry.expiry_us <= now_us:
        entry = PitEntry()
        node.pit[key] = entry
    entry.nonces.add(pkt.nonce)
    entry.expiry_us = now_us + node.params.pit_lifetime_us
    return entry


def on_own_interest(node: NodeState, pkt: Interest, now_us: int, out: World) -> None:
    """Record an app's own interest and put it on the radio at once; the
    strategy governs relaying only."""
    _record(node, pkt, now_us)
    out.send(node.node_id, pkt, 0)


def on_incoming_interest(node: NodeState, pkt: Interest, now_us: int, out: World) -> None:
    """Duplicate check, breadcrumb, store check, then the relay rule for a
    radio arrival."""
    key = pkt.name.key
    nonce = pkt.nonce
    # the duplicate rule and _record's, on one PIT lookup: this runs for every
    # reception of every interest, and most flood copies are duplicates
    pit = node.pit
    entry = pit.get(key)
    live = entry is not None and entry.expiry_us > now_us
    if ((live and nonce in entry.nonces)
            or ((dead := node.dead_nonces.get(key)) is not None
                and dead.expiry_us > now_us and nonce in dead.nonces)):
        out.note(node.node_id, tc.DROP, key, tc.REASON_PIT_DUP)
        return
    expiry_us = now_us + node.params.pit_lifetime_us
    if live:
        entry.nonces.add(nonce)
        entry.expiry_us = expiry_us
        entry.from_radio = True
    else:
        pit[key] = PitEntry({nonce}, True, expiry_us)
    cls = pkt.name.cls
    if isinstance(cls, PieceInterest) and node.store.has(cls.torrent, cls.piece):
        delay = jittered(node.params.data_response_delay_us, node.rng)
        out.note(node.node_id, tc.SATISFY, key, f"piece={cls.piece}")
        out.emit(node.node_id, pkt.name, delay)
        return

    if pkt.hop_count + 1 > node.params.max_hops:
        out.note(node.node_id, tc.DROP, key, tc.REASON_HOP_CAP)
        return

    # a pure forwarder has no app; a peer relays by its own torrent
    if node.app is None:
        reason, delay = pure_decide(node.strategy, node.rng)
    else:
        reason, delay = peer_decide(node.strategy, node.app.torrent, node.table, pkt,
                                    now_us, node.rng)
    out.note(node.node_id, tc.DECISION, key, reason)
    if delay is not None:
        out.send(node.node_id, Interest(pkt.name, pkt.nonce, pkt.origin, pkt.hop_count + 1),
                 delay)
    elif reason == tc.REASON_OWN_APP:
        if isinstance(cls, Beacon):
            node.app.on_receive_beacon(cls.node, now_us, out)
        elif isinstance(cls, BitmapAnnounce):
            node.app.on_receive_bitmap(cls, now_us, out)
        elif isinstance(cls, PieceInterest):
            node.app.on_receive_piece_interest(cls, now_us, out)


def on_incoming_data(node: NodeState, pkt: Data, now_us: int, out: World) -> None:
    """Consume the PIT breadcrumb for data heard on the radio."""
    key = pkt.name.key
    cls = pkt.name.cls
    assert isinstance(cls, PieceInterest)
    entry = node.pit.get(key)
    if not _live(entry, now_us):
        if node.params.cache_overheard_data:
            _absorb_piece(node, cls, now_us, out)
        out.note(node.node_id, tc.DROP, key, tc.REASON_UNSOLICITED)
        return
    _retire_entry(node, key, entry, now_us)
    if entry.from_radio:
        relayed = Data(pkt.name, pkt.payload_bytes, pkt.origin, pkt.hop_count + 1)
        if relayed.hop_count <= node.params.max_hops:
            delay = jittered(node.params.data_response_delay_us, node.rng)
            out.send(node.node_id, relayed, delay)
        else:
            out.note(node.node_id, tc.DROP, key, tc.REASON_HOP_CAP)
    _absorb_piece(node, cls, now_us, out)


def _absorb_piece(node: NodeState, cls: PieceInterest, now_us: int, out: World) -> None:
    # peers get the piece through the app (which tracks completion); other
    # nodes only store it when the overheard-data cache is enabled
    if node.peers_on(cls.torrent):
        node.app.on_receive_piece(cls.piece, now_us, out)
    elif node.params.cache_overheard_data:
        node.store.add(cls.torrent, cls.piece)


def on_data_emission(node: NodeState, name: Name, now_us: int, out: World) -> None:
    """Produce data for an interest the store satisfied, consuming its entry.

    The entry may have been satisfied by a copy from elsewhere in the
    meantime; then there is nothing left to answer. Only a radio arrival
    that the store satisfied schedules an emission, and a store never loses
    a piece, so the piece is still held; an app never asks for a piece its
    store holds, so a live entry is always answered on the radio.
    """
    key = name.key
    entry = node.pit.get(key)
    if not _live(entry, now_us):
        out.note(node.node_id, tc.DROP, key, tc.REASON_EMIT_STALE)
        return
    _retire_entry(node, key, entry, now_us)
    pkt = Data(name, node.store.piece_bytes(name.cls.torrent), node.node_id, 0)
    out.send(node.node_id, pkt, 0)


def pit_gc(node: NodeState, now_us: int) -> int:
    """Remove PIT entries, dead-nonce records and overheard-name table entries
    with expiry <= now; returns how many PIT entries were removed. An empty
    table is passed over without building a list."""
    removed = 0
    pit = node.pit
    if pit:
        stale = [key for key, entry in pit.items() if entry.expiry_us <= now_us]
        for key in stale:
            del pit[key]
        removed = len(stale)
    dead_nonces = node.dead_nonces
    if dead_nonces:
        dead = [key for key, entry in dead_nonces.items() if entry.expiry_us <= now_us]
        for key in dead:
            del dead_nonces[key]
    node.table.gc(now_us)
    return removed
