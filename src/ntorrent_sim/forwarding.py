"""Per-node forwarding plane: faces, PIT, piece store, and dispatch.

Every node, peer or not, runs the same plane. Incoming interests pass nonce
deduplication (is_duplicate), leave a PIT breadcrumb for the return path, are
answered from the local piece store when possible, and otherwise go to a
relay rule: a pure forwarder (no app) calls strategies.pure_decide, a peer
calls strategies.peer_decide with its own torrent and its overheard-name
table. The rule's reason code is noted as the DECISION; a forward becomes a
Send after the rule's delay, OWN_APP hands the interest to the app, and the
drop reasons emit nothing more. Returning data consumes the breadcrumb:
rebroadcast once toward the radio if the interest came from there, hand to
the local application if the node peers on that torrent.

Handlers are pure with respect to the world: they mutate only the given node
state and return a list of effects (sends, emissions, timers, trace notes)
for the caller to apply. Interests and data leave through the one Send effect.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING

from .names import Bitmap, Data, Interest, Name, PieceInterest
from .strategies import OverheardNameTable, StrategyParams, peer_decide, pure_decide
from . import trace as tc

if TYPE_CHECKING:  # pragma: no cover
    from .app import PeerApp


class FaceId(Enum):
    BROADCAST = "broadcast"
    APP = "app"


# ---------------------------------------------------------------------------
# effects returned to the world

@dataclass(frozen=True)
class Note:
    """Trace record to append at the current time."""
    code: str
    name_text: str
    detail: str = ""


@dataclass(frozen=True)
class Send:
    """Broadcast an interest or a data packet after delay_us."""
    packet: Interest | Data
    delay_us: int = 0


@dataclass(frozen=True)
class EmitData:
    """Produce data for a satisfiable name after delay_us (PIT-driven)."""
    name: Name
    delay_us: int


@dataclass(frozen=True)
class AppInterest:
    """Deliver an interest to the local application."""
    packet: Interest


@dataclass(frozen=True)
class AppPiece:
    """Deliver an arrived piece to the local application."""
    torrent: str
    piece: int


@dataclass(frozen=True)
class OriginateInterest:
    """Application-created interest entering the plane on the App face."""
    packet: Interest


@dataclass(frozen=True)
class StartTimer:
    """(Re)arm an application timer after delay_us."""
    tag: str
    delay_us: int


Effect = (
    Note | Send | EmitData | AppInterest | AppPiece | OriginateInterest | StartTimer
)


# ---------------------------------------------------------------------------
# node state

@dataclass
class PitEntry:
    name: Name
    nonces: set[int] = field(default_factory=set)
    in_faces: set[FaceId] = field(default_factory=set)
    expiry_us: int = 0


class PieceStore:
    """Bitmapped piece inventory per torrent, plus payload sizes."""

    def __init__(self) -> None:
        self._bitmaps: dict[str, Bitmap] = {}
        self._piece_bytes: dict[str, int] = {}

    def ensure(self, torrent: str, n_pieces: int, piece_bytes: int) -> Bitmap:
        bitmap = self._bitmaps.get(torrent)
        if bitmap is None:
            bitmap = Bitmap(n_pieces)
            self._bitmaps[torrent] = bitmap
            self._piece_bytes[torrent] = piece_bytes
        return bitmap

    def bitmap(self, torrent: str) -> Bitmap | None:
        return self._bitmaps.get(torrent)

    def piece_bytes(self, torrent: str) -> int:
        return self._piece_bytes[torrent]

    def has(self, torrent: str, piece: int) -> bool:
        bitmap = self._bitmaps.get(torrent)
        return bitmap is not None and bitmap.has(piece)

    def add(self, torrent: str, piece: int) -> None:
        self._bitmaps[torrent].set(piece)


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
    app: "PeerApp | None" = None
    # torrents overheard recently; only a peer's decisions fill it
    table: OverheardNameTable = field(default_factory=OverheardNameTable)
    pit: dict[str, PitEntry] = field(default_factory=dict)
    # nonces of satisfied entries, kept until the entry would have expired, so
    # late flood copies stay duplicates instead of re-seeding the PIT
    dead_nonces: dict[str, PitEntry] = field(default_factory=dict)

    def peers_on(self, torrent: str) -> bool:
        return self.app is not None and self.app.torrent == torrent


def _live(entry: PitEntry | None, now_us: int) -> bool:
    return entry is not None and entry.expiry_us > now_us


def _retire_entry(node: NodeState, key: str, entry: PitEntry, now_us: int) -> None:
    """Remove a satisfied entry but keep its nonces for duplicate suppression."""
    del node.pit[key]
    dead = node.dead_nonces.get(key)
    if _live(dead, now_us):
        dead.nonces |= entry.nonces
        dead.expiry_us = max(dead.expiry_us, entry.expiry_us)
    else:
        node.dead_nonces[key] = PitEntry(entry.name, set(entry.nonces), set(),
                                         entry.expiry_us)


def jittered(base_us: int, rng: random.Random) -> int:
    """base_us plus a uniform integer offset within +-10% of it."""
    spread = base_us // 10
    if spread == 0:
        return base_us
    return base_us + rng.randint(-spread, spread)


def is_duplicate(node: NodeState, pkt: Interest, now_us: int) -> bool:
    """Whether the node already holds pkt's nonce for its name, in a live PIT
    entry or a live dead-nonce record. A duplicate is dropped with PIT_DUP
    and changes no state."""
    key = pkt.name.key
    entry = node.pit.get(key)
    if _live(entry, now_us) and pkt.nonce in entry.nonces:
        return True
    dead = node.dead_nonces.get(key)
    return _live(dead, now_us) and pkt.nonce in dead.nonces


def on_incoming_interest(node: NodeState, pkt: Interest, face: FaceId,
                         now_us: int, rng: random.Random) -> list[Effect]:
    """PIT dedup, breadcrumb, store check, then the face's forwarding rule."""
    key = pkt.name.key
    if is_duplicate(node, pkt, now_us):
        return [Note(tc.DROP, key, tc.REASON_PIT_DUP)]
    entry = node.pit.get(key)
    if not _live(entry, now_us):
        entry = PitEntry(pkt.name)
        node.pit[key] = entry
    entry.nonces.add(pkt.nonce)
    entry.in_faces.add(face)
    entry.expiry_us = now_us + node.params.pit_lifetime_us

    cls = pkt.name.cls
    if isinstance(cls, PieceInterest) and node.store.has(cls.torrent, cls.piece):
        delay = jittered(node.params.data_response_delay_us, rng)
        return [
            Note(tc.SATISFY, key, f"piece={cls.piece}"),
            EmitData(pkt.name, delay),
        ]

    if face is FaceId.APP:
        # own interests always hit the radio; the strategy governs relaying only
        return [Send(pkt, 0)]

    if pkt.hop_count + 1 > node.params.max_hops:
        return [Note(tc.DROP, key, tc.REASON_HOP_CAP)]

    # a pure forwarder has no app; a peer relays by its own torrent
    if node.app is None:
        reason, delay = pure_decide(node.strategy, pkt, rng)
    else:
        reason, delay = peer_decide(node.strategy, node.app.torrent, node.table, pkt,
                                    now_us, rng)
    effects: list[Effect] = [Note(tc.DECISION, key, reason)]
    if delay is not None:
        effects.append(Send(replace(pkt, hop_count=pkt.hop_count + 1), delay))
    elif reason == tc.REASON_OWN_APP:
        effects.append(AppInterest(pkt))
    return effects


def on_incoming_data(node: NodeState, pkt: Data, now_us: int,
                     rng: random.Random) -> list[Effect]:
    """Consume the PIT breadcrumb for data heard on the radio."""
    key = pkt.name.key
    cls = pkt.name.cls
    assert isinstance(cls, PieceInterest)
    entry = node.pit.get(key)
    if not _live(entry, now_us):
        effects: list[Effect] = []
        if node.params.cache_overheard_data:
            effects.extend(_absorb_piece(node, cls))
        effects.append(Note(tc.DROP, key, tc.REASON_UNSOLICITED))
        return effects
    _retire_entry(node, key, entry, now_us)
    effects = []
    if FaceId.BROADCAST in entry.in_faces:
        relayed = replace(pkt, hop_count=pkt.hop_count + 1)
        if relayed.hop_count <= node.params.max_hops:
            delay = jittered(node.params.data_response_delay_us, rng)
            effects.append(Send(relayed, delay))
        else:
            effects.append(Note(tc.DROP, key, tc.REASON_HOP_CAP))
    effects.extend(_absorb_piece(node, cls))
    return effects


def _absorb_piece(node: NodeState, cls: PieceInterest) -> list[Effect]:
    # peers get the piece through the app (which tracks completion);
    # other nodes only store it when the overheard-data cache is enabled
    if node.peers_on(cls.torrent):
        return [AppPiece(cls.torrent, cls.piece)]
    if node.params.cache_overheard_data:
        if node.store.bitmap(cls.torrent) is not None:
            node.store.add(cls.torrent, cls.piece)
    return []


def on_data_emission(node: NodeState, name: Name, now_us: int) -> list[Effect]:
    """Produce data for a previously satisfied interest, consuming its entry.

    The entry may have been satisfied by a copy from elsewhere in the
    meantime; then there is nothing left to answer.
    """
    key = name.key
    entry = node.pit.get(key)
    if not _live(entry, now_us):
        return [Note(tc.DROP, key, tc.REASON_EMIT_STALE)]
    cls = name.cls
    assert isinstance(cls, PieceInterest)
    if not node.store.has(cls.torrent, cls.piece):
        return [Note(tc.DROP, key, tc.REASON_EMIT_STALE)]
    _retire_entry(node, key, entry, now_us)
    pkt = Data(
        name=name,
        payload_bytes=node.store.piece_bytes(cls.torrent),
        origin=node.node_id,
        hop_count=0,
    )
    effects: list[Effect] = []
    if FaceId.BROADCAST in entry.in_faces:
        effects.append(Send(pkt, 0))
    if FaceId.APP in entry.in_faces:
        effects.extend(_absorb_piece(node, cls))
    return effects


def pit_gc(node: NodeState, now_us: int) -> int:
    """Remove entries with expiry <= now; returns how many were removed."""
    stale = [key for key, entry in node.pit.items() if entry.expiry_us <= now_us]
    for key in stale:
        del node.pit[key]
    dead = [key for key, entry in node.dead_nonces.items() if entry.expiry_us <= now_us]
    for key in dead:
        del node.dead_nonces[key]
    return len(stale)
