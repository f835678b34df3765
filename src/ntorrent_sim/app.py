"""The torrent peer application.

Peers announce presence with periodic beacons. Hearing a beacon triggers a
rate-limited bitmap announcement of the pieces held, hearing a bitmap widens
the map of pieces known to exist remotely, and missing pieces are requested
through a fixed-size pipeline with periodic retransmission of stale requests.
Seeders start complete and only answer; a leecher notes completion once, at
the arrival of its last piece.

The app arms its own timers: `out.timer` takes the handler that the World
calls back when the timer fires. The node's forwarding plane calls the
receive handlers directly with the beacons, bitmaps and piece interests it
classed as the app's own, and with each piece that arrives for its torrent.
The app draws every nonce and jitter from its own app stream, derived on
first use, and holds its download state itself: `have`, the node's store
bitmap for the torrent, `known_remote` and `pending`. Handlers change only
the application state and act on the world through `out`, the World. Every
interest the app creates goes out through `out.originate`, which records its
nonce in the node's PIT and transmits it at once. Data for it reaches the
app, and is relayed only if a radio arrival asked for the same name too.

Each app builds each distinct name once, on first use, and reuses the `Name`
object, so it is rendered and classified once: its beacon name, one name per
piece, and its latest bitmap announcement, rebuilt only when `have` changed.
The names live with the app, so none carries over from one run to the next.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .engine import cached, stream
from .forwarding import jittered
from .names import (
    Bitmap,
    BitmapAnnounce,
    Interest,
    Name,
    PieceInterest,
    beacon_name,
    bitmap_announce_name,
    piece_name,
)
from . import trace as tc

if TYPE_CHECKING:  # pragma: no cover
    from .world import World

class LengthMismatch(ValueError):
    """Bitmaps with different piece counts cannot be compared."""


def _set_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative int, lowest first. Each step
    jumps to the lowest set bit left and takes the 64 bits from there, so a
    walk costs a few passes over the int per 64 bits it yields."""
    base = 0
    while bits:
        skip = (bits & -bits).bit_length() - 1
        word = bits >> skip & 0xFFFF_FFFF_FFFF_FFFF
        bits >>= skip + 64
        while word:
            low = word & -word
            yield base + skip + low.bit_length() - 1
            word ^= low
        base += skip + 64


def compute_missing(mine: Bitmap, theirs: Bitmap) -> list[int]:
    """Ascending indices of pieces they hold and we lack."""
    if mine.n_pieces != theirs.n_pieces:
        raise LengthMismatch(f"{mine.n_pieces} != {theirs.n_pieces}")
    return list(_set_bits(theirs.bits & ~mine.bits))


@dataclass(frozen=True)
class AppConfig:
    beacon_interval_us: int = 2_000_000
    pipeline_window: int = 4
    interest_retry_timeout_us: int = 1_000_000
    max_retries: int | None = None
    bitmap_min_gap_us: int = 500_000
    keep_seeding: bool = False


@dataclass
class PendingRequest:
    last_sent_us: int
    retries: int = 0


class PeerApp:
    """One torrent peer bound to a node's piece store."""

    rng = stream("app")

    def __init__(self, node_id: str, torrent: str, seeder: bool, cfg: AppConfig,
                 have: Bitmap, data_response_delay_us: int, master_seed: int) -> None:
        self.node_id = node_id
        self.master_seed = master_seed
        self.torrent = torrent
        self.n_pieces = have.n_pieces
        self.seeder = seeder
        self.cfg = cfg
        self.data_response_delay_us = data_response_delay_us
        if seeder:
            have.bits = (1 << self.n_pieces) - 1
        self.have = have  # the node's store bitmap for the torrent
        self.known_remote = Bitmap(self.n_pieces)
        self.pending: dict[int, PendingRequest] = {}
        self._last_bitmap_us: dict[str, int] = {}
        self._piece_names: dict[int, Name] = {}
        # the latest bitmap announcement name and the have.bits it encodes
        self._bitmap_name: Name | None = None
        self._bitmap_name_bits = -1

    @cached
    def _beacon_name(self) -> Name:
        return beacon_name(self.node_id)

    def _piece_name(self, piece: int) -> Name:
        name = self._piece_names.get(piece)
        if name is None:
            name = self._piece_names[piece] = piece_name(self.torrent, piece)
        return name

    @property
    def completed(self) -> bool:
        return self.have.complete

    def start(self, out: World) -> None:
        """Initial timers: a desynchronising beacon offset, retries for leechers."""
        offset = self.rng.randint(1, max(1, self.cfg.beacon_interval_us // 10))
        out.timer(self.node_id, self.on_beacon_timer, offset)
        if not self.seeder:
            out.timer(self.node_id, self.on_retry_timer, self.cfg.interest_retry_timeout_us)

    # -- timers --------------------------------------------------------------

    def on_beacon_timer(self, now_us: int, out: World) -> None:
        if self.completed and not self.seeder and not self.cfg.keep_seeding:
            return  # done downloading; stop announcing, keep answering
        name = self._beacon_name
        pkt = Interest(name, nonce=self.rng.getrandbits(64), origin=self.node_id)
        out.note(self.node_id, tc.BEACON_TX, name.key)
        out.originate(self.node_id, pkt)
        out.timer(self.node_id, self.on_beacon_timer,
                  jittered(self.cfg.beacon_interval_us, self.rng))

    def on_retry_timer(self, now_us: int, out: World) -> None:
        if self.completed:
            return
        abandoned: list[int] = []
        for piece, req in sorted(self.pending.items()):
            if now_us - req.last_sent_us < self.cfg.interest_retry_timeout_us:
                continue
            if self.cfg.max_retries is not None and req.retries >= self.cfg.max_retries:
                abandoned.append(piece)
                continue
            req.last_sent_us = now_us
            req.retries += 1
            self._request_piece(piece, req.retries, out)
        for piece in abandoned:
            del self.pending[piece]
        # abandoned pieces rejoin the unrequested pool, but not within this tick
        self._fill_pipeline(now_us, out, exclude=frozenset(abandoned))
        out.timer(self.node_id, self.on_retry_timer, self.cfg.interest_retry_timeout_us)

    # -- receive paths ---------------------------------------------------------

    def _announce_bitmap(self, remote: str, now_us: int, out: World) -> None:
        """Broadcast our bitmap, at most once per bitmap_min_gap per remote node."""
        last = self._last_bitmap_us.get(remote)
        if last is not None and now_us - last < self.cfg.bitmap_min_gap_us:
            return
        self._last_bitmap_us[remote] = now_us
        if self._bitmap_name_bits != self.have.bits:
            self._bitmap_name_bits = self.have.bits
            self._bitmap_name = bitmap_announce_name(self.torrent, self.node_id, self.have)
        name = self._bitmap_name
        pkt = Interest(name, nonce=self.rng.getrandbits(64), origin=self.node_id)
        out.note(self.node_id, tc.BITMAP_TX, name.key, f"have={self.have.popcount()}")
        out.originate(self.node_id, pkt)

    def on_receive_beacon(self, sender: str, now_us: int, out: World) -> None:
        if sender != self.node_id:
            self._announce_bitmap(sender, now_us, out)

    def on_receive_bitmap(self, announce: BitmapAnnounce, now_us: int, out: World) -> None:
        if announce.node == self.node_id:
            return
        if announce.bits.n_pieces != self.n_pieces:
            return
        self.known_remote.bits |= announce.bits.bits
        self._fill_pipeline(now_us, out)
        # The exchange is two-way: if the announcer lacks pieces we hold, reply
        # with our own bitmap so it can start requesting them.
        if self.have.bits & ~announce.bits.bits:
            self._announce_bitmap(announce.node, now_us, out)

    def on_receive_piece(self, piece: int, now_us: int, out: World) -> None:
        self.pending.pop(piece, None)
        if self.have.has(piece):
            return  # duplicate delivery, idempotent
        # the only place have grows, so the arrival that completes it comes once
        self.have.set(piece)
        out.note(self.node_id, tc.PIECE_RX, self._piece_name(piece).key,
                 f"piece={piece}")
        if self.completed:
            out.note(self.node_id, tc.COMPLETED, "",
                     f"torrent={self.torrent};pieces={self.n_pieces}")
        self._fill_pipeline(now_us, out)

    def on_receive_piece_interest(self, request: PieceInterest, now_us: int,
                                  out: World) -> None:
        """Serve a held piece through the PIT return path."""
        if self.have.has(request.piece):
            delay = jittered(self.data_response_delay_us, self.rng)
            out.emit(self.node_id, self._piece_name(request.piece), delay)

    # -- pipeline ----------------------------------------------------------------

    def _request_piece(self, piece: int, retries: int, out: World) -> None:
        name = self._piece_name(piece)
        pkt = Interest(name, nonce=self.rng.getrandbits(64), origin=self.node_id)
        out.note(self.node_id, tc.PIECE_REQ, name.key, f"piece={piece};retry={retries}")
        out.originate(self.node_id, pkt)

    def _fill_pipeline(self, now_us: int, out: World,
                       exclude: frozenset[int] = frozenset()) -> None:
        if self.completed:
            return
        # lowest missing piece first; the walk ends with the window
        for piece in _set_bits(self.known_remote.bits & ~self.have.bits):
            if len(self.pending) >= self.cfg.pipeline_window:
                break
            if piece in self.pending or piece in exclude:
                continue
            self.pending[piece] = PendingRequest(last_sent_us=now_us)
            self._request_piece(piece, 0, out)
