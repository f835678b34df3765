"""Hierarchical names, piece bitmaps, and the on-air packet model.

Everything a node transmits is an Interest or a Data packet addressed by a
slash-separated name under the application prefix. The name layout is the
whole wire protocol: beacons announce presence, bitmap announcements carry a
peer's piece inventory encoded into name components, and piece interests
request one piece by index.

A packet object is shared by every receiver of its transmission, so Interest
and Data are immutable tuples whose constructors validate their fields; an
Interest formats its wire text, the trace detail of its transmission and
receptions, when it is made. Each peer app builds each distinct name once per
run and reuses the `Name` object (see app.py).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .engine import cached

APP_PREFIX = "ntorrent"
BEACON_KEYWORD = "beacon"
BITMAP_KEYWORD = "bitmap"
DATA_KEYWORD = "data"


class MalformedName(ValueError):
    """Name text that cannot be parsed into non-empty components."""


class MalformedBitmap(ValueError):
    """Bitmap components with bad hex, bad length, or out-of-range bits."""


@dataclass(frozen=True)
class Name:
    """An ordered tuple of non-empty components, rendered as /a/b/c.

    The rendered text (`key`) and the classification (`cls`) are computed on
    first use and kept, so a packet relayed hop after hop with the same Name
    object is rendered and classified once. Each peer app builds each distinct
    name once and reuses it, so its repeats are not rendered or classified again.
    """

    components: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise MalformedName("name needs at least one component")
        for comp in self.components:
            if not comp or "/" in comp:
                raise MalformedName(f"bad component {comp!r}")

    @cached
    def key(self) -> str:
        return render_name(self)

    @cached
    def cls(self) -> NameClass:
        return classify(self)

    def __str__(self) -> str:
        return self.key


def parse_name(text: str) -> Name:
    """Parse canonical /a/b/c text. Raises MalformedName on empty components."""
    if not text.startswith("/"):
        raise MalformedName(f"name must start with '/': {text!r}")
    return Name(tuple(text[1:].split("/")))


def render_name(name: Name) -> str:
    return "/" + "/".join(name.components)


@dataclass
class Bitmap:
    """Fixed-length piece inventory; bit i set means piece i is held."""

    n_pieces: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.n_pieces < 1:
            raise ValueError("n_pieces must be positive")
        if self.bits < 0 or self.bits >> self.n_pieces:
            raise ValueError("bits outside declared piece range")

    def has(self, piece: int) -> bool:
        self._check(piece)
        return bool(self.bits >> piece & 1)

    def set(self, piece: int) -> None:
        self._check(piece)
        self.bits |= 1 << piece

    def popcount(self) -> int:
        return self.bits.bit_count()

    @property
    def complete(self) -> bool:
        return self.popcount() == self.n_pieces

    def _check(self, piece: int) -> None:
        if not 0 <= piece < self.n_pieces:
            raise IndexError(f"piece {piece} outside [0, {self.n_pieces})")


def encode_bitmap(bitmap: Bitmap) -> tuple[str, str]:
    """Encode as (lowercase-hex bits, decimal piece count) name components.

    The hex field is zero-padded to whole bytes; bit 0 of the integer value is
    piece 0.
    """
    digits = 2 * ((bitmap.n_pieces + 7) // 8)
    return format(bitmap.bits, f"0{digits}x"), str(bitmap.n_pieces)


def decode_bitmap(hex_text: str, count_text: str) -> Bitmap:
    """Inverse of encode_bitmap. Raises MalformedBitmap, never returns junk."""
    try:
        n_pieces = int(count_text)
    except ValueError:
        raise MalformedBitmap(f"bad piece count {count_text!r}") from None
    if n_pieces < 1:
        raise MalformedBitmap(f"piece count must be positive, got {n_pieces}")
    digits = 2 * ((n_pieces + 7) // 8)
    if len(hex_text) != digits:
        raise MalformedBitmap(
            f"hex field is {len(hex_text)} chars, expected {digits} for n={n_pieces}"
        )
    if hex_text != hex_text.lower():
        raise MalformedBitmap("hex field must be lowercase")
    try:
        bits = int(hex_text, 16)
    except ValueError:
        raise MalformedBitmap(f"bad hex field {hex_text!r}") from None
    if bits >> n_pieces:
        raise MalformedBitmap("bits set beyond declared piece count")
    return Bitmap(n_pieces, bits)


# ---------------------------------------------------------------------------
# name classification

@dataclass(frozen=True)
class Beacon:
    node: str


@dataclass(frozen=True)
class BitmapAnnounce:
    torrent: str
    node: str
    bits: Bitmap


@dataclass(frozen=True)
class PieceInterest:
    torrent: str
    piece: int


@dataclass(frozen=True)
class Foreign:
    torrent: str


@dataclass(frozen=True)
class Unknown:
    pass


NameClass = Beacon | BitmapAnnounce | PieceInterest | Foreign | Unknown

UNKNOWN = Unknown()


def classify(name: Name) -> NameClass:
    """Total classification of a name; malformed typed fields degrade to Unknown."""
    parts = name.components
    if len(parts) < 2 or parts[0] != APP_PREFIX:
        return UNKNOWN
    if parts[1] == BEACON_KEYWORD:
        # the beacon keyword is reserved, it never names a torrent
        if len(parts) == 3:
            return Beacon(node=parts[2])
        return UNKNOWN
    torrent = parts[1]
    if len(parts) == 4 and parts[2] == DATA_KEYWORD:
        try:
            piece = int(parts[3])
        except ValueError:
            return UNKNOWN
        if piece < 0:
            return UNKNOWN
        return PieceInterest(torrent=torrent, piece=piece)
    if len(parts) == 6 and parts[2] == BITMAP_KEYWORD:
        try:
            bits = decode_bitmap(parts[4], parts[5])
        except MalformedBitmap:
            return UNKNOWN
        return BitmapAnnounce(torrent=torrent, node=parts[3], bits=bits)
    return Foreign(torrent=torrent)


# ---------------------------------------------------------------------------
# name constructors used by the application

def beacon_name(node: str) -> Name:
    return Name((APP_PREFIX, BEACON_KEYWORD, node))


def bitmap_announce_name(torrent: str, node: str, bitmap: Bitmap) -> Name:
    hex_text, count_text = encode_bitmap(bitmap)
    return Name((APP_PREFIX, torrent, BITMAP_KEYWORD, node, hex_text, count_text))


def piece_name(torrent: str, piece: int) -> Name:
    return Name((APP_PREFIX, torrent, DATA_KEYWORD, str(piece)))


# ---------------------------------------------------------------------------
# packets

class _Packet:
    """What Interest and Data share as tuples: equality by type and fields, and
    no way to build one but the validating constructor."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        raise TypeError(f"build {cls.__name__} packets with the constructor")

    def _replace(self, **changes):
        raise TypeError(f"build {type(self).__name__} packets with the constructor")


class _InterestFields(NamedTuple):
    name: Name
    nonce: int
    origin: str
    hop_count: int
    # nonce, hop count and origin as the trace detail of this packet's
    # transmission and of each of its receptions, which share the one string;
    # a relayed copy is a new Interest with its own
    wire: str


class Interest(_Packet, _InterestFields):
    """A named request; the nonce makes duplicate copies detectable."""

    __slots__ = ()

    def __new__(cls, name: Name, nonce: int, origin: str, hop_count: int = 0) -> Interest:
        if not 0 <= nonce < 1 << 64:
            raise ValueError("nonce must fit in 64 bits")
        if hop_count < 0:
            raise ValueError("hop_count must be non-negative")
        return tuple.__new__(cls, (name, nonce, origin, hop_count,
                                   f"nonce={nonce:016x};hop={hop_count};origin={origin}"))


class _DataFields(NamedTuple):
    name: Name
    payload_bytes: int
    origin: str
    hop_count: int


class Data(_Packet, _DataFields):
    """A named piece payload; only piece names carry data."""

    __slots__ = ()

    def __new__(cls, name: Name, payload_bytes: int, origin: str, hop_count: int = 0) -> Data:
        if not isinstance(name.cls, PieceInterest):
            raise ValueError(f"data name must be a piece name: {name.key}")
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        if hop_count < 0:
            raise ValueError("hop_count must be non-negative")
        return tuple.__new__(cls, (name, payload_bytes, origin, hop_count))
