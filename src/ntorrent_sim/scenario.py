"""Scenario configuration: JSON schema, validation as a config is made, and builders.

A scenario file is one JSON object. One reader maps it, and each object in it,
onto a config dataclass: the document onto ScenarioConfig, its sections grid,
radio, strategy, app and forwarding onto GridBounds, RadioConfig,
StrategyParams, AppConfig and ForwardingParams, each torrent onto TorrentSpec
and each node onto NodeSpec. An object has one key per field, of that field's
type; node and torrent ids are read from "id". A key left out keeps its default.
The one top-level key stored in a section is max_hops, the ForwardingParams
cap on retransmission chains. Unknown keys are rejected anywhere in the
document so typos fail loudly instead of silently running defaults. All
durations and delays are integer microseconds.

Only torrents and nodes are required:

    torrents    [{id, n_pieces, piece_bytes}], n_pieces at most MAX_PIECES
    nodes       [{id, kind, torrent, position, mobility}], at most MAX_NODES

node.kind is one of seeder, leecher, pure_forwarder; seeders and leechers
name a declared torrent, pure forwarders must not. node.position is [x, y]
or "random"; node.mobility is static or random_walk.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import partial

from .app import AppConfig
from .forwarding import ForwardingParams
from .mobility import GridBounds, RadioConfig
from .strategies import StrategyParams


class ScenarioError(Exception):
    """Base for configuration problems; the CLI maps these to exit code 2."""


class ParseError(ScenarioError):
    """Unreadable JSON."""


class ValidationError(ScenarioError):
    """Well-formed JSON violating the schema or an invariant."""


class TooFewNodes(ScenarioError):
    """Random field needs at least five nodes."""


class NodeKind(Enum):
    SEEDER = "seeder"
    LEECHER = "leecher"
    PURE_FORWARDER = "pure_forwarder"


class MobilityKind(Enum):
    STATIC = "static"
    RANDOM_WALK = "random_walk"


DEFAULT_N_PIECES = 32
# A bitmap announce carries n_pieces/4 hex digits in one name, and a peer holds
# its bitmaps as integers of n_pieces bits; this bounds both.
MAX_PIECES = 1 << 16
# A walking sender has the other n-1 nodes as candidates, though it skips most
# until a due time, and the flooding grows faster than n: a 60-node random
# field (seed 4) runs for 7-11 s and peaks near 28 MiB through the CLI
# (CPython 3.11, 2-core VM).
MAX_NODES = 1024
DEFAULT_PIECE_BYTES = 1024
DEFAULT_DURATION_US = 120_000_000
RANDOM_FIELD_DURATION_US = 600_000_000


@dataclass(frozen=True)
class TorrentSpec:
    torrent_id: str
    n_pieces: int = DEFAULT_N_PIECES
    piece_bytes: int = DEFAULT_PIECE_BYTES


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    kind: NodeKind
    torrent: str | None = None
    position: tuple[float, float] | None = None  # None means uniform random
    mobility: MobilityKind = MobilityKind.STATIC


@dataclass(frozen=True)
class ScenarioConfig:
    nodes: tuple[NodeSpec, ...]
    torrents: tuple[TorrentSpec, ...]
    grid: GridBounds = GridBounds(300.0, 300.0)
    radio: RadioConfig = RadioConfig(60.0, 500, 0.0)
    duration_us: int = DEFAULT_DURATION_US
    strategy: StrategyParams = StrategyParams()
    app: AppConfig = AppConfig()
    forwarding: ForwardingParams = ForwardingParams()
    collision_mode: bool = False
    position_sample_interval_us: int = 1_000_000

    def __post_init__(self) -> None:
        # builders, the loader and callers pass lists; hold tuples, so that the
        # copies replace() makes share nothing mutable
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "torrents", tuple(self.torrents))
        validate(self)  # looked up as a module global, so a tracer can wrap it

    def leechers(self) -> dict[str, str]:
        return {n.node_id: n.torrent for n in self.nodes if n.kind is NodeKind.LEECHER}

    def seeders_of(self, torrent_id: str) -> list[str]:
        return [n.node_id for n in self.nodes
                if n.kind is NodeKind.SEEDER and n.torrent == torrent_id]


def _check_id(kind: str, text: str) -> None:
    # csv.writer refuses NUL before CPython 3.11, and a run encodes ids as UTF-8,
    # which has no lone surrogate: encoding with "replace" turns one into "?"
    if not text or "/" in text or "\0" in text or text.encode(errors="replace").decode() != text:
        raise ValidationError(f"bad {kind} id {text!r}")
    # csv.writer leaves a lone carriage return unquoted before CPython 3.13, and
    # a reader then splits the trace row there
    if "\r" in text.replace("\r\n", ""):
        raise ValidationError(f"{kind} id {text!r} holds a carriage return not followed by "
                              "a newline")


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check cross-field invariants; raises ValidationError naming the violation."""
    if cfg.duration_us < 0:
        raise ValidationError("duration_us must be non-negative")
    if cfg.position_sample_interval_us <= 0:
        raise ValidationError("position_sample_interval_us must be positive")
    for side in (cfg.grid.width, cfg.grid.height):
        if not (math.isfinite(side) and side > 0):
            raise ValidationError("grid dimensions must be positive and finite")
    if not (math.isfinite(cfg.radio.range_m) and cfg.radio.range_m > 0):
        raise ValidationError("radio range must be positive and finite")
    if cfg.radio.one_hop_delay_us <= 0:
        raise ValidationError("one_hop_delay_us must be positive")
    if not 0.0 <= cfg.radio.loss_prob <= 1.0:
        raise ValidationError("loss_prob must be within [0, 1]")
    if cfg.forwarding.pit_lifetime_us <= 0:
        raise ValidationError("pit_lifetime_us must be positive")
    if cfg.forwarding.data_response_delay_us < 0:
        raise ValidationError("data_response_delay_us must be non-negative")
    if cfg.forwarding.max_hops < 1:
        raise ValidationError("max_hops must be at least 1")
    if not 0.0 <= cfg.strategy.p_forward <= 1.0:
        raise ValidationError("p_forward must be within [0, 1]")
    if not 0 <= cfg.strategy.jitter_min_us <= cfg.strategy.jitter_max_us:
        raise ValidationError("jitter bounds must satisfy 0 <= min <= max")
    if cfg.strategy.t_mem_us <= 0:
        raise ValidationError("t_mem_us must be positive")
    if cfg.app.beacon_interval_us <= 0:
        raise ValidationError("beacon_interval_us must be positive")
    if cfg.app.pipeline_window < 1:
        raise ValidationError("pipeline_window must be at least 1")
    if cfg.app.interest_retry_timeout_us <= 0:
        raise ValidationError("interest_retry_timeout_us must be positive")
    if cfg.app.max_retries is not None and cfg.app.max_retries < 0:
        raise ValidationError("max_retries must be non-negative or null")
    if cfg.app.bitmap_min_gap_us < 0:
        raise ValidationError("bitmap_min_gap_us must be non-negative")

    torrent_ids = [t.torrent_id for t in cfg.torrents]
    if len(set(torrent_ids)) != len(torrent_ids):
        raise ValidationError("torrent ids must be unique")
    for torrent in cfg.torrents:
        _check_id("torrent", torrent.torrent_id)
        if torrent.torrent_id == "beacon":
            raise ValidationError("'beacon' is a reserved name component")
        if not 1 <= torrent.n_pieces <= MAX_PIECES:
            raise ValidationError(f"n_pieces must be within [1, {MAX_PIECES}]")
        if torrent.piece_bytes < 0:
            raise ValidationError("piece_bytes must be non-negative")

    if len(cfg.nodes) > MAX_NODES:
        raise ValidationError(f"at most {MAX_NODES} nodes are supported, got {len(cfg.nodes)}")
    node_ids = [n.node_id for n in cfg.nodes]
    if len(set(node_ids)) != len(node_ids):
        raise ValidationError("node ids must be unique")
    declared = set(torrent_ids)
    for node in cfg.nodes:
        _check_id("node", node.node_id)
        if node.kind is NodeKind.PURE_FORWARDER:
            if node.torrent is not None:
                raise ValidationError(f"pure forwarder {node.node_id} must not name a torrent")
        else:
            if node.torrent is None:
                raise ValidationError(f"{node.kind.value} {node.node_id} must name a torrent")
            if node.torrent not in declared:
                raise ValidationError(
                    f"node {node.node_id} references undeclared torrent {node.torrent!r}")
        if node.position is not None:
            x, y = node.position
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValidationError(f"node {node.node_id} position must be finite")
            if not (0.0 <= x <= cfg.grid.width and 0.0 <= y <= cfg.grid.height):
                raise ValidationError(f"node {node.node_id} position outside the grid")
    return cfg


# ---------------------------------------------------------------------------
# JSON loading

def _int_field(value: object, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{context} must be an integer")
    return value


def _bool_field(value: object, context: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{context} must be true or false")
    return value


def _num_field(value: object, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{context} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{context} must be a number within float range") from None


def _str_field(value: object, context: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{context} must be a string")
    return value


def _enum_field(kind: type[Enum], value: object, context: str) -> Enum:
    try:
        return kind(value)
    except ValueError:
        raise ValidationError(f"{context} must be one of {[k.value for k in kind]}") from None


def _position_field(value: object, context: str) -> tuple[float, float] | None:
    if value == "random":
        return None
    if not (isinstance(value, list) and len(value) == 2):
        raise ValidationError(f"{context} must be [x, y] or \"random\"")
    return _num_field(value[0], f"{context}[0]"), _num_field(value[1], f"{context}[1]")


def _list_field(cls: type, value: object, context: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{context} must be a list")
    return [_read(cls, item, f"{context}[{i}]") for i, item in enumerate(value)]


# Config fields are read by their annotations, which stay strings because every
# config module postpones the evaluation of annotations. A section, a field
# whose default is a config dataclass, is read by _read itself.
_READERS = {
    "int": _int_field, "float": _num_field, "bool": _bool_field, "str": _str_field,
    "int | None": lambda value, context: None if value is None else _int_field(value, context),
    "str | None": lambda value, context: None if value is None else _str_field(value, context),
    "NodeKind": partial(_enum_field, NodeKind),
    "MobilityKind": partial(_enum_field, MobilityKind),
    "tuple[float, float] | None": _position_field,
    "tuple[NodeSpec, ...]": partial(_list_field, NodeSpec),
    "tuple[TorrentSpec, ...]": partial(_list_field, TorrentSpec),
}
_SCHEMAS: dict[type, dict[str, tuple]] = {}  # each class's schema, made on first use


def _schema(cls: type) -> dict[str, tuple]:
    """key -> (field name, reader, default) for each key of cls's JSON object, in field order."""
    schema = {}
    for f in fields(cls):
        # a section's keys left out keep ScenarioConfig's default section, since
        # GridBounds and RadioConfig have no field defaults
        read = (partial(_read, type(f.default), base=f.default) if is_dataclass(f.default)
                else _READERS[f.type])
        schema["id" if f.name in ("node_id", "torrent_id") else f.name] = (f.name, read, f.default)
    if cls is ForwardingParams:  # a file holds max_hops at its top level
        del schema["max_hops"]
    elif cls is ScenarioConfig:
        schema["max_hops"] = ("max_hops", _int_field, ForwardingParams.max_hops)
    return schema


def _read(cls: type, obj: object, context: str, base: object = None) -> object:
    """Read the JSON object obj into dataclass cls, each key by the reader of its
    field's annotation. A key left out keeps its value in base, else the field's
    default; a field with neither is required, and null counts as missing."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{context} must be an object")
    schema = _SCHEMAS.get(cls) or _SCHEMAS.setdefault(cls, _schema(cls))
    unknown = obj.keys() - schema.keys()
    if unknown:
        raise ValidationError(f"unknown key {sorted(unknown)[0]!r} in {context}")
    prefix = "" if cls is ScenarioConfig else f"{context}."
    values = {}
    for key, (name, read, default) in schema.items():
        value = obj.get(key)
        kept = default if base is None else getattr(base, name)
        if value is not None or key in obj and kept is not MISSING:
            values[name] = read(value, prefix + key)
        elif kept is MISSING:
            raise ValidationError(f"missing required key {key!r} in {context}")
        else:
            values[name] = kept
    if cls is ScenarioConfig:
        max_hops = values.pop("max_hops")
        if values["forwarding"].max_hops != max_hops:
            values["forwarding"] = replace(values["forwarding"], max_hops=max_hops)
    return cls(**values)


def scenario_from_json(obj: object) -> ScenarioConfig:
    """Build a ScenarioConfig, which checks itself, from a decoded JSON object."""
    if not isinstance(obj, dict):
        raise ValidationError("scenario document must be a JSON object")
    return _read(ScenarioConfig, obj, "scenario")


def load_scenario(path: str) -> ScenarioConfig:
    """Load and validate a scenario file; ParseError/ValidationError on bad input."""
    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):  # json.loads would keep the last of equal keys
            keys = [key for key, _ in pairs]
            raise ParseError(f"{path}: repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8: {exc}") from None
    try:
        obj = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"{path}: nesting too deep") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ParseError(f"{path}: {exc}") from None
    return scenario_from_json(obj)


# ---------------------------------------------------------------------------
# canned builders

def build_five_node(p_forward: float = 1.0) -> ScenarioConfig:
    """Static five-node line, 50 m spacing, two torrents crossing in the middle.

    n0 seeds movie1 wanted by n2; n4 seeds movie2 wanted by n1; n3 is a pure
    forwarder sitting on the only n1-to-n4 path.
    """
    kinds = [
        (NodeKind.SEEDER, "movie1"),
        (NodeKind.LEECHER, "movie2"),
        (NodeKind.LEECHER, "movie1"),
        (NodeKind.PURE_FORWARDER, None),
        (NodeKind.SEEDER, "movie2"),
    ]
    nodes = [
        NodeSpec(node_id=f"n{i}", kind=kind, torrent=torrent,
                 position=(50.0 + 50.0 * i, 150.0), mobility=MobilityKind.STATIC)
        for i, (kind, torrent) in enumerate(kinds)
    ]
    return ScenarioConfig(
        nodes=nodes,
        torrents=[TorrentSpec("movie1"), TorrentSpec("movie2")],
        strategy=StrategyParams(p_forward=p_forward),
    )


def build_random_field(n_nodes: int, seed: int) -> ScenarioConfig:
    """Mobile field: one seeder per torrent, a third leeching each, rest forwarders.

    The seed shuffles which node index gets which role; placement and motion
    come from the run's master seed.
    """
    if n_nodes < 5:
        raise TooFewNodes(f"random field needs at least 5 nodes, got {n_nodes}")
    if n_nodes > MAX_NODES:
        raise ValidationError(f"at most {MAX_NODES} nodes are supported, got {n_nodes}")
    per_torrent = n_nodes // 3
    roles: list[tuple[NodeKind, str | None]] = [
        (NodeKind.SEEDER, "movie1"),
        (NodeKind.SEEDER, "movie2"),
    ]
    roles += [(NodeKind.LEECHER, "movie1")] * per_torrent
    roles += [(NodeKind.LEECHER, "movie2")] * per_torrent
    roles += [(NodeKind.PURE_FORWARDER, None)] * (n_nodes - len(roles))
    random.Random(seed).shuffle(roles)
    nodes = [
        NodeSpec(node_id=f"n{i}", kind=kind, torrent=torrent,
                 position=None, mobility=MobilityKind.RANDOM_WALK)
        for i, (kind, torrent) in enumerate(roles)
    ]
    return ScenarioConfig(
        nodes=nodes,
        torrents=[TorrentSpec("movie1"), TorrentSpec("movie2")],
        duration_us=RANDOM_FIELD_DURATION_US,
    )


def with_p_forward(cfg: ScenarioConfig, p_forward: float) -> ScenarioConfig:
    """Copy of cfg with the pure-forwarding probability replaced."""
    return replace(cfg, strategy=replace(cfg.strategy, p_forward=p_forward))
