"""Scenario configuration: JSON schema, validation, and canned builders.

A scenario file is one JSON object. Unknown keys are rejected anywhere in the
document so typos fail loudly instead of silently running defaults. All
durations and delays are integer microseconds.

Only torrents and nodes are required:

    torrents    [{id, n_pieces, piece_bytes}], n_pieces at most MAX_PIECES
    nodes       [{id, kind, torrent, position, mobility}], at most MAX_NODES

Every other top-level key is a field of ScenarioConfig, read with that
field's default and type: the scalars duration_us, collision_mode and
position_sample_interval_us, and the section objects grid (GridBounds), radio
(RadioConfig), strategy (StrategyParams), app (AppConfig) and forwarding
(ForwardingParams). A section's keys, defaults and types are the fields of its
dataclass. The one top-level key stored in a section is max_hops, the
ForwardingParams cap on retransmission chains.

node.kind is one of seeder, leecher, pure_forwarder; seeders and leechers
name a declared torrent, pure forwarders must not. node.position is [x, y]
or "random"; node.mobility is static or random_walk.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum

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
# Every walking sender scans the other n-1 nodes per transmission, and the
# flooding grows faster than n: a 60-node field already runs for about 45 s.
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

    def leechers(self) -> dict[str, str]:
        return {n.node_id: n.torrent for n in self.nodes if n.kind is NodeKind.LEECHER}

    def seeders_of(self, torrent_id: str) -> list[str]:
        return [n.node_id for n in self.nodes
                if n.kind is NodeKind.SEEDER and n.torrent == torrent_id]


def _check_id(kind: str, text: str) -> None:
    if not text or "/" in text:
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

def _take(obj: object, context: str, allowed: dict[str, object]) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{context} must be an object")
    unknown = obj.keys() - allowed.keys()
    if unknown:
        raise ValidationError(f"unknown key {sorted(unknown)[0]!r} in {context}")
    return {**allowed, **obj}


def _require(obj: dict, context: str, key: str) -> object:
    if key not in obj or obj[key] is None:
        raise ValidationError(f"missing required key {key!r} in {context}")
    return obj[key]


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


# Config fields are read by their annotations, which stay strings because every
# config module postpones the evaluation of annotations.
_READERS = {
    "int": _int_field, "float": _num_field, "bool": _bool_field,
    "int | None": lambda value, context: None if value is None else _int_field(value, context),
}
# ForwardingParams.max_hops is the one section field written at the top level.
_TOP_LEVEL_FIELDS = {"max_hops": "forwarding"}
_DEFAULTS = ScenarioConfig(nodes=(), torrents=())


def _section_schema(name: str) -> tuple[type, dict[str, object], tuple]:
    """A section's dataclass, its in-section defaults, and (key, reader, context) per field."""
    default = getattr(_DEFAULTS, name)
    reads = tuple((f.name, _READERS[f.type],
                   f.name if f.name in _TOP_LEVEL_FIELDS else f"{name}.{f.name}")
                  for f in fields(default))
    return type(default), {key: getattr(default, key) for key, _, at in reads if at != key}, reads


_SECTIONS = {f.name: _section_schema(f.name) for f in fields(ScenarioConfig)
             if is_dataclass(getattr(_DEFAULTS, f.name))}
_SCALARS = tuple((f.name, _READERS[f.type]) for f in fields(ScenarioConfig) if f.type in _READERS)
_TOP_DEFAULTS = {"torrents": None, "nodes": None, **{name: {} for name in _SECTIONS},
                 **{name: getattr(_DEFAULTS, name) for name, _ in _SCALARS},
                 **{key: getattr(getattr(_DEFAULTS, section), key)
                    for key, section in _TOP_LEVEL_FIELDS.items()}}


def _section_from_json(top: dict, name: str) -> object:
    """Section name of the merged document, read into its dataclass."""
    cls, defaults, reads = _SECTIONS[name]
    section = _take(top[name], name, defaults)
    return cls(**{key: read(section[key] if key in defaults else top[key], context)
                  for key, read, context in reads})


_NODE_DEFAULTS = {"id": None, "kind": None, "torrent": None, "position": "random",
                  "mobility": "static"}


def _node_from_json(obj: object, index: int) -> NodeSpec:
    context = f"nodes[{index}]"
    merged = _take(obj, context, _NODE_DEFAULTS)
    node_id = _require(merged, context, "id")
    if not isinstance(node_id, str):
        raise ValidationError(f"{context}.id must be a string")
    kind_text = _require(merged, context, "kind")
    try:
        kind = NodeKind(kind_text)
    except ValueError:
        raise ValidationError(f"{context}.kind must be one of "
                              f"{[k.value for k in NodeKind]}") from None
    try:
        mobility = MobilityKind(merged["mobility"])
    except ValueError:
        raise ValidationError(f"{context}.mobility must be one of "
                              f"{[m.value for m in MobilityKind]}") from None
    position = merged["position"]
    if position == "random":
        parsed_position = None
    elif (isinstance(position, list) and len(position) == 2):
        parsed_position = (_num_field(position[0], f"{context}.position[0]"),
                           _num_field(position[1], f"{context}.position[1]"))
    else:
        raise ValidationError(f"{context}.position must be [x, y] or \"random\"")
    torrent = merged["torrent"]
    if torrent is not None and not isinstance(torrent, str):
        raise ValidationError(f"{context}.torrent must be a string")
    return NodeSpec(node_id=node_id, kind=kind, torrent=torrent,
                    position=parsed_position, mobility=mobility)


def scenario_from_json(obj: object) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a decoded JSON object."""
    if not isinstance(obj, dict):
        raise ValidationError("scenario document must be a JSON object")
    merged = _take(obj, "scenario", _TOP_DEFAULTS)
    sections = {name: _section_from_json(merged, name) for name in _SECTIONS}

    torrents_obj = _require(merged, "scenario", "torrents")
    if not isinstance(torrents_obj, list):
        raise ValidationError("torrents must be a list")
    torrents = []
    for i, item in enumerate(torrents_obj):
        context = f"torrents[{i}]"
        titem = _take(item, context, {
            "id": None, "n_pieces": DEFAULT_N_PIECES, "piece_bytes": DEFAULT_PIECE_BYTES})
        torrent_id = _require(titem, context, "id")
        if not isinstance(torrent_id, str):
            raise ValidationError(f"{context}.id must be a string")
        torrents.append(TorrentSpec(
            torrent_id=torrent_id,
            n_pieces=_int_field(titem["n_pieces"], f"{context}.n_pieces"),
            piece_bytes=_int_field(titem["piece_bytes"], f"{context}.piece_bytes"),
        ))

    nodes_obj = _require(merged, "scenario", "nodes")
    if not isinstance(nodes_obj, list):
        raise ValidationError("nodes must be a list")
    nodes = [_node_from_json(item, i) for i, item in enumerate(nodes_obj)]
    scalars = {name: read(merged[name], name) for name, read in _SCALARS}
    return validate(ScenarioConfig(nodes=nodes, torrents=torrents, **sections, **scalars))


def load_scenario(path: str) -> ScenarioConfig:
    """Load and validate a scenario file; ParseError/ValidationError on bad input."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"{path}: nesting too deep") from None
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
    cfg = ScenarioConfig(
        nodes=nodes,
        torrents=[TorrentSpec("movie1"), TorrentSpec("movie2")],
        strategy=StrategyParams(p_forward=p_forward),
    )
    return validate(cfg)


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
    cfg = ScenarioConfig(
        nodes=nodes,
        torrents=[TorrentSpec("movie1"), TorrentSpec("movie2")],
        duration_us=RANDOM_FIELD_DURATION_US,
    )
    return validate(cfg)


def with_p_forward(cfg: ScenarioConfig, p_forward: float) -> ScenarioConfig:
    """Copy of cfg with the pure-forwarding probability replaced."""
    return validate(replace(cfg, strategy=replace(cfg.strategy, p_forward=p_forward)))
