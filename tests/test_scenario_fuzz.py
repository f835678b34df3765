"""Fuzzing the scenario loader: any JSON in, a config or a ScenarioError out."""
import copy
import json
import os
import tempfile
from dataclasses import fields, is_dataclass, replace
from enum import Enum

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ntorrent_sim.scenario import (
    MAX_PIECES,
    MobilityKind,
    NodeKind,
    NodeSpec,
    ScenarioConfig,
    ScenarioError,
    TorrentSpec,
    ValidationError,
    scenario_from_json,
    validate,
)
from ntorrent_sim.trace import write_metrics_csv, write_positions_csv, write_trace_csv
from ntorrent_sim.world import World

# A valid document that writes every key, so every key can be mutated. Only
# the seeder has a fixed position, at the grid's corner, so any positive grid
# size keeps the document valid.
BASE = {
    "duration_us": 120000000,
    "grid": {"width": 300.0, "height": 300.0},
    "radio": {"range_m": 60.0, "one_hop_delay_us": 500, "loss_prob": 0.0},
    "strategy": {"p_forward": 1.0, "jitter_min_us": 2000, "jitter_max_us": 10000,
                 "t_mem_us": 30000000},
    "app": {"beacon_interval_us": 2000000, "pipeline_window": 4,
            "interest_retry_timeout_us": 1000000, "max_retries": None,
            "bitmap_min_gap_us": 500000, "keep_seeding": False},
    "forwarding": {"pit_lifetime_us": 2000000, "data_response_delay_us": 1000,
                   "cache_overheard_data": False},
    "max_hops": 64,
    "collision_mode": False,
    "position_sample_interval_us": 1000000,
    "torrents": [{"id": "movie1", "n_pieces": 4, "piece_bytes": 1024}],
    "nodes": [
        {"id": "s", "kind": "seeder", "torrent": "movie1", "position": [0.0, 0.0],
         "mobility": "static"},
        {"id": "f", "kind": "pure_forwarder", "position": "random"},
        {"id": "l", "kind": "leecher", "torrent": "movie1", "position": "random",
         "mobility": "random_walk"},
    ],
}

FLOAT_MAX_INT = 2 ** 1024  # the least integer float() cannot represent

numbers = st.one_of(
    st.integers(),
    st.integers(min_value=FLOAT_MAX_INT),
    st.integers(max_value=-FLOAT_MAX_INT),
    st.floats(allow_nan=True, allow_infinity=True),
)
# words of the schema, so mutations also reach past the type checks
words = st.text(max_size=6) | st.sampled_from([
    "random", "static", "random_walk", "seeder", "leecher", "pure_forwarder", "movie1", "s"])
json_values = st.one_of(
    st.none(),
    st.booleans(),
    numbers,
    words,
    st.recursive(st.none() | st.booleans() | numbers | words,
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                 max_leaves=6),
)


def _like(value):
    """Values of value's JSON type, so that a mutated document often still loads."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, (int, float)):
        return numbers
    if isinstance(value, str):
        return words
    return json_values


def _paths(value, prefix=()):
    """Every key or index path inside value, parents before children."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def documents(draw):
    doc = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            parent[draw(st.text(min_size=1, max_size=6))] = draw(json_values)
        else:
            parent[path[-1]] = draw(_like(parent[path[-1]]) | json_values)
    return doc


# A run's events grow as 1/interval of its beacon, retry and position-sample
# timers: at 1 us a 1 s run of three nodes takes minutes. Finer timers are
# loaded and checked, but not run.
MIN_RUN_INTERVAL_US = 1_000


def _cheap_to_run(cfg) -> bool:
    return (len(cfg.nodes) <= 6 and all(t.n_pieces <= 64 for t in cfg.torrents)
            and min(cfg.app.beacon_interval_us, cfg.app.interest_retry_timeout_us,
                    cfg.position_sample_interval_us) >= MIN_RUN_INTERVAL_US)


def _base_with(section, key, value):
    doc = copy.deepcopy(BASE)
    doc[section][key] = value
    return doc


def _renamed(ids):
    """BASE with each id in ids renamed, wherever a node or torrent names it."""
    doc = copy.deepcopy(BASE)
    for item in doc["torrents"] + doc["nodes"]:
        for key in ("id", "torrent"):
            if item.get(key) in ids:
                item[key] = ids[item[key]]
    return doc


@given(documents())
@example(_base_with("radio", "range_m", 10 ** 400))  # float() of it overflows
# a radio wait in µs across such a grid overflows to infinity
@example(_base_with("grid", "width", 1e303))
@example(_base_with("grid", "width", 1.7e308))
# csv.writer refuses NUL before CPython 3.11 when a row needs quoting
@example(_renamed({"s": "s\x00", "l": "l,1"}))
# a run encodes each id as UTF-8, which a lone surrogate cannot be
@example(_renamed({"s": "\ud800"}))
@example(_renamed({"movie1": "\ud800"}))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_loader_accepts_or_raises_scenario_error(doc):
    try:
        cfg = scenario_from_json(doc)
    except ScenarioError:
        return
    if _cheap_to_run(cfg):
        world = World(replace(cfg, duration_us=1_000_000), 0)
        world.run()
        with tempfile.TemporaryDirectory() as out:
            write_trace_csv(os.path.join(out, "trace.csv"), world.trace)
            write_metrics_csv(os.path.join(out, "metrics.csv"), world.metrics())
            write_positions_csv(os.path.join(out, "positions.csv"), world.trace)


# Values of each config field type, as a caller of replace() may pass them;
# the annotations are strings, since the config modules postpone them.
_VALUES = {"int": st.integers(), "float": st.floats(), "bool": st.booleans(),
           "int | None": st.none() | st.integers()}
_DEFAULTS = ScenarioConfig(nodes=(), torrents=())


@st.composite
def field_changes(draw):
    """cfg -> a replace() copy of cfg, with one scalar field or one field of a
    section given a generated value."""
    name, kind = draw(st.sampled_from([(f.name, f.type) for f in fields(ScenarioConfig)
                                       if f.name not in ("nodes", "torrents")]))
    if kind in _VALUES:
        value = draw(_VALUES[kind])
        return lambda cfg: replace(cfg, **{name: value})
    key, kind = draw(st.sampled_from([(f.name, f.type) for f in fields(getattr(_DEFAULTS, name))]))
    value = draw(_VALUES[kind])
    return lambda cfg: replace(cfg, **{name: replace(getattr(cfg, name), **{key: value})})


@given(documents(), field_changes())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_replace_copy_of_a_loaded_config_is_a_checked_config(doc, change):
    try:
        cfg = scenario_from_json(doc)
    except ScenarioError:
        cfg = scenario_from_json(BASE)
    try:
        varied = change(cfg)
    except ValidationError:
        return
    assert validate(varied) is varied
    if _cheap_to_run(varied):
        horizon = min(varied.duration_us, 1_000_000)
        world = World(replace(varied, duration_us=horizon), 0)
        world.run()
        assert world.loop.now_us == horizon


# -- every field of every object reads back -------------------------------------------

# values every config field of the type may hold: positive, and at most 1 for a
# float (a probability); positions are drawn inside the least grid side
_VALID = {"int": st.integers(1, 2 ** 53), "float": st.floats(1e-3, 1.0), "bool": st.booleans(),
          "int | None": st.none() | st.integers(0, 2 ** 53)}
ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/\0\r"),
              min_size=1, max_size=6)


@st.composite
def configs(draw):
    """A valid ScenarioConfig with every field of every section drawn, and among
    its nodes every NodeKind, every MobilityKind and both position forms."""
    torrents = [TorrentSpec(torrent_id, draw(st.integers(1, MAX_PIECES)), draw(st.integers(0)))
                for torrent_id in draw(st.lists(ids.filter(lambda text: text != "beacon"),
                                                min_size=1, max_size=3, unique=True))]
    nodes = []
    for i, node_id in enumerate(draw(st.lists(ids, min_size=4, max_size=8, unique=True))):
        kind = list(NodeKind)[i % len(NodeKind)]
        torrent = (None if kind is NodeKind.PURE_FORWARDER
                   else draw(st.sampled_from(torrents)).torrent_id)
        position = None if i & 2 else draw(st.tuples(st.floats(0.0, 1e-3), st.floats(0.0, 1e-3)))
        nodes.append(NodeSpec(node_id, kind, torrent, position, list(MobilityKind)[i & 1]))
    drawn = {}
    for f in fields(ScenarioConfig):
        default = getattr(ScenarioConfig, f.name, None)
        if is_dataclass(default):
            drawn[f.name] = type(default)(**{g.name: draw(_VALID[g.type]) for g in fields(default)})
        elif f.type in _VALID:
            drawn[f.name] = draw(_VALID[f.type])
    strategy = drawn["strategy"]
    low, high = sorted((strategy.jitter_min_us, strategy.jitter_max_us))
    drawn["strategy"] = replace(strategy, jitter_min_us=low, jitter_max_us=high)
    return ScenarioConfig(nodes=nodes, torrents=torrents, **drawn)


def written(item):
    """A config dataclass as a scenario file writes it: one key per field, ids
    under "id", enums by value and a position of None as "random"."""
    obj = {}
    for f in fields(item):
        value = getattr(item, f.name)
        if is_dataclass(value):
            value = written(value)
        elif isinstance(value, tuple):  # the nodes, the torrents or a position
            value = [written(v) if is_dataclass(v) else v for v in value]
        elif isinstance(value, Enum):
            value = value.value
        elif value is None and f.name == "position":
            value = "random"
        obj["id" if f.name in ("node_id", "torrent_id") else f.name] = value
    return obj


@given(configs())
@settings(max_examples=100, deadline=None)
def test_every_field_of_every_object_reads_back(cfg):
    doc = written(cfg)
    doc["max_hops"] = doc["forwarding"].pop("max_hops")  # the one section key at the top
    assert scenario_from_json(json.loads(json.dumps(doc))) == cfg
