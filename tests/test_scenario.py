"""Scenario schema, validation errors, file loading, and the canned builders."""
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from ntorrent_sim.mobility import GridBounds, RadioConfig
from ntorrent_sim.scenario import (
    MAX_NODES,
    MobilityKind,
    NodeKind,
    NodeSpec,
    ParseError,
    ScenarioConfig,
    StrategyParams,
    TooFewNodes,
    TorrentSpec,
    ValidationError,
    build_five_node,
    build_random_field,
    load_scenario,
    scenario_from_json,
    validate,
    with_p_forward,
)

MINIMAL = {
    "torrents": [{"id": "movie1"}],
    "nodes": [
        {"id": "s", "kind": "seeder", "torrent": "movie1", "position": [0, 0]},
        {"id": "l", "kind": "leecher", "torrent": "movie1", "position": [10, 10]},
    ],
}


def doc(**overrides):
    merged = json.loads(json.dumps(MINIMAL))
    merged.update(overrides)
    return merged


def test_minimal_document_gets_all_defaults():
    cfg = scenario_from_json(doc())
    assert cfg.duration_us == 120_000_000
    assert cfg.grid == GridBounds(300.0, 300.0)
    assert cfg.radio.range_m == 60.0
    assert cfg.radio.one_hop_delay_us == 500
    assert cfg.radio.loss_prob == 0.0
    assert cfg.strategy.p_forward == 1.0
    assert cfg.strategy.jitter_min_us == 2_000
    assert cfg.strategy.jitter_max_us == 10_000
    assert cfg.strategy.t_mem_us == 30_000_000
    assert cfg.app.beacon_interval_us == 2_000_000
    assert cfg.app.pipeline_window == 4
    assert cfg.app.interest_retry_timeout_us == 1_000_000
    assert cfg.app.max_retries is None
    assert cfg.app.bitmap_min_gap_us == 500_000
    assert cfg.app.keep_seeding is False
    assert cfg.forwarding.pit_lifetime_us == 2_000_000
    assert cfg.forwarding.data_response_delay_us == 1_000
    assert cfg.forwarding.max_hops == 64
    assert cfg.collision_mode is False
    assert cfg.position_sample_interval_us == 1_000_000
    assert cfg.torrents[0] == TorrentSpec("movie1", 32, 1024)
    assert cfg.nodes[1].mobility is MobilityKind.STATIC


def test_readme_example_shows_the_defaults():
    # README.md: "All values shown above are the defaults."
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Scenario files", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    shown = json.loads(block)
    loaded = scenario_from_json(shown)
    minimal = scenario_from_json({"torrents": shown["torrents"], "nodes": shown["nodes"]})
    keys = [f.name for f in fields(ScenarioConfig) if f.name not in ("torrents", "nodes")]
    assert sorted(shown) == sorted(keys + ["max_hops", "torrents", "nodes"])
    for key in keys:
        assert getattr(loaded, key) == getattr(minimal, key), key


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ValidationError, match="unknown key 'surprise' in scenario"):
        scenario_from_json(doc(surprise=1))
    with pytest.raises(ValidationError, match="unknown key 'speed' in strategy"):
        scenario_from_json(doc(strategy={"speed": 2}))
    with pytest.raises(ValidationError, match=r"unknown key 'colour' in nodes\[0\]"):
        bad = doc()
        bad["nodes"][0]["colour"] = "red"
        scenario_from_json(bad)


def test_required_keys_and_types():
    with pytest.raises(ValidationError, match="missing required key 'torrents'"):
        scenario_from_json({"nodes": MINIMAL["nodes"]})
    with pytest.raises(ValidationError, match="missing required key 'nodes'"):
        scenario_from_json({"torrents": MINIMAL["torrents"]})
    with pytest.raises(ValidationError, match="duration_us must be an integer"):
        scenario_from_json(doc(duration_us=1.5))
    # booleans are not integers here, even though Python thinks so
    with pytest.raises(ValidationError, match="duration_us must be an integer"):
        scenario_from_json(doc(duration_us=True))
    with pytest.raises(ValidationError, match="must be a JSON object"):
        scenario_from_json([1, 2])


def test_node_field_validation():
    bad = doc()
    bad["nodes"][0]["kind"] = "router"
    with pytest.raises(ValidationError, match=r"nodes\[0\].kind must be one of"):
        scenario_from_json(bad)
    bad = doc()
    bad["nodes"][1]["mobility"] = "teleport"
    with pytest.raises(ValidationError, match=r"nodes\[1\].mobility must be one of"):
        scenario_from_json(bad)
    bad = doc()
    bad["nodes"][1]["position"] = [1, 2, 3]
    with pytest.raises(ValidationError, match=r"position must be \[x, y\]"):
        scenario_from_json(bad)
    good = doc()
    good["nodes"][1]["position"] = "random"
    assert scenario_from_json(good).nodes[1].position is None


def base_cfg(**kwargs):
    params = dict(
        nodes=[NodeSpec("s", NodeKind.SEEDER, "movie1", (0.0, 0.0)),
               NodeSpec("l", NodeKind.LEECHER, "movie1", (10.0, 10.0))],
        torrents=[TorrentSpec("movie1")],
    )
    params.update(kwargs)
    return ScenarioConfig(**params)


def adding(**items):
    """A copy of the config with each item appended to the tuple field it names."""
    return lambda c: replace(c, **{key: getattr(c, key) + (item,) for key, item in items.items()})


@pytest.mark.parametrize("mutate,message", [
    (adding(nodes=NodeSpec("s", NodeKind.LEECHER, "movie1", (1.0, 1.0))),
     "node ids must be unique"),
    (adding(torrents=TorrentSpec("movie1")),
     "torrent ids must be unique"),
    (adding(nodes=NodeSpec("p", NodeKind.PURE_FORWARDER, "movie1", (1.0, 1.0))),
     "must not name a torrent"),
    (adding(nodes=NodeSpec("x", NodeKind.LEECHER, None, (1.0, 1.0))),
     "must name a torrent"),
    (adding(nodes=NodeSpec("x", NodeKind.LEECHER, "movie9", (1.0, 1.0))),
     "undeclared torrent"),
    (adding(nodes=NodeSpec("x", NodeKind.LEECHER, "movie1", (999.0, 0.0))),
     "outside the grid"),
])
def test_cross_field_validation(mutate, message):
    with pytest.raises(ValidationError, match=message):
        validate(mutate(base_cfg()))


def test_reserved_torrent_name_rejected():
    with pytest.raises(ValidationError, match="reserved"):
        base_cfg(torrents=[TorrentSpec("movie1"), TorrentSpec("beacon")])


@pytest.mark.parametrize("bad", ["n\r1", "n1\r"])
def test_ids_with_a_lone_carriage_return_rejected(bad):
    # csv.writer leaves a lone CR unquoted before CPython 3.13, so the trace
    # row could not be read back
    nodes = (NodeSpec(bad, NodeKind.SEEDER, "movie1", (0.0, 0.0)),
             NodeSpec("l", NodeKind.LEECHER, "movie1", (10.0, 10.0)))
    with pytest.raises(ValidationError, match="node id .* carriage return"):
        validate(base_cfg(nodes=nodes))
    nodes = (NodeSpec("s", NodeKind.SEEDER, bad, (0.0, 0.0)),
             NodeSpec("l", NodeKind.LEECHER, bad, (10.0, 10.0)))
    with pytest.raises(ValidationError, match="torrent id .* carriage return"):
        validate(base_cfg(nodes=nodes, torrents=(TorrentSpec(bad),)))


@pytest.mark.parametrize("bad", ["s\x00", "\x00", "\ud800", "s\udfff1"],
                         ids=["nul-inside", "nul", "surrogate", "surrogate-inside"])
def test_ids_that_a_run_cannot_write_rejected(bad):
    # csv.writer refuses NUL before CPython 3.11, and a run encodes each id as
    # UTF-8, which a lone surrogate cannot be
    nodes = (NodeSpec(bad, NodeKind.SEEDER, "movie1", (0.0, 0.0)),
             NodeSpec("l", NodeKind.LEECHER, "movie1", (10.0, 10.0)))
    with pytest.raises(ValidationError, match="bad node id"):
        validate(base_cfg(nodes=nodes))
    nodes = (NodeSpec("s", NodeKind.SEEDER, bad, (0.0, 0.0)),
             NodeSpec("l", NodeKind.LEECHER, bad, (10.0, 10.0)))
    with pytest.raises(ValidationError, match="bad torrent id"):
        validate(base_cfg(nodes=nodes, torrents=(TorrentSpec(bad),)))


def test_ids_with_a_crlf_accepted():
    nodes = (NodeSpec("s", NodeKind.SEEDER, "f\r\n2", (0.0, 0.0)),
             NodeSpec("f\r\n2", NodeKind.LEECHER, "f\r\n2", (10.0, 10.0)))
    cfg = base_cfg(nodes=nodes, torrents=(TorrentSpec("f\r\n2"),))
    assert validate(cfg) is cfg


def test_probability_and_duration_bounds():
    with pytest.raises(ValidationError, match=r"p_forward must be within \[0, 1\]"):
        validate(base_cfg(strategy=StrategyParams(p_forward=1.1)))
    with pytest.raises(ValidationError, match="duration_us must be non-negative"):
        validate(base_cfg(duration_us=-1))
    with pytest.raises(ValidationError, match="jitter bounds"):
        validate(base_cfg(strategy=StrategyParams(jitter_min_us=10, jitter_max_us=5)))


@pytest.mark.parametrize("change,message", [
    ({"position_sample_interval_us": 0}, "position_sample_interval_us must be positive"),
    ({"duration_us": -5}, "duration_us must be non-negative"),
    ({"radio": RadioConfig(60.0, 500, 1.5)}, r"loss_prob must be within \[0, 1\]"),
], ids=["sample-interval", "duration", "loss"])
def test_a_replace_copy_is_checked_as_it_is_made(change, message):
    # unchecked, the first copy makes a run that never ends and the others run out of range
    with pytest.raises(ValidationError, match=f"^{message}$"):
        replace(build_five_node(), **change)


def test_load_scenario_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "torrents": [,]\n}\n', encoding="utf-8")
    with pytest.raises(ParseError, match="line 2 column 16"):
        load_scenario(str(path))


@pytest.mark.parametrize("section,key,literal", [
    ("radio", "range_m", "NaN"),
    ("radio", "range_m", "Infinity"),
    ("radio", "range_m", "-Infinity"),
    ("grid", "width", "Infinity"),
    ("grid", "height", "Infinity"),
])
def test_non_finite_radio_and_grid_values_rejected(tmp_path, section, key, literal):
    # Python's json module accepts these literals, so the loader must refuse them
    text = json.dumps(doc(**{section: {key: 1.0}})).replace("1.0", literal)
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError, match="finite"):
        load_scenario(str(path))


@pytest.mark.parametrize("text,key", [
    ('{"duration_us": 1000000, ' + json.dumps(MINIMAL)[1:-1] + ', "duration_us": 2000000}',
     "duration_us"),
    (json.dumps(doc(radio={"range_m": 60.0})).replace('"range_m": 60.0',
                                                      '"range_m": 60.0, "range_m": 90.0'),
     "range_m"),
    (json.dumps(MINIMAL).replace('"kind": "leecher"', '"kind": "leecher", "kind": "seeder"'),
     "kind"),
], ids=["top-level", "section", "node"])
def test_a_repeated_key_is_refused_naming_the_file_and_key(tmp_path, text, key):
    # json keeps the last of two equal keys, which silently picked another run
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}: repeated key '{key}'")):
        load_scenario(str(path))


def test_load_scenario_round_trips_a_valid_file(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(doc(duration_us=5_000_000)), encoding="utf-8")
    cfg = load_scenario(str(path))
    assert cfg.duration_us == 5_000_000
    assert [n.node_id for n in cfg.nodes] == ["s", "l"]


# -- builders -------------------------------------------------------------------

def test_five_node_line_layout():
    cfg = build_five_node()
    assert [n.node_id for n in cfg.nodes] == ["n0", "n1", "n2", "n3", "n4"]
    assert [n.kind for n in cfg.nodes] == [
        NodeKind.SEEDER, NodeKind.LEECHER, NodeKind.LEECHER,
        NodeKind.PURE_FORWARDER, NodeKind.SEEDER,
    ]
    assert [n.torrent for n in cfg.nodes] == ["movie1", "movie2", "movie1",
                                              None, "movie2"]
    xs = [n.position[0] for n in cfg.nodes]
    assert xs == [50.0, 100.0, 150.0, 200.0, 250.0]
    assert all(n.position[1] == 150.0 for n in cfg.nodes)
    assert all(n.mobility is MobilityKind.STATIC for n in cfg.nodes)
    assert cfg.strategy.p_forward == 1.0
    assert build_five_node(p_forward=0.25).strategy.p_forward == 0.25


def role_counts(cfg):
    counts = {"seeder": 0, "leecher_movie1": 0, "leecher_movie2": 0, "forwarder": 0}
    for node in cfg.nodes:
        if node.kind is NodeKind.SEEDER:
            counts["seeder"] += 1
        elif node.kind is NodeKind.PURE_FORWARDER:
            counts["forwarder"] += 1
        else:
            counts[f"leecher_{node.torrent}"] += 1
    return counts


@pytest.mark.parametrize("n,leech,forwarders", [
    (5, 1, 1),
    (9, 3, 1),
    (12, 4, 2),
    (16, 5, 4),
])
def test_random_field_role_formula(n, leech, forwarders):
    cfg = build_random_field(n, seed=3)
    counts = role_counts(cfg)
    assert counts["seeder"] == 2
    assert counts["leecher_movie1"] == counts["leecher_movie2"] == leech == n // 3
    assert counts["forwarder"] == forwarders == n - 2 * (n // 3) - 2
    assert len(cfg.nodes) == n
    assert cfg.duration_us == 600_000_000
    assert all(n.mobility is MobilityKind.RANDOM_WALK for n in cfg.nodes)
    assert all(n.position is None for n in cfg.nodes)


def test_random_field_shuffle_is_seeded():
    a = build_random_field(10, seed=1)
    b = build_random_field(10, seed=1)
    c = build_random_field(10, seed=2)
    role = lambda cfg: [(n.kind, n.torrent) for n in cfg.nodes]
    assert role(a) == role(b)
    assert role(a) != role(c)


def test_random_field_minimum_size():
    with pytest.raises(TooFewNodes):
        build_random_field(4, seed=1)


def test_node_count_is_bounded():
    assert len(build_random_field(MAX_NODES, seed=1).nodes) == MAX_NODES
    with pytest.raises(ValidationError, match="at most 1024 nodes"):
        build_random_field(MAX_NODES + 1, seed=1)
    static = [NodeSpec(f"f{i}", NodeKind.PURE_FORWARDER, position=(0.0, 0.0))
              for i in range(MAX_NODES + 1)]
    validate(ScenarioConfig(nodes=static[:-1], torrents=[]))
    with pytest.raises(ValidationError, match="at most 1024 nodes"):
        validate(ScenarioConfig(nodes=static, torrents=[]))


def test_with_p_forward_copies():
    cfg = build_five_node(p_forward=1.0)
    varied = with_p_forward(cfg, 0.5)
    assert varied.strategy.p_forward == 0.5
    assert cfg.strategy.p_forward == 1.0
    assert varied.nodes == cfg.nodes
    assert varied.strategy.jitter_max_us == cfg.strategy.jitter_max_us
    with pytest.raises(ValidationError):
        with_p_forward(cfg, -0.1)
