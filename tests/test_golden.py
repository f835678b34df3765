"""Frozen output digests: a run must not change unless its behaviour does.

Each case runs through the command line and compares the SHA-256 of the three
output files with a digest frozen from an earlier commit. A refactor or a
speed-up must leave every digest unchanged. Only re-freeze a digest together
with a CHANGES.md entry that explains the change in behaviour.

The collision case pins today's collision-mode behaviour, including its known
defect: on the five-node line every data packet collides, so no piece is ever
delivered.
"""
import hashlib
import json
import random

import pytest

from ntorrent_sim import trace as tc
from ntorrent_sim.cli import EXIT_OK, main
from ntorrent_sim.trace import read_trace_csv

OUTPUTS = ("trace.csv", "metrics.csv", "positions.csv")


def five_node_document(collision_mode):
    """The built-in five-node line as a scenario file."""
    kinds = [("seeder", "movie1"), ("leecher", "movie2"), ("leecher", "movie1"),
             ("pure_forwarder", None), ("seeder", "movie2")]
    nodes = []
    for i, (kind, torrent) in enumerate(kinds):
        node = {"id": f"n{i}", "kind": kind, "position": [50.0 + 50.0 * i, 150.0]}
        if torrent is not None:
            node["torrent"] = torrent
        nodes.append(node)
    return {"torrents": [{"id": "movie1"}, {"id": "movie2"}], "nodes": nodes,
            "collision_mode": collision_mode}


def static_layout_document(index):
    """Layout `index` of acceptance criterion 4, as a scenario file."""
    rng = random.Random(1000 + index)
    roles = [("seeder", "movie1"), ("seeder", "movie2"),
             ("leecher", "movie1"), ("leecher", "movie1"),
             ("leecher", "movie2"), ("leecher", "movie2"),
             ("pure_forwarder", None), ("pure_forwarder", None),
             ("pure_forwarder", None), ("pure_forwarder", None)]
    rng.shuffle(roles)
    nodes = []
    for i, (kind, torrent) in enumerate(roles):
        position = [round(rng.uniform(0.0, 200.0), 3), round(rng.uniform(0.0, 200.0), 3)]
        node = {"id": f"n{i}", "kind": kind, "position": position}
        if torrent is not None:
            node["torrent"] = torrent
        nodes.append(node)
    return {"grid": {"width": 200.0, "height": 200.0}, "duration_us": 240_000_000,
            "torrents": [{"id": "movie1"}, {"id": "movie2"}], "nodes": nodes,
            "strategy": {"p_forward": float(index % 2)}, "app": {"keep_seeding": True}}


def readme_example_document():
    """The README's example scenario (static seeder and forwarder, walking
    leecher) with 10% radio loss; every other value is the default it shows."""
    return {"radio": {"loss_prob": 0.1},
            "torrents": [{"id": "movie1", "n_pieces": 32, "piece_bytes": 1024}],
            "nodes": [
                {"id": "s", "kind": "seeder", "torrent": "movie1", "position": [50.0, 150.0]},
                {"id": "f", "kind": "pure_forwarder", "position": [100.0, 150.0]},
                {"id": "l", "kind": "leecher", "torrent": "movie1", "position": "random",
                 "mobility": "random_walk"},
            ]}


def walls_document():
    """Two walkers that start on the walls of a small grid, one of them in a
    corner, and a static forwarder on a wall."""
    return {"grid": {"width": 100.0, "height": 100.0}, "duration_us": 30_000_000,
            "torrents": [{"id": "movie1", "n_pieces": 8}],
            "nodes": [
                {"id": "s", "kind": "seeder", "torrent": "movie1", "position": [0.0, 0.0],
                 "mobility": "random_walk"},
                {"id": "f", "kind": "pure_forwarder", "position": [50.0, 100.0]},
                {"id": "l", "kind": "leecher", "torrent": "movie1", "position": [100.0, 37.5],
                 "mobility": "random_walk"},
            ]}


def csv_hostile_document():
    """A relay scenario whose ids need CSV quoting: the torrent id holds a
    comma, a quote and a newline, and the node ids hold a quote, a CRLF, a
    newline and a comma. No id holds a lone carriage return, which csv.writer
    quotes only from CPython 3.13 on."""
    torrent = 'mo,"vie\n1'
    return {"duration_us": 20_000_000,
            "torrents": [{"id": torrent, "n_pieces": 4}],
            "nodes": [
                {"id": 's"1', "kind": "seeder", "torrent": torrent, "position": [50.0, 150.0]},
                {"id": "f\r\n2", "kind": "pure_forwarder", "position": [100.0, 150.0]},
                {"id": "l\n3", "kind": "leecher", "torrent": torrent, "position": [150.0, 150.0]},
                {"id": "x,4", "kind": "pure_forwarder", "position": [100.0, 100.0]},
            ]}


def cache_and_retry_cap_document():
    """Two torrents on a lossy static mesh with the overheard-data cache on and
    one retry per piece. The pure forwarder f and the movie2 leecher c cache
    movie1 data they overhear and answer later requests from their stores, and
    pieces that hit the retry cap are abandoned and requested again."""
    return {"duration_us": 30_000_000,
            "radio": {"loss_prob": 0.2},
            "forwarding": {"cache_overheard_data": True},
            "app": {"max_retries": 1},
            "torrents": [{"id": "movie1", "n_pieces": 16}, {"id": "movie2", "n_pieces": 8}],
            "nodes": [
                {"id": "s", "kind": "seeder", "torrent": "movie1", "position": [50.0, 150.0]},
                {"id": "a", "kind": "leecher", "torrent": "movie1", "position": [100.0, 150.0]},
                {"id": "b", "kind": "leecher", "torrent": "movie1", "position": [100.0, 110.0]},
                {"id": "f", "kind": "pure_forwarder", "position": [150.0, 150.0]},
                {"id": "m", "kind": "seeder", "torrent": "movie2", "position": [150.0, 110.0]},
                {"id": "c", "kind": "leecher", "torrent": "movie2", "position": [200.0, 150.0]},
            ]}


def _scenario_argv(tmp_path, document, seed):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return ["run", "--scenario", str(path), "--seed", str(seed)]


# case id -> (argv builder, {output file: sha256})
FIVE_NODE_POSITIONS = "488c6c8a2fbd130414be65ca4252a94bdf0260a1003ad1695f2e7c33571efb1d"
CASES = {
    "five-node-seed1": (
        lambda tmp: ["five-node", "--seed", "1"],
        {"trace.csv": "f1aa57c08ac283602ec712cb8ba7c27a758e6d0e1970ea150861a0a2441ffa2d",
         "metrics.csv": "a662ec4028b7e91f654efd5a72a831b5adef83073e34b0df19889afcf9bd3712",
         "positions.csv": FIVE_NODE_POSITIONS},
    ),
    "five-node-seed3": (
        lambda tmp: ["five-node", "--seed", "3"],
        {"trace.csv": "d18f4062ccace622dbdc9286b5672693734de85f8a03db87d8dbc3dbd1ff34c3",
         "metrics.csv": "9ea426cf1351cefeb8edb26878c4b673e60f521d7efcb83dd11a205976835613",
         "positions.csv": FIVE_NODE_POSITIONS},
    ),
    "five-node-collision-seed1": (
        lambda tmp: _scenario_argv(tmp, five_node_document(collision_mode=True), 1),
        {"trace.csv": "402541dbca00c352dd3259bf7fd6925e171d0b36a1cacc51fac79e988e29573c",
         "metrics.csv": "ada507d6476966262bf2721462d0e27f6e404bf9cf681f56c3af31d7da8ebcd2",
         "positions.csv": FIVE_NODE_POSITIONS},
    ),
    "random-field-n12-seed4": (
        lambda tmp: ["random-field", "--nodes", "12", "--seed", "4"],
        {"trace.csv": "15d987758b07ab381528bf6042700c1bddbc91f6bbd146ffd0b287af547e1607",
         "metrics.csv": "a5d24724414d02c8ac893240380029a2b128e5c98a17baa3353b89177108f42d",
         "positions.csv": "dec4708c08ce6ddf4154656b2a9dfc2c3cc90faad6bb6bf143afd017e0d6c518"},
    ),
    # thirty walkers: most pairs are far apart most of the time, so the radio
    # skips and accepts many candidates without their exact positions
    "random-field-n30-seed4": (
        lambda tmp: ["random-field", "--nodes", "30", "--seed", "4"],
        {"trace.csv": "1414bc1400982bf698a44883990bca45b6e697372a64259d5fbbbd1e305beae3",
         "metrics.csv": "afb7a35a08ba7230371ed0970ae8e2ec943ac5584b039d446a389bb2b63c4309",
         "positions.csv": "ea498b717ae9503194438580d37c01cdab7182fc7b32958f82b81a088a23e173"},
    ),
    # criterion 4 runs layout i with master seed i
    "static-layout0-seed0": (
        lambda tmp: _scenario_argv(tmp, static_layout_document(0), 0),
        {"trace.csv": "f9f605b2f74ad1786fd43327e701ab9bba996d09b9560b2e9e45e93d8579f4ce",
         "metrics.csv": "87b7e278c13d3c1e4777760675095677f697c6cbc4c2dc4b59c0f18b3d83924c",
         "positions.csv": "3cb81330a501d495c546a05c28378b7cd2bc70274947e5d65b70dfefe22a93a8"},
    ),
    "walkers-on-walls-seed1": (
        lambda tmp: _scenario_argv(tmp, walls_document(), 1),
        {"trace.csv": "76665614a7e9ed5021112d8f598e8055022ff5936cf6ff69116ac13c037b88c0",
         "metrics.csv": "e2e9860528a7f3c41ebb64c6b4fd61550bc63e2397526f96dd7dd8c2ee906e7c",
         "positions.csv": "f56bb38558f6bd6d4494272049f2b09c15112d0ba06b0c433d39c8a9114c3d9a"},
    ),
    # mixed static and walking nodes on a lossy radio: the walker is in range of the static pair from
    # about 92 s to 94 s
    "readme-example-loss0.1-seed3": (
        lambda tmp: _scenario_argv(tmp, readme_example_document(), 3),
        {"trace.csv": "1a99cb6bd84867edbfcce8883ac715464fb94596c535d132aa94d3cd2e4dbffc",
         "metrics.csv": "349f257e8dddb3689b24678fcd673d023f093694bf5fabf966e81940a06e96d9",
         "positions.csv": "f88a4538362aa7584047d0bbb7d5d3a44584089ea8ccfe1d33d6f86fc00e35c8"},
    ),
    "csv-hostile-ids-seed1": (
        lambda tmp: _scenario_argv(tmp, csv_hostile_document(), 1),
        {"trace.csv": "b9841632bc574d9e0cabd944946bb35961eded47f21cf684fa9bf5133d9c35eb",
         "metrics.csv": "e1f26b896fe32771c2600ff30cc7a3c67b7a0bc09d77f05dfeeb7b9d1931bc4b",
         "positions.csv": "d841dfbc131b4f6a83bf5416caa0f894eeb5056f63c71b1f3ef6da5768c98087"},
    ),
    "cache-and-retry-cap-seed1": (
        lambda tmp: _scenario_argv(tmp, cache_and_retry_cap_document(), 1),
        {"trace.csv": "fc5e676dc16d73a62d0e62de96f014be5b9a74bf58c7025a3ad15451ad6fb0c6",
         "metrics.csv": "b4f53c92f7dbb2b9cba841e3d3fb7799eac607ad47f300f60727ffe48deb383c",
         "positions.csv": "ac7e1114167cc2ab678b0ae527ce4a2aceaad2744e24d3ef335dfbe57cd19d76"},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digests_are_frozen(case, tmp_path, capsys):
    build_argv, expected = CASES[case]
    out = tmp_path / "out"
    assert main(build_argv(tmp_path) + ["--out", str(out)]) == EXIT_OK
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}
    assert got == expected, f"{case}: outputs changed"


def test_cache_and_retry_cap_case_covers_both_paths(tmp_path, capsys):
    # the digests above only guard these paths while the run still takes them
    out = tmp_path / "out"
    argv = _scenario_argv(tmp_path, cache_and_retry_cap_document(), 1)
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    rows = read_trace_csv(out / "trace.csv")
    assert any(r.node == "f" and r.event == tc.SATISFY for r in rows)
    assert any(r.event == tc.PIECE_REQ and r.detail.endswith(";retry=1") for r in rows)
