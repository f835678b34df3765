"""Closed-form reachability verdicts against hand-analysable topologies."""
from dataclasses import replace

import pytest

from ntorrent_sim.app import AppConfig
from ntorrent_sim.mobility import RadioConfig
from ntorrent_sim.oracle import OracleUnsupported, reachability_oracle
from ntorrent_sim.scenario import (
    MobilityKind,
    NodeKind,
    NodeSpec,
    ScenarioConfig,
    StrategyParams,
    TorrentSpec,
    validate,
)


def line_cfg(kinds, p_forward=1.0, spacing=50.0, loss=0.0, keep_seeding=True):
    """Nodes on a horizontal line, 50 m apart, 60 m radio range."""
    nodes = []
    for i, (kind, torrent) in enumerate(kinds):
        nodes.append(NodeSpec(f"n{i}", kind, torrent,
                              (10.0 + spacing * i, 10.0), MobilityKind.STATIC))
    return validate(ScenarioConfig(
        nodes=nodes,
        torrents=[TorrentSpec("movie1"), TorrentSpec("movie2")],
        radio=RadioConfig(60.0, 500, loss),
        strategy=StrategyParams(p_forward=p_forward),
        app=AppConfig(keep_seeding=keep_seeding),
    ))


S1 = (NodeKind.SEEDER, "movie1")
L1 = (NodeKind.LEECHER, "movie1")
L2 = (NodeKind.LEECHER, "movie2")
PF = (NodeKind.PURE_FORWARDER, None)


def test_forwarder_bridge_depends_on_p():
    assert reachability_oracle(line_cfg([S1, PF, L1], p_forward=1.0)) == {"n2": True}
    assert reachability_oracle(line_cfg([S1, PF, L1], p_forward=0.0)) == {"n2": False}


def test_adjacent_leecher_needs_no_relay():
    assert reachability_oracle(line_cfg([S1, L1], p_forward=0.0)) == {"n1": True}


def test_peers_of_any_torrent_relay():
    # the interior node leeches a different torrent, still counts as a relay
    assert reachability_oracle(line_cfg([S1, L2, L1], p_forward=0.0)) == {
        "n1": False,  # movie2 has no seeder anywhere
        "n2": True,
    }


def test_seeders_relay_too():
    kinds = [S1, (NodeKind.SEEDER, "movie2"), L1]
    assert reachability_oracle(line_cfg(kinds, p_forward=0.0)) == {"n2": True}


def test_verdicts_are_per_torrent():
    # a movie2 leecher next to a movie1 seeder gains nothing from it
    kinds = [S1, L2]
    assert reachability_oracle(line_cfg(kinds, p_forward=1.0)) == {"n1": False}


def test_blocked_vertex_is_not_a_detour():
    # two p=0 forwarders in parallel do not help; the long way around does
    cfg = validate(ScenarioConfig(
        nodes=[
            NodeSpec("s", NodeKind.SEEDER, "movie1", (0.0, 50.0)),
            NodeSpec("f", NodeKind.PURE_FORWARDER, None, (50.0, 50.0)),
            NodeSpec("l", NodeKind.LEECHER, "movie1", (100.0, 50.0)),
            NodeSpec("c", NodeKind.LEECHER, "movie2", (50.0, 90.0)),
        ],
        torrents=[TorrentSpec("movie1"), TorrentSpec("movie2")],
        radio=RadioConfig(65.0, 500, 0.0),
        strategy=StrategyParams(p_forward=0.0),
        app=AppConfig(keep_seeding=True),
    ))
    verdicts = reachability_oracle(cfg)
    # s-c and c-l are both about 64 m, inside range: the movie2 peer carries it
    assert verdicts["l"] is True


def test_unsupported_configurations():
    with pytest.raises(OracleUnsupported, match="p_forward"):
        reachability_oracle(line_cfg([S1, PF, L1], p_forward=0.5))
    with pytest.raises(OracleUnsupported, match="loss"):
        reachability_oracle(line_cfg([S1, PF, L1], loss=0.1))
    line = line_cfg([S1, L1])
    mobile = replace(line, nodes=(line.nodes[0], NodeSpec(
        "n1", NodeKind.LEECHER, "movie1", (60.0, 10.0), MobilityKind.RANDOM_WALK)))
    with pytest.raises(OracleUnsupported, match="statically"):
        reachability_oracle(mobile)
    unplaced = replace(line, nodes=(line.nodes[0], NodeSpec(
        "n1", NodeKind.LEECHER, "movie1", None, MobilityKind.STATIC)))
    with pytest.raises(OracleUnsupported, match="statically"):
        reachability_oracle(unplaced)


def test_peers_that_stop_seeding_are_refused():
    # a finished leecher would fall silent, so the graph verdict could not hold
    with pytest.raises(OracleUnsupported, match="keep_seeding"):
        reachability_oracle(line_cfg([S1, PF, L1], keep_seeding=False))
