"""Closed-form reachability verdicts for static, lossless scenarios.

With fixed positions, no loss, and the forwarding probability pinned to 0 or
1, whether a leecher can ever finish is a graph question: there must be a
unit-disk path to a seeder of its torrent whose interior vertices relay.
Always-on pure forwarders relay; p=0 pure forwarders never do; peers of any
torrent relay eventually (foreign names unlock after repeated interests, and
same-torrent peers fetch then serve).

The verdict matches the simulator only when the interest stream the graph
argument relies on actually persists.  Peers must keep beaconing after they
complete (app.keep_seeding true), and the oracle refuses scenarios where they
do not: a finished leecher falls silent, and a neighbour that depended on its
beacons for bitmap discovery can strand even though a relay path exists.  The
run must also outlast the convergence horizon: with default timing (2 s
beacons, 30 s name memory) a 10-node field converges in a few seconds, and
240 s leaves two orders of margin.  No threshold is defined for it, so this
one is not checked.
"""
from __future__ import annotations

from collections import deque

from .mobility import Position, in_range
from .scenario import MobilityKind, NodeKind, ScenarioConfig


class OracleUnsupported(Exception):
    """Scenario outside the oracle's closed-form domain."""


def reachability_oracle(cfg: ScenarioConfig) -> dict[str, bool]:
    """Per-leecher verdict: can it ever complete its torrent."""
    if cfg.radio.loss_prob != 0.0:
        raise OracleUnsupported("oracle requires loss_prob 0")
    if cfg.strategy.p_forward not in (0.0, 1.0):
        raise OracleUnsupported("oracle requires p_forward 0 or 1")
    if not cfg.app.keep_seeding:
        raise OracleUnsupported("oracle requires app.keep_seeding true")
    for node in cfg.nodes:
        if node.mobility is not MobilityKind.STATIC or node.position is None:
            raise OracleUnsupported(f"node {node.node_id} is not statically placed")

    positions = {n.node_id: n.position for n in cfg.nodes}
    ids = [n.node_id for n in cfg.nodes]
    kinds = {n.node_id: n.kind for n in cfg.nodes}
    adjacency: dict[str, list[str]] = {nid: [] for nid in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            ax, ay = positions[a]
            bx, by = positions[b]
            if in_range(Position(ax, ay), Position(bx, by), cfg.radio):
                adjacency[a].append(b)
                adjacency[b].append(a)

    def relays(node_id: str) -> bool:
        if kinds[node_id] is NodeKind.PURE_FORWARDER:
            return cfg.strategy.p_forward == 1.0
        return True

    verdicts: dict[str, bool] = {}
    for node in cfg.nodes:
        if node.kind is not NodeKind.LEECHER:
            continue
        targets = set(cfg.seeders_of(node.torrent))
        reachable = False
        visited = {node.node_id}
        queue = deque([node.node_id])
        while queue and not reachable:
            current = queue.popleft()
            for neighbour in adjacency[current]:
                if neighbour in targets:
                    reachable = True
                    break
                if neighbour not in visited and relays(neighbour):
                    visited.add(neighbour)
                    queue.append(neighbour)
        verdicts[node.node_id] = reachable
    return verdicts
