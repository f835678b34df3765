"""Probabilistic forwarding and the overheard-name relay gate."""
import random

import pytest
from hypothesis import given, strategies as st

from ntorrent_sim import trace as tc
from ntorrent_sim.names import Bitmap, Interest, bitmap_announce_name, beacon_name, parse_name, piece_name
from ntorrent_sim.scenario import ScenarioConfig, ValidationError, validate
from ntorrent_sim.strategies import (
    OverheardNameTable,
    StrategyParams,
    peer_decide,
    pure_decide,
)

T_MEM = 30_000_000


def interest_for(name, nonce=1):
    return Interest(name, nonce=nonce, origin="origin")


def pure_cfg(p):
    return StrategyParams(p_forward=p, jitter_min_us=2_000, jitter_max_us=10_000)


PEER = StrategyParams(t_mem_us=T_MEM, jitter_min_us=2_000, jitter_max_us=10_000)


def test_config_validation():
    # strategy settings are checked once, by scenario.validate
    def check(params):
        return validate(ScenarioConfig(nodes=[], torrents=[], strategy=params))

    check(StrategyParams(p_forward=0.5, jitter_min_us=10, jitter_max_us=10))
    for bad in (StrategyParams(p_forward=1.5, jitter_min_us=0, jitter_max_us=10),
                StrategyParams(p_forward=0.5, jitter_min_us=10, jitter_max_us=5),
                StrategyParams(t_mem_us=0, jitter_min_us=0, jitter_max_us=10),
                StrategyParams(t_mem_us=T_MEM, jitter_min_us=-1, jitter_max_us=10)):
        with pytest.raises(ValidationError):
            check(bad)


def test_pure_degenerate_probabilities():
    rng = random.Random(1)
    for _ in range(200):
        reason, delay = pure_decide(pure_cfg(1.0), rng)
        assert reason == tc.REASON_PROB_FWD
        assert 2_000 <= delay <= 10_000
    for _ in range(200):
        assert pure_decide(pure_cfg(0.0), rng) == (tc.REASON_PROB_DROP, None)


def test_pure_half_probability_monte_carlo():
    rng = random.Random(2024)
    forwarded = 0
    for _ in range(100_000):
        _, delay = pure_decide(pure_cfg(0.5), rng)
        if delay is not None:
            forwarded += 1
            assert 2_000 <= delay <= 10_000
    assert 49_000 <= forwarded <= 51_000


def test_pure_decide_replays_identically():
    runs = []
    for _ in range(2):
        rng = random.Random(77)
        runs.append([pure_decide(pure_cfg(0.3), rng) for _ in range(50)])
    assert runs[0] == runs[1]


# -- peer strategy ----------------------------------------------------------------

def test_first_foreign_interest_learns_and_drops():
    table = OverheardNameTable()
    pkt = interest_for(piece_name("movie1", 0))
    assert peer_decide(PEER, "movie2", table, pkt, 5_000_000, random.Random(1)) == (
        tc.REASON_FOREIGN_LEARN, None)
    # remembered for exactly t_mem from this hearing
    assert table.live("movie1", 5_000_000 + T_MEM - 1)
    assert not table.live("movie1", 5_000_000 + T_MEM)


def test_second_foreign_interest_within_memory_forwards():
    table = OverheardNameTable()
    rng = random.Random(1)
    own = "movie2"
    peer_decide(PEER, own, table, interest_for(piece_name("movie1", 0)), 5_000_000, rng)
    reason, delay = peer_decide(PEER, own, table, interest_for(piece_name("movie1", 1)),
                                6_000_000, rng)
    assert 2_000 <= delay <= 10_000
    assert reason == tc.REASON_FOREIGN_FWD
    # forwarding refreshes the memory from the later hearing
    assert table.live("movie1", 6_000_000 + T_MEM - 1)
    assert not table.live("movie1", 6_000_000 + T_MEM)


def test_memory_expiry_boundary_relearns():
    table = OverheardNameTable()
    rng = random.Random(1)
    own = "movie2"
    peer_decide(PEER, own, table, interest_for(piece_name("movie1", 0)), 5_000_000, rng)
    # at exactly expiry the entry is treated as absent
    assert peer_decide(PEER, own, table, interest_for(piece_name("movie1", 1)),
                       5_000_000 + T_MEM, rng) == (tc.REASON_FOREIGN_LEARN, None)
    # one microsecond earlier it would still forward
    table2 = OverheardNameTable()
    peer_decide(PEER, own, table2, interest_for(piece_name("movie1", 0)), 5_000_000, rng)
    reason, delay = peer_decide(PEER, own, table2, interest_for(piece_name("movie1", 1)),
                                5_000_000 + T_MEM - 1, rng)
    assert reason == tc.REASON_FOREIGN_FWD and delay is not None


def test_beacons_and_own_torrent_reach_the_app():
    table = OverheardNameTable()
    rng = random.Random(1)
    own = "movie2"
    for name in (
        beacon_name("n9"),
        piece_name("movie2", 4),
        bitmap_announce_name("movie2", "n3", Bitmap(8, 0x11)),
    ):
        assert peer_decide(PEER, own, table, interest_for(name), 0, rng) == (
            tc.REASON_OWN_APP, None)
    # own traffic never populates the foreign memory: a gc past every expiry finds nothing
    assert table.gc(1 << 62) == 0


def test_foreign_bitmap_announce_uses_the_foreign_gate():
    table = OverheardNameTable()
    rng = random.Random(1)
    own = "movie2"
    announce = interest_for(bitmap_announce_name("movie1", "n3", Bitmap(8, 0x11)))
    assert peer_decide(PEER, own, table, announce, 0, rng) == (tc.REASON_FOREIGN_LEARN, None)
    reason, delay = peer_decide(PEER, own, table, announce, 1_000, rng)
    assert reason == tc.REASON_FOREIGN_FWD and delay is not None


def test_unknown_names_drop():
    assert peer_decide(PEER, "movie2", OverheardNameTable(),
                       interest_for(parse_name("/x/y")), 0, random.Random(1)) == (
        tc.REASON_UNKNOWN_DROP, None)


@given(st.lists(st.tuples(st.sampled_from(["movieA", "movieB", "movieC"]),
                          st.integers(1, 1_000_000)),
                min_size=1, max_size=40))
def test_learn_then_forward_over_interleavings(steps):
    """Whatever the interleaving, a gap under t_mem forwards, over it relearns."""
    table = OverheardNameTable()
    own = "movie2"
    rng = random.Random(9)
    now = 0
    last_heard = {}
    for torrent, gap in steps:
        now += gap
        _, delay = peer_decide(PEER, own, table, interest_for(piece_name(torrent, 0)),
                               now, rng)
        heard_at = last_heard.get(torrent)
        should_forward = heard_at is not None and now < heard_at + T_MEM
        assert (delay is not None) == should_forward
        last_heard[torrent] = now


def test_table_gc_counts_and_boundary():
    table = OverheardNameTable()
    table.touch("a", 0, 10_000_000)
    table.touch("b", 0, 20_000_000)
    assert table.gc(5_000_000) == 0
    assert table.gc(10_000_000) == 1  # expiry exactly at now is stale
    assert not table.live("a", 0) and table.live("b", 0)
    assert table.gc(30_000_000) == 1
    assert not table.live("b", 0)
