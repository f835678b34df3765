"""Peer application: beacons, bitmap exchange, pipeline, retries, completion."""
import random
from itertools import product

import pytest

from ntorrent_sim import trace as tc
from ntorrent_sim.app import (
    TIMER_BEACON,
    TIMER_RETRY,
    AppConfig,
    LengthMismatch,
    PeerApp,
    compute_missing,
)
from ntorrent_sim.forwarding import EmitData, Note, OriginateInterest, StartTimer
from ntorrent_sim.names import Bitmap, BitmapAnnounce, PieceInterest


def make_app(seeder=False, n_pieces=8, cfg=None, node_id="n1", torrent="movie1"):
    cfg = cfg or AppConfig()
    have = Bitmap(n_pieces)
    return PeerApp(node_id=node_id, torrent=torrent, n_pieces=n_pieces,
                   seeder=seeder, cfg=cfg, have=have,
                   data_response_delay_us=1_000)


def rng(seed=3):
    return random.Random(seed)


def originated(effects):
    return [e.packet for e in effects if isinstance(e, OriginateInterest)]


def test_compute_missing_matches_bit_scan():
    # exhaustive over every pair of 4-piece inventories
    for mine_bits, theirs_bits in product(range(16), range(16)):
        mine, theirs = Bitmap(4, mine_bits), Bitmap(4, theirs_bits)
        want = [i for i in range(4)
                if theirs_bits >> i & 1 and not mine_bits >> i & 1]
        assert compute_missing(mine, theirs) == want


def test_compute_missing_rejects_length_mismatch():
    with pytest.raises(LengthMismatch):
        compute_missing(Bitmap(4), Bitmap(8))
    with pytest.raises(LengthMismatch):
        PeerApp("n1", "movie1", 8, False, AppConfig(), Bitmap(4), 1_000)


def test_seeder_starts_complete():
    app = make_app(seeder=True)
    assert app.completed
    assert app.state.have.popcount() == 8
    assert app.state.completed_at_us == 0


def test_start_timers():
    app = make_app()
    effects = app.start(rng())
    tags = [(e.tag, e.delay_us) for e in effects if isinstance(e, StartTimer)]
    assert [t for t, _ in tags] == [TIMER_BEACON, TIMER_RETRY]
    beacon_delay = tags[0][1]
    assert 1 <= beacon_delay <= AppConfig().beacon_interval_us // 10
    assert tags[1][1] == AppConfig().interest_retry_timeout_us

    seeder_tags = [e.tag for e in make_app(seeder=True).start(rng())
                   if isinstance(e, StartTimer)]
    assert seeder_tags == [TIMER_BEACON]


def test_beacon_timer_emits_and_reschedules():
    app = make_app()
    effects = app.on_beacon_timer(1_000_000, rng())
    assert effects[0] == Note(tc.BEACON_TX, "/ntorrent/beacon/n1")
    pkt = originated(effects)[0]
    assert str(pkt.name) == "/ntorrent/beacon/n1"
    assert pkt.origin == "n1"
    timer = effects[-1]
    assert isinstance(timer, StartTimer) and timer.tag == TIMER_BEACON
    interval = AppConfig().beacon_interval_us
    assert interval - interval // 10 <= timer.delay_us <= interval + interval // 10


def test_completed_leecher_goes_quiet_unless_kept_seeding():
    app = make_app(n_pieces=2)
    app.state.known_remote.bits = 0b11
    app.on_receive_piece(0, 10, rng())
    app.on_receive_piece(1, 20, rng())
    assert app.completed
    assert app.on_beacon_timer(2_000_000, rng()) == []

    kept = make_app(n_pieces=2, cfg=AppConfig(keep_seeding=True))
    kept.state.have.bits = 0b11
    assert kept.on_beacon_timer(2_000_000, rng()) != []
    # seeders always keep announcing themselves
    assert make_app(seeder=True).on_beacon_timer(2_000_000, rng()) != []


def test_beacon_reply_is_rate_limited_per_remote():
    app = make_app(seeder=True)
    first = app.on_receive_beacon("n2", 1_000, rng())
    assert any(isinstance(e, Note) and e.code == tc.BITMAP_TX for e in first)
    assert app.on_receive_beacon("n2", 2_000, rng()) == []
    # a different remote is tracked separately
    assert app.on_receive_beacon("n3", 3_000, rng()) != []
    # and the same remote unlocks after the gap passes
    later = 1_000 + AppConfig().bitmap_min_gap_us
    assert app.on_receive_beacon("n2", later, rng()) != []


def test_own_beacon_is_ignored():
    app = make_app()
    assert app.on_receive_beacon("n1", 0, rng()) == []


def test_bitmap_announce_widens_knowledge_and_fills_pipeline():
    app = make_app()
    announce = BitmapAnnounce("movie1", "n9", Bitmap(8, 0b1111_0110))
    effects = app.on_receive_bitmap(announce, 5_000, rng())
    assert app.state.known_remote.bits == 0b1111_0110
    pkts = originated(effects)
    # window of 4 requests, lowest missing indices first
    assert [str(p.name) for p in pkts] == [
        "/ntorrent/movie1/data/1",
        "/ntorrent/movie1/data/2",
        "/ntorrent/movie1/data/4",
        "/ntorrent/movie1/data/5",
    ]
    assert set(app.state.pending) == {1, 2, 4, 5}
    reqs = [e for e in effects if isinstance(e, Note) and e.code == tc.PIECE_REQ]
    assert [r.detail for r in reqs] == ["piece=1;retry=0", "piece=2;retry=0",
                                        "piece=4;retry=0", "piece=5;retry=0"]


def test_repeat_bitmap_adds_no_requests_while_the_window_is_full():
    app = make_app()
    announce = BitmapAnnounce("movie1", "n9", Bitmap(8, 0b1111_0110))
    app.on_receive_bitmap(announce, 5_000, rng())
    assert len(app.state.pending) == 4
    again = app.on_receive_bitmap(announce, 6_000, rng())
    assert originated(again) == []
    assert set(app.state.pending) == {1, 2, 4, 5}


def test_bitmap_announce_ignores_self_and_mismatched_length():
    app = make_app()
    own = BitmapAnnounce("movie1", "n1", Bitmap(8, 0xFF))
    assert app.on_receive_bitmap(own, 0, rng()) == []
    odd = BitmapAnnounce("movie1", "n9", Bitmap(4, 0xF))
    assert app.on_receive_bitmap(odd, 0, rng()) == []
    assert app.state.known_remote.bits == 0


def test_bitmap_exchange_replies_when_the_announcer_is_behind():
    app = make_app(seeder=True)
    effects = app.on_receive_bitmap(BitmapAnnounce("movie1", "n2", Bitmap(8, 0)),
                                    1_000, rng())
    announces = [e for e in effects if isinstance(e, Note) and e.code == tc.BITMAP_TX]
    assert len(announces) == 1
    assert announces[0].detail == "have=8"
    # no reply when the announcer already holds everything we do
    app2 = make_app(seeder=True)
    effects = app2.on_receive_bitmap(BitmapAnnounce("movie1", "n2", Bitmap.full(8)),
                                     1_000, rng())
    assert effects == []


def test_bitmap_exchange_reply_shares_the_beacon_rate_limit():
    app = make_app(seeder=True)
    app.on_receive_beacon("n2", 1_000, rng())
    effects = app.on_receive_bitmap(BitmapAnnounce("movie1", "n2", Bitmap(8, 0)),
                                    2_000, rng())
    assert effects == []  # still inside the per-remote gap


def test_piece_arrival_updates_state_and_requests_more():
    app = make_app(cfg=AppConfig(pipeline_window=2))
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n9", Bitmap.full(8)), 0, rng())
    assert set(app.state.pending) == {0, 1}
    effects = app.on_receive_piece(0, 100, rng())
    assert Note(tc.PIECE_RX, "/ntorrent/movie1/data/0", "piece=0") in effects
    assert set(app.state.pending) == {1, 2}
    assert app.state.have.has(0)


def test_duplicate_piece_is_idempotent():
    app = make_app()
    app.state.known_remote = Bitmap.full(8)
    app.on_receive_piece(0, 100, rng())
    assert app.on_receive_piece(0, 200, rng()) == []
    assert app.state.have.popcount() == 1


def test_completion_recorded_once_with_details():
    app = make_app(n_pieces=2)
    app.state.known_remote = Bitmap.full(2)
    app.on_receive_piece(1, 50, rng())
    effects = app.on_receive_piece(0, 80, rng())
    done = [e for e in effects if isinstance(e, Note) and e.code == tc.COMPLETED]
    assert done == [Note(tc.COMPLETED, "", "torrent=movie1;pieces=2")]
    assert app.state.completed_at_us == 80
    # a late duplicate cannot record completion again
    assert app.on_receive_piece(1, 90, rng()) == []
    assert app.state.completed_at_us == 80


def test_piece_interest_served_only_when_held():
    app = make_app()
    app.state.have.set(5)
    effects = app.on_receive_piece_interest(PieceInterest("movie1", 5), 0, rng())
    assert len(effects) == 1 and isinstance(effects[0], EmitData)
    assert str(effects[0].name) == "/ntorrent/movie1/data/5"
    assert 900 <= effects[0].delay_us <= 1_100

    assert app.on_receive_piece_interest(PieceInterest("movie1", 6), 0, rng()) == []


def test_retry_resends_stale_requests():
    app = make_app(cfg=AppConfig(pipeline_window=1))
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n9", Bitmap.full(8)), 0, rng())
    timeout = AppConfig().interest_retry_timeout_us
    effects = app.on_retry_timer(timeout, rng(8))
    pkts = originated(effects)
    assert len(pkts) == 1
    assert str(pkts[0].name) == "/ntorrent/movie1/data/0"
    assert app.state.pending[0].retries == 1
    assert app.state.pending[0].last_sent_us == timeout
    assert [e for e in effects if isinstance(e, Note)][0].detail == "piece=0;retry=1"
    assert isinstance(effects[-1], StartTimer) and effects[-1].tag == TIMER_RETRY


def test_retry_nonces_differ_between_attempts():
    app = make_app(cfg=AppConfig(pipeline_window=1))
    shared = rng(21)
    first = originated(app.on_receive_bitmap(
        BitmapAnnounce("movie1", "n9", Bitmap.full(8)), 0, shared))[0]
    timeout = AppConfig().interest_retry_timeout_us
    second = originated(app.on_retry_timer(timeout, shared))[0]
    assert first.name == second.name
    assert first.nonce != second.nonce


def test_retry_skips_recent_requests():
    app = make_app()
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n9", Bitmap.full(8)),
                          500_000, rng())
    effects = app.on_retry_timer(1_000_000, rng())
    # requests are only half a timeout old; nothing is resent
    assert originated(effects) == []
    assert all(req.retries == 0 for req in app.state.pending.values())


def test_retry_abandons_after_max_and_frees_the_window():
    cfg = AppConfig(pipeline_window=2, max_retries=1)
    app = make_app(cfg=cfg)
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n9", Bitmap.full(8)), 0, rng())
    timeout = cfg.interest_retry_timeout_us
    app.on_retry_timer(timeout, rng())      # retry 1 for pieces 0 and 1
    effects = app.on_retry_timer(2 * timeout, rng())  # hits the cap
    pkts = originated(effects)
    # 0 and 1 abandoned; the freed window pulls in later pieces instead,
    # the abandoned ones wait for a future tick
    assert [str(p.name) for p in pkts] == [
        "/ntorrent/movie1/data/2",
        "/ntorrent/movie1/data/3",
    ]
    assert set(app.state.pending) == {2, 3}
    # once 2 and 3 hit the cap in turn, the abandoned pieces rejoin the pool
    app.on_retry_timer(3 * timeout, rng())
    effects = app.on_retry_timer(4 * timeout, rng())
    assert [str(p.name) for p in originated(effects)] == [
        "/ntorrent/movie1/data/0",
        "/ntorrent/movie1/data/1",
    ]
    assert set(app.state.pending) == {0, 1}


def test_retry_timer_stops_after_completion():
    app = make_app(n_pieces=1)
    app.state.known_remote = Bitmap.full(1)
    app.on_receive_piece(0, 10, rng())
    assert app.on_retry_timer(1_000_000, rng()) == []


def test_pipeline_window_is_never_exceeded():
    app = make_app(cfg=AppConfig(pipeline_window=3))
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n9", Bitmap.full(8)), 0, rng())
    assert len(app.state.pending) == 3
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n8", Bitmap.full(8)), 1, rng())
    assert len(app.state.pending) == 3
    app.on_receive_piece(0, 100, rng())
    assert len(app.state.pending) == 3
