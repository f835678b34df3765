"""Peer application: beacons, bitmap exchange, pipeline, retries, completion."""
import random
import time
from itertools import product

import pytest

from ntorrent_sim import trace as tc
from ntorrent_sim.app import AppConfig, LengthMismatch, PeerApp, compute_missing
from ntorrent_sim.names import Bitmap, BitmapAnnounce, PieceInterest, bitmap_announce_name
from ntorrent_sim.scenario import MAX_PIECES


def make_app(seeder=False, n_pieces=8, cfg=None, node_id="n1", torrent="movie1", seed=3):
    app = PeerApp(node_id=node_id, torrent=torrent, seeder=seeder, cfg=cfg or AppConfig(),
                  have=Bitmap(n_pieces), data_response_delay_us=1_000, master_seed=0)
    app.rng = random.Random(seed)
    return app


def originated(calls):
    return [call[2] for call in calls if call[0] == "originate"]


def notes(calls, code):
    return [call[4] for call in calls if call[0] == "note" and call[2] == code]


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


def test_compute_missing_on_the_largest_bitmaps():
    theirs = Bitmap(MAX_PIECES, 1 << (MAX_PIECES - 1) | 1 << 4_000 | 1 << 3 | 1)
    mine = Bitmap(MAX_PIECES, 1 << 3)
    assert compute_missing(mine, theirs) == [0, 4_000, MAX_PIECES - 1]
    assert compute_missing(Bitmap(MAX_PIECES), Bitmap.full(MAX_PIECES)) == list(range(MAX_PIECES))


def test_seeder_starts_complete(out):
    app = make_app(seeder=True)
    assert app.completed
    assert app.have.popcount() == 8
    # a seeder's have never grows, so no arrival completes it
    app.known_remote = Bitmap.full(8)
    app.on_receive_piece(3, 100, out)
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n2", Bitmap.full(8)), 200, out)
    assert notes(out.take(), tc.COMPLETED) == []


def test_start_timers(out):
    app = make_app()
    app.start(out)
    armed = [(call[2], call[3]) for call in out.take() if call[0] == "timer"]
    assert [handler for handler, _ in armed] == [app.on_beacon_timer, app.on_retry_timer]
    beacon_delay = armed[0][1]
    assert 1 <= beacon_delay <= AppConfig().beacon_interval_us // 10
    assert armed[1][1] == AppConfig().interest_retry_timeout_us

    seeder = make_app(seeder=True)
    seeder.start(out)
    assert [call[2] for call in out.take() if call[0] == "timer"] == [seeder.on_beacon_timer]


def test_beacon_timer_emits_and_reschedules(out):
    app = make_app()
    app.on_beacon_timer(1_000_000, out)
    calls = out.take()
    assert calls[0] == ("note", "n1", tc.BEACON_TX, "/ntorrent/beacon/n1", "")
    pkt = originated(calls)[0]
    assert str(pkt.name) == "/ntorrent/beacon/n1"
    assert pkt.origin == "n1"
    kind, _, handler, delay = calls[-1]
    assert kind == "timer" and handler == app.on_beacon_timer
    interval = AppConfig().beacon_interval_us
    assert interval - interval // 10 <= delay <= interval + interval // 10


def test_completed_leecher_goes_quiet_unless_kept_seeding(out):
    app = make_app(n_pieces=2)
    app.known_remote.bits = 0b11
    app.on_receive_piece(0, 10, out)
    app.on_receive_piece(1, 20, out)
    assert app.completed
    out.take()
    app.on_beacon_timer(2_000_000, out)
    assert out.take() == []

    kept = make_app(n_pieces=2, cfg=AppConfig(keep_seeding=True))
    kept.have.bits = 0b11
    kept.on_beacon_timer(2_000_000, out)
    assert out.take() != []
    # seeders always keep announcing themselves
    make_app(seeder=True).on_beacon_timer(2_000_000, out)
    assert out.take() != []


def test_beacon_reply_is_rate_limited_per_remote(out):
    app = make_app(seeder=True)
    app.on_receive_beacon("n2", 1_000, out)
    assert notes(out.take(), tc.BITMAP_TX) != []
    app.on_receive_beacon("n2", 2_000, out)
    assert out.take() == []
    # a different remote is tracked separately
    app.on_receive_beacon("n3", 3_000, out)
    assert out.take() != []
    # and the same remote unlocks after the gap passes
    later = 1_000 + AppConfig().bitmap_min_gap_us
    app.on_receive_beacon("n2", later, out)
    assert out.take() != []


def test_beacons_and_requests_of_one_piece_reuse_one_name(out):
    app = make_app(cfg=AppConfig(pipeline_window=1))
    app.on_beacon_timer(0, out)
    app.on_beacon_timer(2_000_000, out)
    first, second = originated(out.take())
    assert first.name is second.name
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n9", Bitmap.full(8)), 0, out)
    app.on_retry_timer(AppConfig().interest_retry_timeout_us, out)
    request, retry = originated(out.take())
    assert request.name is retry.name
    assert request.nonce != retry.nonce
    # the arrival's trace row and the data the app serves read the same name
    app.on_receive_piece(0, 10, out)
    [piece_rx] = [call for call in out.take() if call[0] == "note" and call[2] == tc.PIECE_RX]
    assert piece_rx[3] is request.name.key
    app.on_receive_piece_interest(PieceInterest("movie1", 0), 20, out)
    [(_, _, served, _)] = out.take()
    assert served is request.name


def test_bitmap_name_is_rebuilt_only_when_have_changes(out):
    app = make_app()
    app.on_receive_beacon("n2", 0, out)
    app.on_receive_beacon("n3", 0, out)
    first, repeat = originated(out.take())
    assert repeat.name is first.name
    assert first.name.cls.bits == Bitmap(8, 0)
    app.on_receive_piece(3, 10, out)
    out.take()
    app.on_receive_beacon("n4", 20, out)
    [after] = originated(out.take())
    assert after.name == bitmap_announce_name("movie1", "n1", Bitmap(8, 1 << 3))
    assert after.name.cls.bits == Bitmap(8, 1 << 3)
    app.on_receive_beacon("n5", 30, out)
    [again] = originated(out.take())
    assert again.name is after.name


def test_full_bitmap_fills_the_window_without_scanning_every_piece(out):
    # a walk of the lowest missing pieces that stops at the window takes tens
    # of µs for 65,536 pieces; a shift of the bitmap per piece index took 0.2-0.3 s
    best_s = float("inf")
    for _ in range(3):
        app = make_app(n_pieces=MAX_PIECES)
        announce = BitmapAnnounce("movie1", "n9", Bitmap.full(MAX_PIECES))
        start = time.perf_counter()
        app.on_receive_bitmap(announce, 0, out)
        best_s = min(best_s, time.perf_counter() - start)
        assert sorted(app.pending) == [0, 1, 2, 3]
        assert len(originated(out.take())) == 4
    assert best_s < 0.02


def test_own_beacon_is_ignored(out):
    app = make_app()
    app.on_receive_beacon("n1", 0, out)
    assert out.take() == []


def test_bitmap_announce_widens_knowledge_and_fills_pipeline(out):
    app = make_app()
    announce = BitmapAnnounce("movie1", "n9", Bitmap(8, 0b1111_0110))
    app.on_receive_bitmap(announce, 5_000, out)
    calls = out.take()
    assert app.known_remote.bits == 0b1111_0110
    pkts = originated(calls)
    # window of 4 requests, lowest missing indices first
    assert [str(p.name) for p in pkts] == [
        "/ntorrent/movie1/data/1",
        "/ntorrent/movie1/data/2",
        "/ntorrent/movie1/data/4",
        "/ntorrent/movie1/data/5",
    ]
    assert set(app.pending) == {1, 2, 4, 5}
    assert notes(calls, tc.PIECE_REQ) == ["piece=1;retry=0", "piece=2;retry=0",
                                          "piece=4;retry=0", "piece=5;retry=0"]


def test_repeat_bitmap_adds_no_requests_while_the_window_is_full(out):
    app = make_app()
    announce = BitmapAnnounce("movie1", "n9", Bitmap(8, 0b1111_0110))
    app.on_receive_bitmap(announce, 5_000, out)
    assert len(app.pending) == 4
    out.take()
    app.on_receive_bitmap(announce, 6_000, out)
    assert originated(out.take()) == []
    assert set(app.pending) == {1, 2, 4, 5}


def test_bitmap_announce_ignores_self_and_mismatched_length(out):
    app = make_app()
    own = BitmapAnnounce("movie1", "n1", Bitmap(8, 0xFF))
    app.on_receive_bitmap(own, 0, out)
    assert out.take() == []
    odd = BitmapAnnounce("movie1", "n9", Bitmap(4, 0xF))
    app.on_receive_bitmap(odd, 0, out)
    assert out.take() == []
    assert app.known_remote.bits == 0


def test_bitmap_exchange_replies_when_the_announcer_is_behind(out):
    app = make_app(seeder=True)
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n2", Bitmap(8, 0)), 1_000, out)
    assert notes(out.take(), tc.BITMAP_TX) == ["have=8"]
    # no reply when the announcer already holds everything we do
    app2 = make_app(seeder=True)
    app2.on_receive_bitmap(BitmapAnnounce("movie1", "n2", Bitmap.full(8)), 1_000, out)
    assert out.take() == []


def test_bitmap_exchange_reply_shares_the_beacon_rate_limit(out):
    app = make_app(seeder=True)
    app.on_receive_beacon("n2", 1_000, out)
    out.take()
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n2", Bitmap(8, 0)), 2_000, out)
    assert out.take() == []  # still inside the per-remote gap


def test_piece_arrival_updates_state_and_requests_more(out):
    app = make_app(cfg=AppConfig(pipeline_window=2))
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n9", Bitmap.full(8)), 0, out)
    assert set(app.pending) == {0, 1}
    out.take()
    app.on_receive_piece(0, 100, out)
    assert ("note", "n1", tc.PIECE_RX, "/ntorrent/movie1/data/0", "piece=0") in out.take()
    assert set(app.pending) == {1, 2}
    assert app.have.has(0)


def test_duplicate_piece_is_idempotent(out):
    app = make_app()
    app.known_remote = Bitmap.full(8)
    app.on_receive_piece(0, 100, out)
    out.take()
    app.on_receive_piece(0, 200, out)
    assert out.take() == []
    assert app.have.popcount() == 1


def test_completion_recorded_once_with_details(out):
    app = make_app(n_pieces=2)
    app.known_remote = Bitmap.full(2)
    app.on_receive_piece(1, 50, out)
    assert notes(out.take(), tc.COMPLETED) == []
    app.on_receive_piece(0, 80, out)
    calls = [call for call in out.take() if call[0] == "note"]
    # the COMPLETED row directly follows the PIECE_RX of the last piece
    assert calls == [("note", "n1", tc.PIECE_RX, "/ntorrent/movie1/data/0", "piece=0"),
                     ("note", "n1", tc.COMPLETED, "", "torrent=movie1;pieces=2")]
    # a late duplicate cannot note completion again
    app.on_receive_piece(1, 90, out)
    app.on_receive_piece(0, 95, out)
    assert out.take() == []


def test_piece_interest_served_only_when_held(out):
    app = make_app()
    app.have.set(5)
    app.on_receive_piece_interest(PieceInterest("movie1", 5), 0, out)
    [(kind, node_id, name, delay)] = out.take()
    assert (kind, node_id) == ("emit", "n1")
    assert str(name) == "/ntorrent/movie1/data/5"
    assert 900 <= delay <= 1_100

    app.on_receive_piece_interest(PieceInterest("movie1", 6), 0, out)
    assert out.take() == []


def test_retry_resends_stale_requests(out):
    app = make_app(cfg=AppConfig(pipeline_window=1))
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n9", Bitmap.full(8)), 0, out)
    timeout = AppConfig().interest_retry_timeout_us
    out.take()
    app.on_retry_timer(timeout, out)
    calls = out.take()
    pkts = originated(calls)
    assert len(pkts) == 1
    assert str(pkts[0].name) == "/ntorrent/movie1/data/0"
    assert app.pending[0].retries == 1
    assert app.pending[0].last_sent_us == timeout
    assert [call for call in calls if call[0] == "note"][0][4] == "piece=0;retry=1"
    assert calls[-1][:3] == ("timer", "n1", app.on_retry_timer)


def test_retry_nonces_differ_between_attempts(out):
    app = make_app(cfg=AppConfig(pipeline_window=1), seed=21)
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n9", Bitmap.full(8)), 0, out)
    first = originated(out.take())[0]
    timeout = AppConfig().interest_retry_timeout_us
    app.on_retry_timer(timeout, out)
    second = originated(out.take())[0]
    assert first.name == second.name
    assert first.nonce != second.nonce


def test_retry_skips_recent_requests(out):
    app = make_app()
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n9", Bitmap.full(8)), 500_000, out)
    out.take()
    app.on_retry_timer(1_000_000, out)
    # requests are only half a timeout old; nothing is resent
    assert originated(out.take()) == []
    assert all(req.retries == 0 for req in app.pending.values())


def test_retry_abandons_after_max_and_frees_the_window(out):
    cfg = AppConfig(pipeline_window=2, max_retries=1)
    app = make_app(cfg=cfg)
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n9", Bitmap.full(8)), 0, out)
    timeout = cfg.interest_retry_timeout_us
    app.on_retry_timer(timeout, out)      # retry 1 for pieces 0 and 1
    out.take()
    app.on_retry_timer(2 * timeout, out)  # hits the cap
    pkts = originated(out.take())
    # 0 and 1 abandoned; the freed window pulls in later pieces instead,
    # the abandoned ones wait for a future tick
    assert [str(p.name) for p in pkts] == [
        "/ntorrent/movie1/data/2",
        "/ntorrent/movie1/data/3",
    ]
    assert set(app.pending) == {2, 3}
    # once 2 and 3 hit the cap in turn, the abandoned pieces rejoin the pool
    app.on_retry_timer(3 * timeout, out)
    out.take()
    app.on_retry_timer(4 * timeout, out)
    assert [str(p.name) for p in originated(out.take())] == [
        "/ntorrent/movie1/data/0",
        "/ntorrent/movie1/data/1",
    ]
    assert set(app.pending) == {0, 1}


def test_retry_timer_stops_after_completion(out):
    app = make_app(n_pieces=1)
    app.known_remote = Bitmap.full(1)
    app.on_receive_piece(0, 10, out)
    out.take()
    app.on_retry_timer(1_000_000, out)
    assert out.take() == []


def test_pipeline_window_is_never_exceeded(out):
    app = make_app(cfg=AppConfig(pipeline_window=3))
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n9", Bitmap.full(8)), 0, out)
    assert len(app.pending) == 3
    app.on_receive_bitmap(BitmapAnnounce("movie1", "n8", Bitmap.full(8)), 1, out)
    assert len(app.pending) == 3
    app.on_receive_piece(0, 100, out)
    assert len(app.pending) == 3
