"""Per-node forwarding plane: PIT dedup, breadcrumbs, store answers, hop caps."""
import copy
import random
from dataclasses import replace

import pytest
from conftest import Recorder
from hypothesis import example, given, settings, strategies as st
from test_acceptance import random_static_layout

from ntorrent_sim import forwarding
from ntorrent_sim import trace as tc
from ntorrent_sim.forwarding import (
    ForwardingParams,
    NodeState,
    PieceStore,
    PitEntry,
    on_data_emission,
    on_incoming_data,
    on_incoming_interest,
    on_own_interest,
    pit_gc,
)
from ntorrent_sim.names import (
    Bitmap,
    BitmapAnnounce,
    Data,
    Interest,
    PieceInterest,
    beacon_name,
    bitmap_announce_name,
    parse_name,
    piece_name,
    render_name,
)
from ntorrent_sim.scenario import TorrentSpec, build_five_node, build_random_field
from ntorrent_sim.strategies import StrategyParams, peer_decide, pure_decide
from ntorrent_sim.world import World

PIECE = piece_name("movie1", 3)
KEY = render_name(PIECE)


def piece_store(piece_bytes=1024):
    """A store over the declared torrent movie1, 8 pieces of piece_bytes."""
    return PieceStore({"movie1": TorrentSpec("movie1", n_pieces=8, piece_bytes=piece_bytes)})


def forwarder_node(p=1.0, params=None, store=None):
    node = NodeState(node_id="f0", strategy=StrategyParams(p_forward=p),
                     store=store or piece_store(), params=params or ForwardingParams(),
                     master_seed=0)
    node.rng = rng()
    return node


class FakeApp:
    """Stands in for a node's PeerApp: each hand-off from the forwarding plane
    is kept, in order, as (method, argument, now_us, out)."""

    def __init__(self, torrent):
        self.torrent = torrent
        self.calls = []

    def on_receive_beacon(self, sender, now_us, out):
        self.calls.append(("on_receive_beacon", sender, now_us, out))

    def on_receive_bitmap(self, announce, now_us, out):
        self.calls.append(("on_receive_bitmap", announce, now_us, out))

    def on_receive_piece_interest(self, request, now_us, out):
        self.calls.append(("on_receive_piece_interest", request, now_us, out))

    def on_receive_piece(self, piece, now_us, out):
        self.calls.append(("on_receive_piece", piece, now_us, out))


def peer_node(own="movie1", store=None):
    node = NodeState(node_id="p0", strategy=StrategyParams(), store=store or piece_store(),
                     params=ForwardingParams(), master_seed=0, app=FakeApp(own))
    node.rng = rng()
    return node


def rng():
    return random.Random(4)


def interest(nonce=1, hop=0, name=PIECE):
    return Interest(name, nonce=nonce, origin="src", hop_count=hop)


def kinds(calls):
    return [call[0] for call in calls]


def pit_dup(node, pkt):
    return ("note", node.node_id, tc.DROP, pkt.name.key, tc.REASON_PIT_DUP)


def heard_as_duplicate(node, pkt, now_us):
    """Whether on_incoming_interest notes DROP PIT_DUP for pkt heard at now_us.
    It runs on a copy of node, so node is left as it was. A duplicate notes
    only the drop, and leaves the PIT, the dead nonces, the overheard-name
    table and the strategy stream as they were."""
    trial = copy.deepcopy(node)
    before = copy.deepcopy((trial.pit, trial.dead_nonces, trial.table._expiry))
    stream = trial.rng.getstate()
    out = Recorder()
    on_incoming_interest(trial, pkt, now_us, out)
    calls = out.take()
    if pit_dup(node, pkt) not in calls:
        return False
    assert calls == [pit_dup(node, pkt)]
    assert (trial.pit, trial.dead_nonces, trial.table._expiry) == before
    assert trial.rng.getstate() == stream
    return True


def test_duplicate_nonce_drops_and_leaves_pit_alone(out):
    node = forwarder_node()
    on_incoming_interest(node, interest(), 0, out)
    calls = out.take()
    assert "send" in kinds(calls)
    assert pit_dup(node, interest()) not in calls
    entry = node.pit[KEY]
    before = copy.deepcopy((node.pit, node.dead_nonces))
    assert not heard_as_duplicate(node, interest(nonce=2), 100)
    # the plane drops a held nonce itself, from a live PIT entry or a live
    # dead-nonce record, with one note and no other effect
    dup = [pit_dup(node, interest())]
    stream = node.rng.getstate()
    on_incoming_interest(node, interest(), 100, out)
    assert out.take() == dup
    assert (node.pit, node.dead_nonces) == before
    assert node.pit[KEY] is entry
    assert entry.nonces == {1}
    assert node.rng.getstate() == stream
    dead = forwarder_node()
    dead.dead_nonces[KEY] = PitEntry({1}, True, 2_000)
    before = copy.deepcopy((dead.pit, dead.dead_nonces))
    on_incoming_interest(dead, interest(), 100, out)
    assert out.take() == dup
    assert (dead.pit, dead.dead_nonces) == before
    assert dead.rng.getstate() == rng().getstate()


def test_new_nonce_joins_existing_entry(out):
    node = forwarder_node(p=0.0)
    on_incoming_interest(node, interest(nonce=1), 0, out)
    on_own_interest(node, interest(nonce=2), 50, out)
    entry = node.pit[KEY]
    assert entry.nonces == {1, 2}
    assert entry.from_radio
    # the later arrival pushed the expiry out
    assert entry.expiry_us == 50 + node.params.pit_lifetime_us


def test_store_holder_schedules_data_instead_of_forwarding(out):
    store = piece_store()
    store.add("movie1", 3)
    node = forwarder_node(store=store)
    on_incoming_interest(node, interest(), 0, out)
    calls = out.take()
    assert calls[0] == ("note", "f0", tc.SATISFY, KEY, "piece=3")
    kind, node_id, name, delay = calls[1]
    assert (kind, node_id, name) == ("emit", "f0", PIECE)
    assert 900 <= delay <= 1_100
    assert "send" not in kinds(calls)


def test_own_interest_bypasses_the_strategy(out):
    # a node's own interests always go to the radio at once, even where the
    # strategy would have dropped (p=0); no coin is drawn and no DECISION noted
    node = forwarder_node(p=0.0)
    on_own_interest(node, interest(), 40, out)
    assert out.take() == [("send", "f0", interest(), 0)]
    entry = node.pit[KEY]
    assert entry.nonces == {1}
    assert not entry.from_radio
    assert entry.expiry_us == 40 + node.params.pit_lifetime_us
    # a copy of it heard back on the radio is a duplicate
    assert heard_as_duplicate(node, interest(), 50)


def test_hop_cap_drops_before_the_strategy_runs(out):
    node = forwarder_node(p=1.0, params=ForwardingParams(max_hops=4))
    on_incoming_interest(node, interest(hop=4), 0, out)
    assert out.take() == [("note", "f0", tc.DROP, KEY, tc.REASON_HOP_CAP)]
    on_incoming_interest(node, interest(nonce=2, hop=3), 0, out)
    assert any(call[0] == "send" and call[2].hop_count == 4 for call in out.take())


def test_forward_increments_hops_and_jitters(out):
    node = forwarder_node(p=1.0)
    on_incoming_interest(node, interest(hop=2), 0, out)
    note, (kind, node_id, pkt, delay) = out.take()
    assert note == ("note", "f0", tc.DECISION, KEY, tc.REASON_PROB_FWD)
    assert (kind, node_id) == ("send", "f0")
    assert pkt.hop_count == 3
    assert pkt.nonce == 1
    assert 2_000 <= delay <= 10_000


def test_peer_delivers_beacon_to_app(out):
    node = peer_node()
    on_incoming_interest(node, interest(name=beacon_name("n5")), 7_000, out)
    assert out.take() == [
        ("note", "p0", tc.DECISION, "/ntorrent/beacon/n5", tc.REASON_OWN_APP),
    ]
    assert node.app.calls == [("on_receive_beacon", "n5", 7_000, out)]


def test_peer_delivers_bitmap_announce_to_app(out):
    node = peer_node()
    name = bitmap_announce_name("movie1", "n5", Bitmap(8, 0b101))
    on_incoming_interest(node, interest(name=name), 7_000, out)
    assert out.take() == [("note", "p0", tc.DECISION, name.key, tc.REASON_OWN_APP)]
    assert node.app.calls == [
        ("on_receive_bitmap", BitmapAnnounce("movie1", "n5", Bitmap(8, 0b101)), 7_000, out),
    ]


def test_own_torrent_name_of_no_known_kind_reaches_no_app_handler(out):
    node = peer_node()
    name = parse_name("/ntorrent/movie1/other")
    on_incoming_interest(node, interest(name=name), 7_000, out)
    assert out.take() == [("note", "p0", tc.DECISION, name.key, tc.REASON_OWN_APP)]
    assert node.app.calls == []


def learned_peer(own, heard):
    node = peer_node(own=own)
    node.table.touch(heard, 0, node.strategy.t_mem_us)
    return node


# reason -> (node that reaches it, interest name, what follows the DECISION note)
DECISIONS = {
    tc.REASON_PROB_FWD: (lambda: forwarder_node(p=1.0), PIECE, "send"),
    tc.REASON_PROB_DROP: (lambda: forwarder_node(p=0.0), PIECE, "nothing"),
    tc.REASON_OWN_APP: (lambda: peer_node(own="movie1"), PIECE, "app"),
    tc.REASON_FOREIGN_LEARN: (lambda: peer_node(own="movie2"), PIECE, "nothing"),
    tc.REASON_FOREIGN_FWD: (lambda: learned_peer("movie2", "movie1"), PIECE, "send"),
    tc.REASON_UNKNOWN_DROP: (lambda: peer_node(own="movie1"), parse_name("/x/y"), "nothing"),
}


@pytest.mark.parametrize("reason", list(DECISIONS))
def test_each_decision_reason_emits_its_effect(reason, out):
    make_node, name, then = DECISIONS[reason]
    node = make_node()
    pkt = interest(hop=2, name=name)
    # the rule itself, on a copy of the table and a fresh copy of the node's stream
    if node.app is None:
        expected = pure_decide(node.strategy, rng())
    else:
        expected = peer_decide(node.strategy, node.app.torrent, copy.deepcopy(node.table),
                               pkt, 0, rng())
    assert expected[0] == reason
    on_incoming_interest(node, pkt, 0, out)
    calls = out.take()
    assert calls[0] == ("note", node.node_id, tc.DECISION, name.key, reason)
    if then == "send":
        relayed = Interest(pkt.name, pkt.nonce, pkt.origin, hop_count=3)
        assert calls[1:] == [("send", node.node_id, relayed, expected[1])]
    else:
        assert calls[1:] == []
    if node.app is not None:
        handoff = [("on_receive_piece_interest", pkt.name.cls, 0, out)] if then == "app" else []
        assert node.app.calls == handoff


# -- data path -----------------------------------------------------------------

def data_pkt(hop=0):
    return Data(PIECE, payload_bytes=1024, origin="seed", hop_count=hop)


def test_data_follows_broadcast_breadcrumb(out):
    node = forwarder_node(p=1.0)
    on_incoming_interest(node, interest(), 0, out)
    out.take()
    on_incoming_data(node, data_pkt(hop=1), 5_000, out)
    sends = [call for call in out.take() if call[0] == "send"]
    assert len(sends) == 1
    _, _, pkt, delay = sends[0]
    assert pkt.hop_count == 2
    assert 900 <= delay <= 1_100
    assert KEY not in node.pit


def test_data_for_app_breadcrumb_reaches_the_peer(out):
    node = peer_node(own="movie1")
    on_own_interest(node, interest(), 0, out)
    out.take()
    on_incoming_data(node, data_pkt(), 5_000, out)
    assert node.app.calls == [("on_receive_piece", 3, 5_000, out)]
    # nothing to send back: the radio never asked
    assert "send" not in kinds(out.take())


def test_data_for_own_and_radio_interests_delivers_locally_and_relays_once(out):
    node = peer_node(own="movie1")
    on_own_interest(node, interest(nonce=1), 0, out)
    on_incoming_interest(node, interest(nonce=2), 10, out)
    out.take()
    on_incoming_data(node, data_pkt(hop=1), 5_000, out)
    assert kinds(out.take()).count("send") == 1
    assert node.app.calls == [("on_receive_piece_interest", PieceInterest("movie1", 3), 10, out),
                              ("on_receive_piece", 3, 5_000, out)]


def test_unsolicited_data_drops(out):
    node = forwarder_node()
    on_incoming_data(node, data_pkt(), 0, out)
    assert out.take() == [("note", "f0", tc.DROP, KEY, tc.REASON_UNSOLICITED)]


def test_second_data_copy_is_unsolicited(out):
    node = forwarder_node(p=1.0)
    on_incoming_interest(node, interest(), 0, out)
    on_incoming_data(node, data_pkt(), 5_000, out)
    out.take()
    on_incoming_data(node, data_pkt(), 6_000, out)
    assert out.take() == [("note", "f0", tc.DROP, KEY, tc.REASON_UNSOLICITED)]


def test_satisfied_entry_still_suppresses_its_nonces(out):
    # regression: after data consumed the entry, a late flood copy of the same
    # interest must not re-enter the PIT and trigger a second transmission
    node = forwarder_node(p=1.0)
    on_incoming_interest(node, interest(nonce=9), 0, out)
    on_incoming_data(node, data_pkt(), 5_000, out)
    assert KEY not in node.pit
    assert heard_as_duplicate(node, interest(nonce=9), 6_000)
    # a genuinely new nonce is a fresh request and forwards again
    out.take()
    on_incoming_interest(node, interest(nonce=10), 7_000, out)
    calls = out.take()
    assert pit_dup(node, interest(nonce=10)) not in calls
    assert "send" in kinds(calls)


def test_nonce_suppression_survives_multiple_rounds(out):
    node = forwarder_node(p=1.0)
    on_incoming_interest(node, interest(nonce=1), 0, out)
    on_incoming_data(node, data_pkt(), 1_000, out)
    on_incoming_interest(node, interest(nonce=2), 2_000, out)
    on_incoming_data(node, data_pkt(), 3_000, out)
    for nonce in (1, 2):
        assert heard_as_duplicate(node, interest(nonce=nonce), 4_000)
    assert not heard_as_duplicate(node, interest(nonce=3), 4_000)


def test_overheard_cache_absorbs_when_enabled(out):
    store = piece_store()
    node = forwarder_node(params=ForwardingParams(cache_overheard_data=True),
                          store=store)
    on_incoming_data(node, data_pkt(), 0, out)
    assert ("note", "f0", tc.DROP, KEY, tc.REASON_UNSOLICITED) in out.take()
    assert store.has("movie1", 3)


def test_data_hop_cap(out):
    node = forwarder_node(p=1.0, params=ForwardingParams(max_hops=2))
    on_incoming_interest(node, interest(hop=0), 0, out)
    out.take()
    on_incoming_data(node, data_pkt(hop=2), 1_000, out)
    calls = out.take()
    assert ("note", "f0", tc.DROP, KEY, tc.REASON_HOP_CAP) in calls
    assert "send" not in kinds(calls)


def test_relayed_copies_keep_the_name_and_count_the_hop(out):
    node = forwarder_node(p=1.0)
    heard = interest(nonce=0xAB, hop=2)
    assert heard.wire == "nonce=00000000000000ab;hop=2;origin=src"
    on_incoming_interest(node, heard, 0, out)
    [(_, _, relayed, _)] = [call for call in out.take() if call[0] == "send"]
    # the relayed copy reuses the Name, so its text and class are not redone
    assert relayed.name is heard.name
    assert (relayed.nonce, relayed.origin, relayed.hop_count) == (0xAB, "src", 3)
    assert relayed.wire == "nonce=00000000000000ab;hop=3;origin=src"
    assert heard.wire == "nonce=00000000000000ab;hop=2;origin=src"
    data = data_pkt(hop=1)
    on_incoming_data(node, data, 5_000, out)
    [(_, _, relayed, _)] = [call for call in out.take() if call[0] == "send"]
    assert relayed.name is data.name
    assert (relayed.payload_bytes, relayed.origin, relayed.hop_count) == (1024, "seed", 2)


# -- deferred emission ------------------------------------------------------------

def emitting_node():
    store = piece_store(piece_bytes=512)
    store.add("movie1", 3)
    return forwarder_node(store=store)


def test_emission_answers_the_recorded_faces(out):
    node = emitting_node()
    on_incoming_interest(node, interest(), 0, out)
    out.take()
    on_data_emission(node, PIECE, 1_000, out)
    [(kind, node_id, pkt, delay)] = out.take()
    assert (kind, node_id) == ("send", "f0")
    assert pkt.payload_bytes == 512
    assert pkt.origin == "f0"
    assert pkt.hop_count == 0
    assert delay == 0
    assert KEY not in node.pit


def test_emission_goes_stale_when_entry_already_consumed(out):
    node = emitting_node()
    on_incoming_interest(node, interest(), 0, out)
    # someone else answered first; the arriving copy consumed the entry
    on_incoming_data(node, data_pkt(), 500, out)
    out.take()
    on_data_emission(node, PIECE, 1_000, out)
    assert out.take() == [("note", "f0", tc.DROP, KEY, tc.REASON_EMIT_STALE)]


def test_only_a_store_answer_schedules_an_emission(out, monkeypatch):
    # on_data_emission checks liveness only: an emission is scheduled for an
    # interest the store satisfied, and a store never loses a piece
    on_incoming_interest(forwarder_node(), interest(), 0, out)
    assert "emit" not in kinds(out.take())
    emit = forwarding.on_data_emission
    emitted = []

    def checked_emission(node, name, now_us, out):
        cls = name.cls
        assert node.store.has(cls.torrent, cls.piece), (node.node_id, name.key, now_us)
        emitted.append(name.key)
        emit(node, name, now_us, out)

    monkeypatch.setattr(forwarding, "on_data_emission", checked_emission)
    for cfg, seed in ((five_node_lossy(), 1), (random_static_layout(3), 3)):
        World(cfg, master_seed=seed).run()
    assert emitted


def test_expired_entry_is_not_answered(out):
    node = emitting_node()
    on_incoming_interest(node, interest(), 0, out)
    out.take()
    after = node.params.pit_lifetime_us
    on_data_emission(node, PIECE, after, out)
    assert out.take() == [("note", "f0", tc.DROP, KEY, tc.REASON_EMIT_STALE)]


# -- gc ---------------------------------------------------------------------------

def test_pit_gc_boundary_and_dead_nonce_purge(out):
    node = forwarder_node(p=1.0)
    on_incoming_interest(node, interest(nonce=5), 0, out)
    lifetime = node.params.pit_lifetime_us
    assert pit_gc(node, lifetime - 1) == 0
    assert pit_gc(node, lifetime) == 1
    assert node.pit == {}

    on_incoming_interest(node, interest(nonce=6), lifetime, out)
    on_incoming_data(node, data_pkt(), lifetime + 10, out)
    assert KEY in node.dead_nonces
    pit_gc(node, 2 * lifetime)
    assert node.dead_nonces == {}
    out.take()
    # with the dead record gone the old nonce is accepted as new again
    on_incoming_interest(node, interest(nonce=6), 2 * lifetime, out)
    calls = out.take()
    assert pit_dup(node, interest(nonce=6)) not in calls
    assert "send" in kinds(calls)


def test_pit_gc_also_expires_the_overheard_name_table():
    node = peer_node()
    node.table.touch("movie2", 0, 10_000_000)
    assert pit_gc(node, 10_000_000 - 1) == 0
    assert node.table._expiry == {"movie2": 10_000_000}
    pit_gc(node, 10_000_000)  # expiry exactly at now is stale
    assert node.table._expiry == {}


def test_piece_store_makes_a_bitmap_once_on_first_use():
    store = piece_store()
    # asking an unwritten or undeclared torrent makes no bitmap
    assert not store.has("movie1", 2)
    assert not store.has("movie9", 0)
    assert store._bitmaps == {}
    first = store.bitmap("movie1")
    first.set(2)
    assert store.bitmap("movie1") is first
    assert first.n_pieces == 8
    assert store.piece_bytes("movie1") == 1024
    assert store.has("movie1", 2)


# -- dead-nonce expiry ---------------------------------------------------------------

def satisfied_then_asked_again(out):
    """Nonce 1 satisfied at 10 µs; nonce 2 asks for the same name at 1,000 µs."""
    node = forwarder_node()
    on_incoming_interest(node, interest(nonce=1), 0, out)
    on_incoming_data(node, data_pkt(), 10, out)
    on_incoming_interest(node, interest(nonce=2), 1_000, out)
    return node, node.params.pit_lifetime_us


def test_an_old_nonce_stays_a_duplicate_until_its_own_expiry(out):
    node, lifetime = satisfied_then_asked_again(out)
    # the fresh entry lives to 1,000 + lifetime; nonce 1 only to lifetime
    assert node.pit[KEY].nonces == {2}
    assert heard_as_duplicate(node, interest(nonce=1), lifetime - 1)
    assert not heard_as_duplicate(node, interest(nonce=1), lifetime)
    assert heard_as_duplicate(node, interest(nonce=2), lifetime)


def test_a_second_satisfaction_keeps_both_nonces_until_the_later_expiry(out):
    node, lifetime = satisfied_then_asked_again(out)
    on_incoming_data(node, data_pkt(), 2_000, out)
    assert KEY not in node.pit
    for nonce in (1, 2):
        assert heard_as_duplicate(node, interest(nonce=nonce), 1_000 + lifetime - 1)
        assert not heard_as_duplicate(node, interest(nonce=nonce), 1_000 + lifetime)


# -- the duplicate rule against a model ------------------------------------------

OTHER_PIECE = piece_name("movie1", 5)
STEPS = st.lists(st.tuples(st.sampled_from(["own", "heard", "data", "emit", "gc"]),
                           st.sampled_from([PIECE, OTHER_PIECE]),
                           st.integers(0, 3),    # nonce
                           st.integers(0, 20)),  # µs since the step before
                 max_size=40)


@settings(deadline=None, max_examples=300)
@given(STEPS)
# nonce 1 is satisfied, then nonce 2 for the same name: the second record
# takes in the first one's nonces, so nonce 1 stays a duplicate
@example([("heard", PIECE, 1, 0), ("data", PIECE, 0, 1), ("heard", PIECE, 2, 1),
          ("data", PIECE, 0, 1), ("heard", PIECE, 1, 1)])
def test_pit_dup_follows_the_live_and_dead_nonces_of_each_name(steps):
    # a 50 µs lifetime, so entries and dead records expire within a few steps;
    # the store holds piece 3 (PIECE), so only it is answered and emitted
    lifetime = 50
    store = piece_store()
    store.add("movie1", 3)
    node = forwarder_node(p=0.5, params=ForwardingParams(pit_lifetime_us=lifetime),
                          store=store)
    out = Recorder()
    # the model: name key -> [nonces, expiry] of its PIT entry and of its
    # dead-nonce record; pit_gc removes only what is no longer live
    live, dead = {}, {}

    def holds(record, nonce, now):
        return record is not None and record[1] > now and nonce in record[0]

    now = 0
    for step, name, nonce, elapsed in steps:
        now += elapsed
        key = name.key
        entry = live.get(key)
        if entry is not None and entry[1] <= now:
            entry = None
        pkt = interest(nonce=nonce, name=name)
        if step in ("own", "heard"):
            if step == "heard":
                expected = holds(entry, nonce, now) or holds(dead.get(key), nonce, now)
                on_incoming_interest(node, pkt, now, out)
                assert (pit_dup(node, pkt) in out.take()) == expected, (step, key, nonce, now)
                if expected:
                    continue
            else:
                on_own_interest(node, pkt, now, out)
            live[key] = [(entry[0] if entry else set()) | {nonce}, now + lifetime]
        elif step == "data" or (step == "emit" and name == PIECE):
            if step == "data":
                on_incoming_data(node, Data(name, 1024, "seed", 0), now, out)
            else:
                on_data_emission(node, name, now, out)
            if entry is not None:
                older = dead.get(key)
                if older is not None and older[1] > now:
                    entry[0] |= older[0]
                dead[key] = entry
                del live[key]
        elif step == "gc":
            pit_gc(node, now)
        out.take()


def five_node_lossy():
    cfg = build_five_node()
    return replace(cfg, radio=replace(cfg.radio, loss_prob=0.1))


@pytest.mark.parametrize("cfg,seed", [
    (five_node_lossy(), 1),
    (five_node_lossy(), 2),
    (replace(build_random_field(12, 3), duration_us=60_000_000), 3),
    (random_static_layout(3), 3),
], ids=["five-node-lossy-1", "five-node-lossy-2", "random-field-12", "static-layout-3"])
def test_a_live_older_dead_record_never_outlives_the_entry_retired_over_it(
        cfg, seed, monkeypatch):
    retire = forwarding._retire_entry
    met = []

    def checked_retire(node, key, entry, now_us):
        dead = node.dead_nonces.get(key)
        if dead is not None and dead.expiry_us > now_us:
            met.append(key)
            assert dead.expiry_us <= entry.expiry_us
            held = dead.nonces | entry.nonces
        else:
            held = set(entry.nonces)
        retire(node, key, entry, now_us)
        assert node.dead_nonces[key].nonces == held
        assert node.dead_nonces[key].expiry_us == entry.expiry_us

    monkeypatch.setattr(forwarding, "_retire_entry", checked_retire)
    World(cfg, master_seed=seed).run()
    assert met
