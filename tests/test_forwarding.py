"""Per-node forwarding plane: PIT dedup, breadcrumbs, store answers, hop caps."""
import copy
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from ntorrent_sim import trace as tc
from ntorrent_sim.forwarding import (
    AppInterest,
    AppPiece,
    EmitData,
    FaceId,
    ForwardingParams,
    NodeState,
    Note,
    PieceStore,
    Send,
    on_data_emission,
    on_incoming_data,
    on_incoming_interest,
    pit_gc,
)
from ntorrent_sim.names import Data, Interest, beacon_name, parse_name, piece_name, render_name
from ntorrent_sim.strategies import StrategyParams, peer_decide, pure_decide

PIECE = piece_name("movie1", 3)
KEY = render_name(PIECE)


def forwarder_node(p=1.0, params=None, store=None):
    return NodeState(node_id="f0", strategy=StrategyParams(p_forward=p),
                     store=store or PieceStore(), params=params or ForwardingParams())


def peer_node(own="movie1", store=None):
    return NodeState(node_id="p0", strategy=StrategyParams(), store=store or PieceStore(),
                     params=ForwardingParams(),
                     app=SimpleNamespace(torrent=own))


def rng():
    return random.Random(4)


def interest(nonce=1, hop=0, name=PIECE):
    return Interest(name, nonce=nonce, origin="src", hop_count=hop)


def test_duplicate_nonce_drops_and_leaves_pit_alone():
    node = forwarder_node()
    first = on_incoming_interest(node, interest(), FaceId.BROADCAST, 0, rng())
    assert any(isinstance(e, Send) for e in first)
    entry = node.pit[KEY]
    again = on_incoming_interest(node, interest(), FaceId.BROADCAST, 100, rng())
    assert again == [Note(tc.DROP, KEY, tc.REASON_PIT_DUP)]
    assert node.pit[KEY] is entry
    assert entry.nonces == {1}


def test_new_nonce_joins_existing_entry():
    node = forwarder_node(p=0.0)
    on_incoming_interest(node, interest(nonce=1), FaceId.BROADCAST, 0, rng())
    on_incoming_interest(node, interest(nonce=2), FaceId.APP, 50, rng())
    entry = node.pit[KEY]
    assert entry.nonces == {1, 2}
    assert entry.in_faces == {FaceId.BROADCAST, FaceId.APP}
    # the later arrival pushed the expiry out
    assert entry.expiry_us == 50 + node.params.pit_lifetime_us


def test_store_holder_schedules_data_instead_of_forwarding():
    store = PieceStore()
    store.ensure("movie1", 8, 1024)
    store.add("movie1", 3)
    node = forwarder_node(store=store)
    effects = on_incoming_interest(node, interest(), FaceId.BROADCAST, 0, rng())
    assert effects[0] == Note(tc.SATISFY, KEY, "piece=3")
    assert isinstance(effects[1], EmitData)
    assert effects[1].name == PIECE
    assert 900 <= effects[1].delay_us <= 1_100
    assert not any(isinstance(e, Send) for e in effects)


def test_app_face_bypasses_the_strategy():
    # a node's own interests always go to the radio, even where the strategy
    # would have dropped (p=0)
    node = forwarder_node(p=0.0)
    effects = on_incoming_interest(node, interest(), FaceId.APP, 0, rng())
    assert effects == [Send(interest(), 0)]


def test_hop_cap_drops_before_the_strategy_runs():
    node = forwarder_node(p=1.0, params=ForwardingParams(max_hops=4))
    effects = on_incoming_interest(node, interest(hop=4), FaceId.BROADCAST, 0, rng())
    assert effects == [Note(tc.DROP, KEY, tc.REASON_HOP_CAP)]
    effects = on_incoming_interest(node, interest(nonce=2, hop=3), FaceId.BROADCAST,
                                   0, rng())
    assert any(isinstance(e, Send) and e.packet.hop_count == 4
               for e in effects)


def test_forward_increments_hops_and_jitters():
    node = forwarder_node(p=1.0)
    effects = on_incoming_interest(node, interest(hop=2), FaceId.BROADCAST, 0, rng())
    note, send = effects
    assert note == Note(tc.DECISION, KEY, tc.REASON_PROB_FWD)
    assert isinstance(send, Send)
    assert send.packet.hop_count == 3
    assert send.packet.nonce == 1
    assert 2_000 <= send.delay_us <= 10_000


def test_peer_delivers_beacon_to_app():
    node = peer_node()
    beacon = interest(name=beacon_name("n5"))
    effects = on_incoming_interest(node, beacon, FaceId.BROADCAST, 0, rng())
    assert effects[0] == Note(tc.DECISION, "/ntorrent/beacon/n5", tc.REASON_OWN_APP)
    assert isinstance(effects[1], AppInterest)
    assert effects[1].packet == beacon


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
def test_each_decision_reason_emits_its_effect(reason):
    make_node, name, then = DECISIONS[reason]
    node = make_node()
    pkt = interest(hop=2, name=name)
    # the rule itself, on copies of the table and the rng the plane will use
    if node.app is None:
        expected = pure_decide(node.strategy, pkt, rng())
    else:
        expected = peer_decide(node.strategy, node.app.torrent, copy.deepcopy(node.table),
                               pkt, 0, rng())
    assert expected[0] == reason
    effects = on_incoming_interest(node, pkt, FaceId.BROADCAST, 0, rng())
    assert effects[0] == Note(tc.DECISION, name.key, reason)
    if then == "send":
        assert effects[1:] == [Send(replace(pkt, hop_count=3), expected[1])]
    elif then == "app":
        assert effects[1:] == [AppInterest(pkt)]
    else:
        assert effects[1:] == []


# -- data path -----------------------------------------------------------------

def data_pkt(hop=0):
    return Data(PIECE, payload_bytes=1024, origin="seed", hop_count=hop)


def test_data_follows_broadcast_breadcrumb():
    node = forwarder_node(p=1.0)
    on_incoming_interest(node, interest(), FaceId.BROADCAST, 0, rng())
    effects = on_incoming_data(node, data_pkt(hop=1), 5_000, rng())
    sends = [e for e in effects if isinstance(e, Send)]
    assert len(sends) == 1
    assert sends[0].packet.hop_count == 2
    assert 900 <= sends[0].delay_us <= 1_100
    assert KEY not in node.pit


def test_data_for_app_breadcrumb_reaches_the_peer():
    node = peer_node(own="movie1")
    on_incoming_interest(node, interest(), FaceId.APP, 0, rng())
    effects = on_incoming_data(node, data_pkt(), 5_000, rng())
    assert AppPiece("movie1", 3) in effects
    # nothing to send back: the radio never asked
    assert not any(isinstance(e, Send) for e in effects)


def test_data_for_both_faces_delivers_locally_and_relays_once():
    node = peer_node(own="movie1")
    on_incoming_interest(node, interest(nonce=1), FaceId.APP, 0, rng())
    on_incoming_interest(node, interest(nonce=2), FaceId.BROADCAST, 10, rng())
    effects = on_incoming_data(node, data_pkt(hop=1), 5_000, rng())
    sends = [e for e in effects if isinstance(e, Send)]
    assert len(sends) == 1
    assert AppPiece("movie1", 3) in effects


def test_unsolicited_data_drops():
    node = forwarder_node()
    effects = on_incoming_data(node, data_pkt(), 0, rng())
    assert effects == [Note(tc.DROP, KEY, tc.REASON_UNSOLICITED)]


def test_second_data_copy_is_unsolicited():
    node = forwarder_node(p=1.0)
    on_incoming_interest(node, interest(), FaceId.BROADCAST, 0, rng())
    on_incoming_data(node, data_pkt(), 5_000, rng())
    effects = on_incoming_data(node, data_pkt(), 6_000, rng())
    assert effects == [Note(tc.DROP, KEY, tc.REASON_UNSOLICITED)]


def test_satisfied_entry_still_suppresses_its_nonces():
    # regression: after data consumed the entry, a late flood copy of the same
    # interest must not re-enter the PIT and trigger a second transmission
    node = forwarder_node(p=1.0)
    on_incoming_interest(node, interest(nonce=9), FaceId.BROADCAST, 0, rng())
    on_incoming_data(node, data_pkt(), 5_000, rng())
    late = on_incoming_interest(node, interest(nonce=9), FaceId.BROADCAST, 6_000, rng())
    assert late == [Note(tc.DROP, KEY, tc.REASON_PIT_DUP)]
    # a genuinely new nonce is a fresh request and forwards again
    fresh = on_incoming_interest(node, interest(nonce=10), FaceId.BROADCAST, 7_000, rng())
    assert any(isinstance(e, Send) for e in fresh)


def test_nonce_suppression_survives_multiple_rounds():
    node = forwarder_node(p=1.0)
    on_incoming_interest(node, interest(nonce=1), FaceId.BROADCAST, 0, rng())
    on_incoming_data(node, data_pkt(), 1_000, rng())
    on_incoming_interest(node, interest(nonce=2), FaceId.BROADCAST, 2_000, rng())
    on_incoming_data(node, data_pkt(), 3_000, rng())
    for nonce in (1, 2):
        effects = on_incoming_interest(node, interest(nonce=nonce), FaceId.BROADCAST,
                                       4_000, rng())
        assert effects == [Note(tc.DROP, KEY, tc.REASON_PIT_DUP)]


def test_overheard_cache_absorbs_when_enabled():
    store = PieceStore()
    store.ensure("movie1", 8, 1024)
    node = forwarder_node(params=ForwardingParams(cache_overheard_data=True),
                          store=store)
    effects = on_incoming_data(node, data_pkt(), 0, rng())
    assert Note(tc.DROP, KEY, tc.REASON_UNSOLICITED) in effects
    assert store.has("movie1", 3)


def test_data_hop_cap():
    node = forwarder_node(p=1.0, params=ForwardingParams(max_hops=2))
    on_incoming_interest(node, interest(hop=0), FaceId.BROADCAST, 0, rng())
    effects = on_incoming_data(node, data_pkt(hop=2), 1_000, rng())
    assert Note(tc.DROP, KEY, tc.REASON_HOP_CAP) in effects
    assert not any(isinstance(e, Send) for e in effects)


# -- deferred emission ------------------------------------------------------------

def emitting_node():
    store = PieceStore()
    store.ensure("movie1", 8, 512)
    store.add("movie1", 3)
    return forwarder_node(store=store)


def test_emission_answers_the_recorded_faces():
    node = emitting_node()
    on_incoming_interest(node, interest(), FaceId.BROADCAST, 0, rng())
    effects = on_data_emission(node, PIECE, 1_000)
    assert len(effects) == 1
    send = effects[0]
    assert isinstance(send, Send)
    assert send.packet.payload_bytes == 512
    assert send.packet.origin == "f0"
    assert send.packet.hop_count == 0
    assert send.delay_us == 0
    assert KEY not in node.pit


def test_emission_to_app_face_absorbs_locally():
    store = PieceStore()
    store.ensure("movie1", 8, 512)
    store.add("movie1", 3)
    node = peer_node(own="movie1", store=store)
    on_incoming_interest(node, interest(), FaceId.APP, 0, rng())
    effects = on_data_emission(node, PIECE, 1_000)
    assert effects == [AppPiece("movie1", 3)]


def test_emission_goes_stale_when_entry_already_consumed():
    node = emitting_node()
    on_incoming_interest(node, interest(), FaceId.BROADCAST, 0, rng())
    # someone else answered first; the arriving copy consumed the entry
    on_incoming_data(node, data_pkt(), 500, rng())
    assert on_data_emission(node, PIECE, 1_000) == [
        Note(tc.DROP, KEY, tc.REASON_EMIT_STALE)]


def test_emission_without_the_piece_is_stale():
    node = forwarder_node()
    on_incoming_interest(node, interest(), FaceId.BROADCAST, 0, rng())
    assert on_data_emission(node, PIECE, 1_000) == [
        Note(tc.DROP, KEY, tc.REASON_EMIT_STALE)]


def test_expired_entry_is_not_answered():
    node = emitting_node()
    on_incoming_interest(node, interest(), FaceId.BROADCAST, 0, rng())
    after = node.params.pit_lifetime_us
    assert on_data_emission(node, PIECE, after) == [
        Note(tc.DROP, KEY, tc.REASON_EMIT_STALE)]


# -- gc ---------------------------------------------------------------------------

def test_pit_gc_boundary_and_dead_nonce_purge():
    node = forwarder_node(p=1.0)
    on_incoming_interest(node, interest(nonce=5), FaceId.BROADCAST, 0, rng())
    lifetime = node.params.pit_lifetime_us
    assert pit_gc(node, lifetime - 1) == 0
    assert pit_gc(node, lifetime) == 1
    assert node.pit == {}

    on_incoming_interest(node, interest(nonce=6), FaceId.BROADCAST, lifetime, rng())
    on_incoming_data(node, data_pkt(), lifetime + 10, rng())
    assert KEY in node.dead_nonces
    pit_gc(node, 2 * lifetime)
    assert node.dead_nonces == {}
    # with the dead record gone the old nonce is accepted as new again
    effects = on_incoming_interest(node, interest(nonce=6), FaceId.BROADCAST,
                                   2 * lifetime, rng())
    assert any(isinstance(e, Send) for e in effects)


def test_piece_store_ensure_is_idempotent():
    store = PieceStore()
    first = store.ensure("movie1", 8, 1024)
    first.set(2)
    again = store.ensure("movie1", 8, 1024)
    assert again is first
    assert store.piece_bytes("movie1") == 1024
    assert store.has("movie1", 2)
    assert not store.has("movie9", 0)
