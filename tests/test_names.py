"""Name grammar, bitmap codec, classification, and packet validation."""
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from ntorrent_sim import names
from ntorrent_sim.names import (
    BEACON_KEYWORD,
    Beacon,
    Bitmap,
    BitmapAnnounce,
    Data,
    Foreign,
    Interest,
    MalformedBitmap,
    MalformedName,
    Name,
    PieceInterest,
    Unknown,
    beacon_name,
    bitmap_announce_name,
    classify,
    decode_bitmap,
    encode_bitmap,
    parse_name,
    piece_name,
    render_name,
)

component = st.text(
    st.characters(codec="ascii", exclude_characters="/", min_codepoint=33),
    min_size=1, max_size=12,
)


def test_parse_render_round_trip():
    name = parse_name("/ntorrent/movie1/data/7")
    assert name.components == ("ntorrent", "movie1", "data", "7")
    assert render_name(name) == "/ntorrent/movie1/data/7"
    assert str(name) == "/ntorrent/movie1/data/7"


@given(st.lists(component, min_size=1, max_size=6))
def test_parse_inverts_render(parts):
    name = Name(tuple(parts))
    assert parse_name(render_name(name)) == name


@pytest.mark.parametrize("text", ["", "no-slash", "/a//b", "/", "/a/"])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(MalformedName):
        parse_name(text)


def test_name_components_validated():
    with pytest.raises(MalformedName):
        Name(())
    with pytest.raises(MalformedName):
        Name(("a", ""))
    with pytest.raises(MalformedName):
        Name(("a/b",))


# -- bitmaps ------------------------------------------------------------------

def test_bitmap_bit_operations():
    bm = Bitmap(8)
    assert not bm.has(3)
    bm.set(3)
    bm.set(3)  # idempotent
    assert bm.has(3)
    assert bm.popcount() == 1
    assert not bm.complete
    full = Bitmap(8, 0xFF)
    assert full.complete and full.popcount() == 8


def test_bitmap_rejects_bad_construction():
    with pytest.raises(ValueError):
        Bitmap(0)
    with pytest.raises(ValueError):
        Bitmap(4, 1 << 4)
    with pytest.raises(ValueError):
        Bitmap(4, -1)


def test_bitmap_index_bounds():
    bm = Bitmap(4)
    with pytest.raises(IndexError):
        bm.has(4)
    with pytest.raises(IndexError):
        bm.set(-1)


def test_encode_bitmap_known_values():
    assert encode_bitmap(Bitmap(4, 0b1010)) == ("0a", "4")
    assert encode_bitmap(Bitmap(8, 0)) == ("00", "8")
    # padding covers whole bytes, so 12 pieces need 4 hex digits
    assert encode_bitmap(Bitmap(12, 0xFFF)) == ("0fff", "12")


@pytest.mark.parametrize("hex_text,count_text", [
    ("zz", "4"),          # not hex
    ("0a", "x"),          # not a count
    ("0a", "0"),          # no pieces
    ("0a0a", "4"),        # wrong length
    ("0A", "4"),          # uppercase rejected to keep encoding canonical
    ("ff", "4"),          # bits above the declared count
])
def test_decode_bitmap_rejects(hex_text, count_text):
    with pytest.raises(MalformedBitmap):
        decode_bitmap(hex_text, count_text)


@given(st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_bitmap_codec_round_trip(pair):
    n_pieces, bits = pair
    bm = Bitmap(n_pieces, bits)
    hex_text, count_text = encode_bitmap(bm)
    assert decode_bitmap(hex_text, count_text) == bm


# -- classification -----------------------------------------------------------

def test_classify_core_layout():
    assert classify(parse_name("/ntorrent/movie1/data/7")) == PieceInterest("movie1", 7)
    assert classify(parse_name("/ntorrent/beacon/n3")) == Beacon("n3")
    assert classify(parse_name("/other/x")) == Unknown()
    hex_text, count_text = encode_bitmap(Bitmap(4, 0b1010))
    announce = classify(parse_name(f"/ntorrent/movie2/bitmap/n1/{hex_text}/{count_text}"))
    assert announce == BitmapAnnounce("movie2", "n1", Bitmap(4, 0b1010))


@pytest.mark.parametrize("text,expected", [
    ("/ntorrent", Unknown()),
    ("/ntorrent/beacon", Unknown()),            # beacon needs exactly one node part
    ("/ntorrent/beacon/n1/extra", Unknown()),
    ("/ntorrent/movie1/data/x", Unknown()),     # piece index not an integer
    ("/ntorrent/movie1/data/-1", Unknown()),
    ("/ntorrent/movie1/bitmap/n1/zz/4", Unknown()),
    ("/ntorrent/movie1/bitmap/n1/0a", Foreign("movie1")),  # wrong arity, still the torrent's
    ("/ntorrent/movie1", Foreign("movie1")),
    ("/ntorrent/movie1/anything/else/at/all/deep", Foreign("movie1")),
    ("/x/y", Unknown()),
])
def test_classify_degradations(text, expected):
    assert classify(parse_name(text)) == expected


@given(st.lists(component, min_size=1, max_size=6))
def test_classify_stable_under_rerender(parts):
    name = Name(tuple(parts))
    assert classify(parse_name(render_name(name))) == classify(name)


def test_name_key_and_class_are_computed_once():
    name = parse_name("/ntorrent/movie2/bitmap/n1/0a/4")
    assert name.key == str(name) == "/ntorrent/movie2/bitmap/n1/0a/4"
    assert name.cls == classify(name)
    # cached: the same objects come back on every access
    assert name.key is name.key
    assert name.cls is name.cls
    # equality and hashing still follow the components only
    assert name == parse_name(name.key) and hash(name) == hash(parse_name(name.key))


def test_cached_attributes_are_computed_once_per_object(monkeypatch):
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(names, "render_name", counted(render_name))
    monkeypatch.setattr(names, "classify", counted(classify))
    name = piece_name("movie1", 3)
    twin = piece_name("movie1", 3)
    for _ in range(3):
        assert name.key == str(name) == "/ntorrent/movie1/data/3"
        assert name.cls == PieceInterest("movie1", 3)
    assert calls == {"render_name": 1, "classify": 1}
    # the value belongs to the object, not to its equal twin
    assert twin.key == name.key and twin.cls == name.cls
    assert calls == {"render_name": 2, "classify": 2}
    # Interest.wire calls neither; every read returns the one stored object
    pkt = Interest(name, nonce=7, origin="n0", hop_count=1)
    wire = pkt.wire
    assert wire == "nonce=0000000000000007;hop=1;origin=n0"
    assert all(pkt.wire is wire for _ in range(3))
    assert calls == {"render_name": 2, "classify": 2}


# the beacon keyword is reserved and never names a torrent
@given(st.integers(min_value=0, max_value=500), component.filter(lambda t: t != BEACON_KEYWORD))
def test_piece_names_agree_on_torrent(piece, torrent):
    name = piece_name(torrent, piece)
    cls = classify(name)
    assert isinstance(cls, PieceInterest)
    assert cls.torrent == name.cls.torrent == torrent
    assert cls.piece == piece


def test_builders_render_canonically():
    assert render_name(beacon_name("n7")) == "/ntorrent/beacon/n7"
    assert render_name(piece_name("movie1", 31)) == "/ntorrent/movie1/data/31"
    name = bitmap_announce_name("movie1", "n2", Bitmap(8, 0x80))
    assert render_name(name) == "/ntorrent/movie1/bitmap/n2/80/8"


# -- packets --------------------------------------------------------------------

def test_interest_field_validation():
    name = piece_name("movie1", 0)
    Interest(name, nonce=0, origin="n0")
    Interest(name, nonce=(1 << 64) - 1, origin="n0", hop_count=3)
    with pytest.raises(ValueError):
        Interest(name, nonce=1 << 64, origin="n0")
    with pytest.raises(ValueError):
        Interest(name, nonce=-1, origin="n0")
    with pytest.raises(ValueError):
        Interest(name, nonce=0, origin="n0", hop_count=-1)


def test_data_requires_a_piece_name():
    Data(piece_name("movie1", 2), payload_bytes=1024, origin="n0")
    with pytest.raises(ValueError):
        Data(beacon_name("n0"), payload_bytes=1024, origin="n0")
    with pytest.raises(ValueError):
        Data(piece_name("movie1", 2), payload_bytes=-1, origin="n0")


def test_packets_stay_immutable_and_validated():
    name = piece_name("movie1", 2)
    interest = Interest(name, nonce=9, origin="n0", hop_count=1)
    data = Data(name, payload_bytes=1024, origin="n0", hop_count=1)
    # every receiver of a transmission shares the one packet object
    for pkt, fields in ((interest, ("name", "nonce", "origin", "hop_count", "wire")),
                        (data, ("name", "payload_bytes", "origin", "hop_count"))):
        assert not hasattr(pkt, "__dict__")
        for field in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(pkt, field, getattr(pkt, field, 0))
    # no path builds a packet that its constructor would refuse
    bad_builds = [
        lambda: Interest._make((name, 1 << 64, "n0", 0, "nonce=;hop=0;origin=n0")),
        lambda: interest._replace(nonce=-1),
        lambda: interest._replace(hop_count=-1),
        lambda: Data._make((beacon_name("n0"), 1024, "n0", 0)),
        lambda: data._replace(name=beacon_name("n0")),
        lambda: data._replace(payload_bytes=-1),
        lambda: data._replace(hop_count=-1),
    ]
    for build in bad_builds:
        with pytest.raises((TypeError, ValueError)):
            build()
    # nor one whose wire is stale
    try:
        relayed = interest._replace(hop_count=2)
    except TypeError:
        pass
    else:
        assert relayed.wire == "nonce=0000000000000009;hop=2;origin=n0"
    # a relayed copy's wire names its own hop
    assert Interest(name, 9, "n0", 2).wire == "nonce=0000000000000009;hop=2;origin=n0"
    assert interest.wire == "nonce=0000000000000009;hop=1;origin=n0"


def test_packets_equal_only_packets_of_their_type():
    name = piece_name("movie1", 2)
    interest, data = Interest(name, 5, "n0", 0), Data(name, 5, "n0", 0)
    assert interest == Interest(name, 5, "n0", 0)
    assert hash(interest) == hash(Interest(name, 5, "n0", 0))
    assert data == Data(name, 5, "n0", 0) and not data != Data(name, 5, "n0", 0)
    assert interest != Interest(name, 5, "n0", 1)
    assert interest != data and data != interest
    assert not interest == data and not data == interest
    for pkt in (interest, data):
        plain = tuple(pkt)
        assert pkt != plain and plain != pkt
        assert not pkt == plain and not plain == pkt
