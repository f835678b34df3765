"""Event loop ordering, clock bounds, seeded stream derivation and integer
draws."""

import random

import pytest

from ntorrent_sim.engine import (
    RNG_PURPOSES,
    EventLoop,
    SchedulingInPast,
    derive_stream,
    draw_int,
    _fnv1a64,
    _splitmix64,
)


def test_ties_dispatch_in_scheduling_order():
    loop = EventLoop()
    loop.schedule(5, "a")
    loop.schedule(5, "b")
    loop.schedule(3, "c")
    seen = []
    loop.run_until(10, lambda kind, target, payload: seen.append(kind))
    assert seen == ["c", "a", "b"]


class Unordered:
    """A payload that refuses every comparison."""

    def __lt__(self, other):
        raise AssertionError("a payload was compared")

    __gt__ = __le__ = __ge__ = __lt__


def test_equal_times_never_compare_payloads():
    # same time, kind and target: only the sequence number can order these
    loop = EventLoop()
    first, second, third = Unordered(), Unordered(), Unordered()
    loop.schedule(5, "tick", "n0", first)
    loop.schedule(5, "tick", "n0", second)
    seen = []

    def handler(kind, target, payload):
        seen.append(payload)
        if payload is first:
            # scheduled at now: runs after the same-time events already queued
            loop.schedule(loop.now_us, "tick", "n0", third)

    loop.run_until(10, handler)
    assert seen == [first, second, third]


def test_zero_delay_is_legal_and_past_is_not():
    loop = EventLoop()
    loop.schedule(7, "x")
    loop.run_until(7, lambda kind, target, payload: None)
    loop.schedule(7, "same-time")  # now == 7, still allowed
    with pytest.raises(SchedulingInPast):
        loop.schedule(6, "late")


def test_event_at_horizon_is_dispatched():
    # the run boundary is closed
    loop = EventLoop()
    loop.schedule(10, "edge")
    seen = []
    report = loop.run_until(10, lambda kind, target, payload: seen.append(loop.now_us))
    assert seen == [10]
    assert report.events_dispatched == 1
    assert loop.now_us == 10


def test_empty_queue_still_advances_clock():
    loop = EventLoop()
    report = loop.run_until(123, lambda kind, target, payload: None)
    assert report.events_dispatched == 0
    assert loop.now_us == 123


def test_conservation_of_events():
    loop = EventLoop()
    for t in (1, 4, 9, 16, 25):
        loop.schedule(t, "tick")
    report = loop.run_until(10, lambda kind, target, payload: None)
    assert report.events_scheduled == 5
    assert report.events_dispatched == 3
    # the two not dispatched are still queued, and run once the horizon reaches them
    seen = []
    later = loop.run_until(30, lambda kind, target, payload: seen.append(loop.now_us))
    assert seen == [16, 25]
    assert later.events_dispatched == later.events_scheduled == 5


def test_a_batch_behaves_as_its_single_events_would():
    def dispatch_order(schedule_middle):
        loop = EventLoop()
        loop.schedule(5, "before")
        schedule_middle(loop)
        loop.schedule(5, "after")
        seen = []

        def handler(kind, target, payload):
            for one in target if isinstance(target, list) else [target]:
                seen.append((loop.now_us, kind, one, payload))
                if kind == "deliver" and one == "a":
                    # scheduled at now: runs after every event queued at now
                    loop.schedule(loop.now_us, "echo", one)

        return seen, loop.run_until(10, handler)

    singles, single_report = dispatch_order(
        lambda loop: [loop.schedule(5, "deliver", target, "pkt") for target in "abc"])
    batched, batch_report = dispatch_order(
        lambda loop: loop.schedule_batch(5, "deliver", list("abc"), "pkt"))
    assert batched == singles == [
        (5, "before", None, None), (5, "deliver", "a", "pkt"), (5, "deliver", "b", "pkt"),
        (5, "deliver", "c", "pkt"), (5, "after", None, None), (5, "echo", "a", None)]
    assert batch_report == single_report
    assert (batch_report.events_scheduled, batch_report.events_dispatched) == (6, 6)


def test_a_batch_counts_one_event_per_target():
    loop = EventLoop()
    loop.schedule_batch(3, "deliver", ["a", "b", "c"])
    loop.schedule_batch(4, "deliver", [])  # schedules nothing
    loop.schedule_batch(20, "deliver", ["a", "b", "c"])
    loop.schedule(25, "tick")
    report = loop.run_until(10, lambda kind, target, payload: None)
    assert report.events_scheduled == 7
    assert report.events_dispatched == 3
    with pytest.raises(SchedulingInPast):
        loop.schedule_batch(9, "late", ["a"])
    # the four not dispatched are a batch of three and one single event, still queued
    seen = []
    later = loop.run_until(30, lambda kind, target, payload: seen.append(target))
    assert seen == [["a", "b", "c"], None]
    assert later.events_dispatched == later.events_scheduled == 7


def test_clock_is_monotone_under_rescheduling():
    loop = EventLoop()
    times = []

    def handler(kind, target, payload):
        times.append(loop.now_us)
        if loop.now_us < 40:
            loop.schedule(loop.now_us + 10, "next")

    loop.schedule(0, "start")
    loop.run_until(100, handler)
    assert times == sorted(times) == [0, 10, 20, 30, 40]


# -- RNG derivation --------------------------------------------------------------

def test_mixer_matches_published_vectors():
    # splitmix64 outputs for seeds 0 and 1, from the reference implementation
    assert _splitmix64(0) == 0xE220A8397B1DCDAF
    assert _splitmix64(1) == 0x910A2DEC89025CC1
    # FNV-1a 64-bit offset basis and standard test strings
    assert _fnv1a64(b"") == 0xCBF29CE484222325
    assert _fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert _fnv1a64(b"foobar") == 0x85944171F73967E8


def test_derive_stream_reference_outputs():
    # frozen regression values; a change here breaks replay of every recorded run
    rng = derive_stream(42, "app", "n0")
    assert [rng.getrandbits(64) for _ in range(3)] == [
        6080661072474160550,
        2197774952468734062,
        15979908238238853550,
    ]
    rng = derive_stream(42, "strategy", "n0")
    assert rng.getrandbits(64) == 14621734501529223566


def test_same_triple_same_stream():
    a = derive_stream(7, "mobility", "n3")
    b = derive_stream(7, "mobility", "n3")
    assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]


def test_streams_differ_across_nodes():
    first_draws = set()
    for i in range(1000):
        rng = derive_stream(7, "mobility", f"n{i}")
        first_draws.add(rng.getrandbits(64))
    assert len(first_draws) == 1000


def test_streams_differ_across_purposes_and_seeds():
    draws = {
        purpose: derive_stream(7, purpose, "n0").getrandbits(64)
        for purpose in RNG_PURPOSES
    }
    assert len(set(draws.values())) == len(RNG_PURPOSES)
    assert derive_stream(8, "app", "n0").getrandbits(64) != draws["app"]


def test_unknown_purpose_rejected():
    with pytest.raises(ValueError):
        derive_stream(1, "weather", "n0")


# widths 1, 2, 2^k and 2^k + 1 (rejection draws most often just past a power
# of two), from negative, zero and positive low ends
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 16, 17, 2**16, 2**16 + 1, 2**40, 2**40 + 1])
@pytest.mark.parametrize("lo", [-(2**20) - 3, -1, 0, 1_000])
def test_draw_int_draws_as_randint_draws(width, lo):
    ours, theirs = random.Random(width * 31 + lo), random.Random(width * 31 + lo)
    hi = lo + width - 1
    for _ in range(200):
        drawn = draw_int(ours, lo, hi)
        assert drawn == theirs.randint(lo, hi)
        assert lo <= drawn <= hi
    # the same bits were consumed, so the streams go on alike
    assert ours.getstate() == theirs.getstate()


def test_draw_int_refuses_an_empty_range():
    with pytest.raises(ValueError):
        draw_int(random.Random(1), 5, 4)
