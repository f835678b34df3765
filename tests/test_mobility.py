"""Random-walk legs, reflective bounds, and the broadcast reachability rule."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ntorrent_sim import mobility
from ntorrent_sim.mobility import (
    SPEED_MAX_MS,
    SPEED_MIN_MS,
    GridBounds,
    Leg,
    Position,
    RadioConfig,
    WalkState,
    broadcast_receivers,
    in_range,
    position_at,
    walk_epoch,
    _advance_reflect,
)
from ntorrent_sim.scenario import ScenarioConfig, ValidationError, validate


def test_walk_epoch_draws_lawful_legs():
    rng = random.Random(5)
    for _ in range(2000):
        state = walk_epoch(rng)
        assert 0.0 <= state.heading_rad < 2.0 * math.pi
        assert SPEED_MIN_MS <= state.speed_ms <= SPEED_MAX_MS


def test_heading_distribution_uniform():
    rng = random.Random(11)
    bins = [0] * 24
    n = 24_000
    for _ in range(n):
        state = walk_epoch(rng)
        bins[int(state.heading_rad / (2.0 * math.pi) * 24)] += 1
    result = stats.chisquare(bins)
    assert result.pvalue > 0.01


def test_speed_distribution_uniform():
    rng = random.Random(12)
    speeds = [walk_epoch(rng).speed_ms for _ in range(24_000)]
    scaled = [(s - SPEED_MIN_MS) / (SPEED_MAX_MS - SPEED_MIN_MS) for s in speeds]
    result = stats.kstest(scaled, "uniform")
    assert result.pvalue > 0.01


def _fold(x0: float, v: float, dt_s: float, limit: float) -> float:
    """Reflection by unfolding: mirror-tile the segment and fold back."""
    s = (x0 + v * dt_s) % (2.0 * limit)
    return s if s <= limit else 2.0 * limit - s


@given(
    limit=st.floats(10.0, 300.0),
    frac=st.floats(0.0, 1.0),
    v=st.floats(-10.0, 10.0),
    dt_s=st.floats(0.0, 120.0),
)
@settings(max_examples=400)
def test_reflection_matches_unfolding_oracle(limit, frac, v, dt_s):
    x0 = frac * limit
    got = _advance_reflect(x0, v, dt_s, limit)
    want = _fold(x0, v, dt_s, limit)
    assert got == pytest.approx(want, abs=1e-6)
    assert 0.0 <= got <= limit


@pytest.mark.parametrize("limit", [1e-3, 1e-300, 5e-324])
def test_reflection_on_a_tiny_grid_returns(limit):
    # a 10 m leg crosses the walls 10 / limit times; once a crossing's time is
    # below dt_s's rounding step, stepping through them never ends
    got = _advance_reflect(0.3 * limit, 10.0, 1.0, limit)
    assert 0.0 < got <= limit
    assert got == pytest.approx(_fold(0.3 * limit, 10.0, 1.0, limit), abs=limit)


def test_exact_wall_landing_is_nudged_inside():
    # 2 m/s straight at a wall 10 m away for 5 s lands exactly on it
    got = _advance_reflect(0.0, 2.0, 5.0, 10.0)
    assert got == math.nextafter(10.0, 0.0)
    got = _advance_reflect(10.0, -2.0, 5.0, 10.0)
    assert got == math.nextafter(0.0, 10.0)


def test_reflection_preserves_angle():
    bounds = GridBounds(100.0, 100.0)
    state = WalkState(heading_rad=math.pi / 4.0, speed_ms=math.sqrt(2.0))
    # 1 m/s per axis from (95, 5): hits x=100 after 5 s, then comes back
    pos = position_at(Position(95.0, 5.0), state, 0, 15_000_000, bounds)
    assert pos.x == pytest.approx(90.0)
    assert pos.y == pytest.approx(20.0)


def test_leg_velocity_is_computed_once(monkeypatch):
    cos_calls = []
    cos = math.cos

    def counted_cos(x):
        cos_calls.append(x)
        return cos(x)

    state = WalkState(heading_rad=0.5, speed_ms=4.0)
    expected = (4.0 * math.cos(0.5), 4.0 * math.sin(0.5))
    bounds = GridBounds(1000.0, 1000.0)
    monkeypatch.setattr(math, "cos", counted_cos)
    for t_us in (1_000_000, 2_000_000, 3_000_000):
        position_at(Position(500.0, 500.0), state, 0, t_us, bounds)
        assert state.velocity == expected
    assert cos_calls == [0.5]


def test_position_query_before_leg_start_rejected():
    state = WalkState(0.0, 5.0)
    with pytest.raises(ValueError):
        position_at(Position(0.0, 0.0), state, 1_000, 999, GridBounds(10.0, 10.0))


def test_a_straight_line_window_that_ends_on_a_whole_microsecond(monkeypatch):
    # from x = 50 at 10 m/s toward the wall at x = 100, the leg meets it after
    # exactly 5 s: that instant is inside the window, the next microsecond is not
    bounds = GridBounds(100.0, 100.0)
    state = WalkState(heading_rad=0.0, speed_ms=10.0)
    leg = Leg(Position(50.0, 30.0), state, 2_000_000, bounds)
    exact = position_at
    slow = []

    def counting_position_at(*args):
        slow.append(args[3])
        return exact(*args)

    monkeypatch.setattr(mobility, "position_at", counting_position_at)
    at_wall = leg.position(7_000_000)
    assert at_wall == (math.nextafter(100.0, 0.0), 30.0)
    assert slow == []
    bounced = leg.position(7_000_001)
    assert slow == [7_000_001]
    assert 99.9999 < bounced.x < at_wall.x
    for t_us, pos in ((7_000_000, at_wall), (7_000_001, bounced)):
        want = exact(leg.anchor, state, leg.t0_us, t_us, bounds)
        assert [c.hex() for c in pos] == [c.hex() for c in want]
    with pytest.raises(ValueError):
        leg.position(1_999_999)


def test_a_leg_from_a_wall_starts_just_inside_it():
    # a drawn or placed anchor may lie on 0.0; position_at moves it one step in
    bounds = GridBounds(100.0, 100.0)
    state = WalkState(heading_rad=math.pi, speed_ms=10.0)
    leg = Leg(Position(0.0, 30.0), state, 0, bounds)
    assert leg.position(0) == position_at(leg.anchor, state, 0, 0, bounds)
    assert leg.position(0).x == math.nextafter(0.0, 100.0)


@given(
    heading=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    speed=st.floats(SPEED_MIN_MS, SPEED_MAX_MS),
    x=st.floats(0.0, 50.0),
    y=st.floats(0.0, 80.0),
    dt_us=st.integers(0, 600_000_000),
)
@settings(max_examples=300)
def test_positions_stay_in_bounds(heading, speed, x, y, dt_us):
    bounds = GridBounds(50.0, 80.0)
    state = WalkState(heading, speed)
    pos = position_at(Position(x, y), state, 0, dt_us, bounds)
    assert 0.0 <= pos.x <= bounds.width
    assert 0.0 <= pos.y <= bounds.height


def test_grid_and_radio_validation():
    # the rules live in scenario.validate, the one place config is checked
    def check(grid=GridBounds(300.0, 300.0), radio=RadioConfig(60.0, 500, 0.0)):
        return validate(ScenarioConfig(nodes=[], torrents=[], grid=grid, radio=radio))

    check()
    with pytest.raises(ValidationError, match="grid"):
        check(grid=GridBounds(0.0, 10.0))
    with pytest.raises(ValidationError, match="range"):
        check(radio=RadioConfig(0.0, 500, 0.0))
    with pytest.raises(ValidationError, match="one_hop_delay_us"):
        check(radio=RadioConfig(60.0, 0, 0.0))
    with pytest.raises(ValidationError, match="loss_prob"):
        check(radio=RadioConfig(60.0, 500, 1.5))


def test_range_disk_is_closed():
    radio = RadioConfig(60.0, 500, 0.0)
    assert in_range(Position(0.0, 0.0), Position(60.0, 0.0), radio)
    assert not in_range(Position(0.0, 0.0), Position(60.0000001, 0.0), radio)
    assert in_range(Position(3.0, 4.0), Position(0.0, 0.0), RadioConfig(5.0, 500, 0.0))


def test_broadcast_receivers_match_pairwise_scan():
    rng = random.Random(3)
    positions = {
        f"n{i}": Position(rng.uniform(0, 200), rng.uniform(0, 200))
        for i in range(30)
    }
    radio = RadioConfig(60.0, 500, 0.0)
    for sender in positions:
        got = broadcast_receivers(sender, positions, radio, random.Random(0))
        want = [nid for nid, pos in positions.items()
                if nid != sender and in_range(positions[sender], pos, radio)]
        assert got == want


def test_broadcast_excludes_sender_and_consumes_no_rng_without_loss():
    positions = {"a": Position(0.0, 0.0), "b": Position(10.0, 0.0)}
    radio = RadioConfig(60.0, 500, 0.0)
    rng = random.Random(1)
    before = rng.getstate()
    assert broadcast_receivers("a", positions, radio, rng) == ["b"]
    assert rng.getstate() == before


def test_broadcast_loss_draws():
    positions = {"a": Position(0.0, 0.0), "b": Position(10.0, 0.0),
                 "c": Position(20.0, 0.0)}
    all_lost = RadioConfig(60.0, 500, 1.0)
    assert broadcast_receivers("a", positions, all_lost, random.Random(1)) == []
    half = RadioConfig(60.0, 500, 0.5)
    kept = sum(
        len(broadcast_receivers("a", positions, half, random.Random(seed)))
        for seed in range(2000)
    )
    assert 0.45 * 4000 < kept < 0.55 * 4000
