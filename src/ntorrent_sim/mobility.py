"""Bounded random-walk mobility and the unit-disk broadcast medium.

Walkers pick a fresh heading and speed at fixed 20 s epochs and travel in a
straight line between epochs, reflecting specularly off the grid walls; a
leg's velocity is computed once, and so is its straight-line window, the time
it runs before it first meets a wall, within which its position is plain
arithmetic. Radio reception is a closed disk: every node within range hears a
broadcast after one fixed hop delay, except the sender itself.
broadcast_receivers states that rule over a set of exact positions. The world
applies the same rule without most of them (see `World._hearers_near`): bounds
on how far a walker can have moved decide every candidate but those near the
range edge, which get the exact test, and the same bounds tell how long a
candidate stays surely out of range or surely in range, during which it is
decided without any arithmetic; a static sender whose candidates are all
static makes the test once. A Leg only computes positions: the World keeps
each node's last exact position and returns it again for a second query in the
same microsecond.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

from .engine import cached

EPOCH_INTERVAL_US = 20_000_000
SPEED_MIN_MS = 2.0
SPEED_MAX_MS = 10.0

TWO_PI = 2.0 * math.pi


class Position(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class GridBounds:
    width: float
    height: float


@dataclass(frozen=True)
class WalkState:
    heading_rad: float
    speed_ms: float

    @cached
    def velocity(self) -> tuple[float, float]:
        """(vx, vy) in m/s, computed once per leg."""
        return (self.speed_ms * math.cos(self.heading_rad),
                self.speed_ms * math.sin(self.heading_rad))


@dataclass(frozen=True)
class RadioConfig:
    range_m: float
    one_hop_delay_us: int
    loss_prob: float


def walk_epoch(rng: random.Random) -> WalkState:
    """Draw the next leg: heading uniform on [0, 2pi), speed uniform on [2, 10] m/s."""
    heading = rng.uniform(0.0, TWO_PI) % TWO_PI
    speed = rng.uniform(SPEED_MIN_MS, SPEED_MAX_MS)
    return WalkState(heading, speed)


def _wall_time(coord: float, velocity: float, limit: float) -> float:
    """Seconds until coord, moving at velocity, meets a wall of [0, limit]."""
    if velocity > 0.0:
        return (limit - coord) / velocity
    if velocity < 0.0:
        return coord / -velocity
    return math.inf


def _nudge_inside(coord: float, limit: float) -> float:
    """A coordinate on or past a wall, moved to the nearest float inside."""
    if coord <= 0.0:
        return math.nextafter(0.0, limit)
    if coord >= limit:
        return math.nextafter(limit, 0.0)
    return coord


def _advance_reflect(coord: float, velocity: float, dt_s: float, limit: float) -> float:
    # walk wall crossings one at a time; each bounce flips the velocity sign
    while dt_s > 0.0 and velocity != 0.0:
        t_wall = _wall_time(coord, velocity, limit)
        if t_wall >= dt_s:
            coord += velocity * dt_s
            break
        if abs(velocity) * dt_s > 2.0 * limit:
            # a full bounce period or more is left: fold the unrolled path, since
            # on a grid tiny against the leg, dt_s -= t_wall stops shrinking dt_s
            coord = (coord + velocity * dt_s) % (2.0 * limit)
            coord = coord if coord <= limit else 2.0 * limit - coord
            break
        coord = limit if velocity > 0.0 else 0.0
        velocity = -velocity
        dt_s -= t_wall
    return _nudge_inside(coord, limit)


def position_at(initial: Position, state: WalkState, t0_us: int, t_us: int,
                bounds: GridBounds) -> Position:
    """Straight-line position at t_us for a leg started at t0_us from initial.

    Specular reflection preserves the angle against each wall; the two axes
    decouple, so each coordinate reflects independently.
    """
    if t_us < t0_us:
        raise ValueError("query time precedes leg start")
    dt_s = (t_us - t0_us) / 1e6
    vx, vy = state.velocity
    return Position(
        _advance_reflect(initial.x, vx, dt_s, bounds.width),
        _advance_reflect(initial.y, vy, dt_s, bounds.height),
    )


class Leg:
    """A walk leg: state's velocity from anchor, starting at t0_us.

    position(t_us) is position_at(anchor, state, t0_us, t_us, bounds), bit for
    bit. Until the leg first meets a wall, _advance_reflect takes its first
    branch on both axes, so within that window, computed when the leg is made,
    the position is anchor + v * dt_s nudged inside, without position_at.
    Each query computes; the World keeps the last position it asked for.
    """

    __slots__ = ("anchor", "state", "t0_us", "bounds", "_window")

    def __init__(self, anchor: Position, state: WalkState, t0_us: int,
                 bounds: GridBounds) -> None:
        self.anchor = anchor
        self.state = state
        self.t0_us = t0_us
        self.bounds = bounds
        vx, vy = state.velocity
        self._window = min(_wall_time(anchor.x, vx, bounds.width),
                           _wall_time(anchor.y, vy, bounds.height))

    def position(self, t_us: int) -> Position:
        dt_s = (t_us - self.t0_us) / 1e6
        x0, y0 = self.anchor
        vx, vy = self.state.velocity
        width, height = self.bounds.width, self.bounds.height
        if 0.0 <= dt_s <= self._window:
            x = x0 + vx * dt_s
            y = y0 + vy * dt_s
            if not (0.0 < x < width and 0.0 < y < height):
                x, y = _nudge_inside(x, width), _nudge_inside(y, height)
            # tuple.__new__ skips the NamedTuple's Python-level __new__; same type
            return tuple.__new__(Position, (x, y))
        return position_at(self.anchor, self.state, self.t0_us, t_us, self.bounds)


def in_range(a: Position, b: Position, radio: RadioConfig) -> bool:
    """Closed-disk reception test."""
    return math.hypot(a.x - b.x, a.y - b.y) <= radio.range_m


def broadcast_receivers(sender: str, positions: dict[str, Position],
                        radio: RadioConfig, rng: random.Random | None) -> list[str]:
    """Nodes that receive a transmission sent now by sender.

    Iterates positions in insertion order so loss draws are reproducible.
    The sender never hears itself. With loss_prob 0 no randomness is consumed
    and rng may be None.
    """
    origin = positions[sender]
    receivers = []
    for node_id, pos in positions.items():
        if node_id == sender:
            continue
        if not in_range(origin, pos, radio):
            continue
        if radio.loss_prob > 0.0 and rng.random() < radio.loss_prob:
            continue
        receivers.append(node_id)
    return receivers
