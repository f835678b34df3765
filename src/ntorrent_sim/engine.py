"""Deterministic discrete-event core.

The clock is an integer microsecond counter. An event is a plain
(time, seq, kind, target, payload) tuple on a binary heap. The insertion
sequence is unique, so events are totally ordered by (time, seq), a heap
comparison never reaches a payload, ties dispatch in scheduling order and a
run is a pure function of the scenario and the master seed. Randomness is
split into named per-node streams, each derived from the master seed by
derive_stream, which keeps one node's draw sequence independent of event
interleaving at other nodes. Each stream has one owner, the node record that
declares it as a `stream` attribute and derives it on its first read, so a
stream that nothing draws from is never derived. `stream` is a kind of
`cached`, the compute-once attribute that names and mobility use too.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable

_MASK64 = (1 << 64) - 1

RNG_PURPOSES = ("mobility", "strategy", "app", "medium")


class SchedulingInPast(RuntimeError):
    """An event was scheduled before the current clock."""


@dataclass(frozen=True)
class RunReport:
    events_dispatched: int
    events_scheduled: int
    events_remaining: int
    final_time_us: int


class cached:
    """A method read as an attribute: the first read computes the value and
    stores it in the instance __dict__, which later reads find first. Works on
    frozen dataclasses and, unlike functools.cached_property before CPython
    3.12, takes no lock."""

    def __init__(self, compute: Callable) -> None:
        self._compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, instance: object, owner: type | None = None):
        if instance is None:
            return self
        value = instance.__dict__[self._name] = self._compute(instance)
        return value


class stream(cached):
    """A node record's RNG stream for purpose: the first read derives
    derive_stream(record.master_seed, purpose, record.node_id)."""

    def __init__(self, purpose: str) -> None:
        super().__init__(lambda record: derive_stream(record.master_seed, purpose,
                                                      record.node_id))


class EventLoop:
    """Binary-heap event queue with a monotonic integer-microsecond clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, str, str | None, object]] = []
        self._next_seq = 0
        self._dispatched = 0
        self.now_us = 0

    def schedule(self, time_us: int, kind: str, target: str | None = None,
                 payload: object = None) -> None:
        if time_us < self.now_us:
            raise SchedulingInPast(f"t={time_us} is before now={self.now_us}")
        heapq.heappush(self._heap, (time_us, self._next_seq, kind, target, payload))
        self._next_seq += 1

    def run_until(self, t_end_us: int,
                  handler: Callable[[str, str | None, object], None]) -> RunReport:
        """Dispatch events with time <= t_end_us in (time, seq) order, calling
        handler(kind, target, payload) with now_us set to the event's time.

        The clock finishes at t_end_us even when the queue drains early.
        """
        heap = self._heap
        while heap and heap[0][0] <= t_end_us:
            self.now_us, _, kind, target, payload = heapq.heappop(heap)
            self._dispatched += 1
            handler(kind, target, payload)
        self.now_us = t_end_us
        return RunReport(
            events_dispatched=self._dispatched,
            events_scheduled=self._next_seq,
            events_remaining=len(self._heap),
            final_time_us=self.now_us,
        )


# ---------------------------------------------------------------------------
# seeded stream derivation

def _splitmix64(x: int) -> int:
    # Steele/Lea/Flood mixer; published reference constants.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def derive_stream(master_seed: int, purpose: str, node: str) -> random.Random:
    """Independent generator for (seed, purpose, node); MT19937 under the hood.

    The 64-bit seed is master_seed chained through splitmix64 with FNV-1a
    hashes of the purpose and node labels, so nearby master seeds and similar
    labels still land far apart in seed space.
    """
    if purpose not in RNG_PURPOSES:
        raise ValueError(f"unknown rng purpose {purpose!r}")
    state = _splitmix64(master_seed & _MASK64)
    state = _splitmix64(state ^ _fnv1a64(purpose.encode()))
    state = _splitmix64(state ^ _fnv1a64(node.encode()))
    return random.Random(state)

