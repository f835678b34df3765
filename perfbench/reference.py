"""A fixed reference workload that measures how fast the host runs right now.

The benchmark host is shared: other tenants slow it in phases that last from
under a second to many minutes, and identical work can take 20% longer in one
phase than in the next. `run.py` times this workload between the simulator's
units, and divides each unit's time by the speed measured next to it.

The workload is the benchmark's own code and never changes with the
simulator: a small discrete-event loop in pure Python (a heap of frozen
dataclass events, dict updates, name strings split and formatted, a seeded
RNG), the same kinds of interpreter work the simulator does.
"""
from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass

# Events one reference run dispatches, and the seconds it takes on a quiet
# baseline host (a shared 2-vCPU Intel Xeon VM, CPython 3.11.7). A speed
# factor of 1.0 means the host runs the reference at that speed.
REFERENCE_EVENTS = 12_000
REFERENCE_S = 0.040


@dataclass(frozen=True)
class _Event:
    time_us: int
    seq: int
    kind: str
    name: str


def _workload(n_events: int) -> int:
    rng = random.Random(20181207)
    heap: list[tuple[int, int, _Event]] = []
    seq = 0
    for i in range(64):
        heap.append((i * 977 % 4096, i, _Event(i * 977 % 4096, i, "tx",
                                               f"/movie{i % 3}/piece/{i % 32}")))
        seq += 1
    heapq.heapify(heap)
    table: dict[tuple[str, int], int] = {}
    checksum = 0
    for step in range(n_events):
        now, _, event = heapq.heappop(heap)
        parts = event.name.split("/")
        key = (parts[1], int(parts[3]))
        table[key] = table.get(key, 0) + 1
        checksum = (checksum * 31 + len(parts[1]) + key[1]) & 0xFFFFFFFF
        delay = 1 + int(rng.random() * 500)
        kind = "rx" if event.kind == "tx" else "tx"
        heapq.heappush(heap, (now + delay, seq, _Event(
            now + delay, seq, kind, f"/movie{key[1] % 3}/piece/{(key[1] + step) % 32}")))
        seq += 1
        if step % 256 == 0:
            table = {k: v for k, v in table.items() if v % 4}
    return checksum


def speed_sample() -> float:
    """Seconds of one reference run divided by REFERENCE_S: above 1.0 the
    host is slower than the quiet baseline."""
    start = time.perf_counter()
    _workload(REFERENCE_EVENTS)
    return (time.perf_counter() - start) / REFERENCE_S
