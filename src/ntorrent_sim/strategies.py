"""Forwarding strategies: probabilistic pure forwarding and peer relaying.

A pure forwarder relays any interest it hears with a configured probability,
after a short random wait. A peer relays interests for torrents other than
its own only while the torrent's name is fresh in its overheard-name table:
the first hearing within the memory window learns the name and drops the
interest, later hearings forward it and refresh the window.

Each rule is one function returning (reason, delay_us). The reason is the
trace's DECISION code and is itself the verdict; delay_us is the jitter wait
of a forward (PROB_FWD, FOREIGN_FWD) and None for every other reason.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .engine import draw_int
from .names import Beacon, Interest, Unknown
from . import trace as tc


@dataclass(frozen=True)
class StrategyParams:
    """Strategy settings shared by every node; scenario.validate checks them."""

    p_forward: float = 1.0
    jitter_min_us: int = 2_000
    jitter_max_us: int = 10_000
    t_mem_us: int = 30_000_000


class OverheardNameTable:
    """Torrent names heard recently, each with an expiry timestamp."""

    def __init__(self) -> None:
        self._expiry: dict[str, int] = {}

    def live(self, torrent: str, now_us: int) -> bool:
        expiry = self._expiry.get(torrent)
        return expiry is not None and expiry > now_us

    def touch(self, torrent: str, now_us: int, t_mem_us: int) -> None:
        self._expiry[torrent] = now_us + t_mem_us

    def gc(self, now_us: int) -> int:
        """Forget expired names; expiry exactly at now counts as expired."""
        if not self._expiry:
            return 0
        stale = [t for t, expiry in self._expiry.items() if expiry <= now_us]
        for torrent in stale:
            del self._expiry[torrent]
        return len(stale)


def pure_decide(params: StrategyParams, rng: random.Random) -> tuple[str, int | None]:
    """One forward-or-not draw; a forward waits a uniform jitter first."""
    if rng.random() < params.p_forward:
        return tc.REASON_PROB_FWD, draw_int(rng, params.jitter_min_us, params.jitter_max_us)
    return tc.REASON_PROB_DROP, None


def peer_decide(params: StrategyParams, own_torrent: str, table: OverheardNameTable,
                interest: Interest, now_us: int,
                rng: random.Random) -> tuple[str, int | None]:
    """Own traffic to the app; foreign torrents gated by the overheard table."""
    cls = interest.name.cls
    if isinstance(cls, Beacon):
        return tc.REASON_OWN_APP, None
    if isinstance(cls, Unknown):
        return tc.REASON_UNKNOWN_DROP, None
    torrent = cls.torrent
    if torrent == own_torrent:
        return tc.REASON_OWN_APP, None
    learned = table.live(torrent, now_us)
    table.touch(torrent, now_us, params.t_mem_us)
    if learned:
        return tc.REASON_FOREIGN_FWD, draw_int(rng, params.jitter_min_us, params.jitter_max_us)
    return tc.REASON_FOREIGN_LEARN, None
