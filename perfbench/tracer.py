"""Outside-in per-layer tracer for ntorrent_sim.

The tracer wraps public functions of the simulator from the outside; it
changes no file of the program. Each target is found by identity: every
module-level binding of the function object in any loaded ``ntorrent_sim``
module is replaced (``from .names import classify`` copies the binding into
``forwarding`` and ``strategies``), and methods are replaced on their class.
``restore`` puts every original object back.

Each wrapper is a span. A call stack gives self time: a span's duration minus
the duration of the wrapped spans it called. Calls are counted per (label,
parent label), so a count can be split by caller.

A target that no longer exists is recorded in ``missing`` instead of failing,
so the benchmark still runs after a refactor removes or renames a function.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

PACKAGE = "ntorrent_sim"

# (label, module, qualified name). Several targets may share one label; their
# counts and times add up.
TARGETS = [
    ("engine.schedule", "engine", "EventLoop.schedule"),
    ("engine.run_until", "engine", "EventLoop.run_until"),
    ("engine.derive", "engine", "derive_stream"),
    ("mobility.position_at", "mobility", "position_at"),
    ("mobility.receivers", "mobility", "broadcast_receivers"),
    ("mobility.in_range", "mobility", "in_range"),
    ("mobility.walk_epoch", "mobility", "walk_epoch"),
    ("world.init", "world", "World.__init__"),
    ("world.run", "world", "World.run"),
    ("world.position_of", "world", "World.position_of"),
    ("world.metrics", "world", "World.metrics"),
    ("world.run_scenario", "world", "run_scenario"),
    ("forwarding.interest", "forwarding", "on_incoming_interest"),
    ("forwarding.data", "forwarding", "on_incoming_data"),
    ("forwarding.emit", "forwarding", "on_data_emission"),
    ("forwarding.gc", "forwarding", "pit_gc"),
    ("strategies.decide", "strategies", "pure_decide"),
    ("strategies.decide", "strategies", "peer_decide"),
    ("app.other", "app", "PeerApp.start"),
    ("app.other", "app", "PeerApp.on_beacon_timer"),
    ("app.other", "app", "PeerApp.on_retry_timer"),
    ("app.other", "app", "PeerApp.on_receive_beacon"),
    ("app.bitmap", "app", "PeerApp.on_receive_bitmap"),
    ("app.other", "app", "PeerApp.on_receive_piece"),
    ("app.other", "app", "PeerApp.on_receive_piece_interest"),
    ("app.other", "app", "compute_missing"),
    ("names.classify", "names", "classify"),
    ("names.render", "names", "render_name"),
    ("names.decode_bitmap", "names", "decode_bitmap"),
    ("trace.write", "trace", "write_trace_csv"),
    ("trace.write", "trace", "write_metrics_csv"),
    ("trace.write", "trace", "write_positions_csv"),
    ("trace.metrics", "trace", "metrics_from_trace"),
    ("scenario.build", "scenario", "build_random_field"),
    ("scenario.build", "scenario", "build_five_node"),
    ("scenario.build", "scenario", "load_scenario"),
    ("scenario.build", "scenario", "scenario_from_json"),
    ("scenario.build", "scenario", "validate"),
    ("scenario.build", "scenario", "with_p_forward"),
    ("oracle", "oracle", "reachability_oracle"),
]


class Missing(Exception):
    """A metric needs a label none of whose targets exists any more."""


# The handler given to EventLoop.run_until (World._dispatch) runs as a span of
# its own, so the engine's self time excludes the work of the handler.
DISPATCH = "world.dispatch"


def _resolve(module: str, qualname: str):
    """(owner, attribute, function) for a target, or None if it is gone."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    if not callable(fn):
        return None
    return owner, attr, fn


def _package_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _bindings(owner, attr: str, fn) -> list[tuple[object, str]]:
    """Every place the function object is bound: the class for a method, else
    each loaded ntorrent_sim module that holds it under any name."""
    if isinstance(owner, type):
        return [(owner, attr)]
    return [(module, key) for module in _package_modules()
            for key, value in vars(module).items() if value is fn]


class Tracer:
    """Installs span wrappers on the TARGETS and accumulates their numbers.

    ``probes`` maps a label to a callable run after each call of that label
    with (args, kwargs, result). Probe time is kept out of every span: it is
    charged to the caller as child time and summed in ``excluded_s``.
    """

    def __init__(self, probes: dict[str, Callable] | None = None) -> None:
        self.probes = probes or {}
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[tuple[str, str | None], int] = defaultdict(int)
        self.kinds: list[str] = []
        self.missing: list[str] = []
        self.present: set[str] = set()
        self.excluded_s = 0.0
        self._kind_counts: Counter[str] | None = None
        self._stack: list[list] = [[None, 0.0]]
        self._installed: list[tuple[object, str, object]] = []

    # -- accounting ------------------------------------------------------------

    def _need(self, label: str) -> None:
        if label not in self.present:
            raise Missing(label)

    def self_of(self, label: str) -> float:
        self._need(label)
        return self.self_s.get(label, 0.0)

    def total_of(self, label: str) -> float:
        self._need(label)
        return self.total_s.get(label, 0.0)

    def calls_of(self, label: str, parent: str | None = None) -> int:
        """Calls of a label, from any caller or only from the parent label."""
        self._need(label)
        if parent is not None:
            self._need(parent)
        return sum(n for (lab, par), n in self.calls.items()
                   if lab == label and (parent is None or par == parent))

    def scheduled(self, kind: str) -> int:
        """Events scheduled with this kind argument."""
        self._need("engine.schedule")
        if self._kind_counts is None:
            self._kind_counts = Counter(self.kinds)
        return self._kind_counts[kind]

    # -- wrapping ----------------------------------------------------------------

    def _span(self, label: str, fn: Callable, record_kind: bool = False,
              wrap_handler: bool = False) -> Callable:
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        kinds = self.kinds
        clock = time.perf_counter
        probe = self.probes.get(label)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record_kind:
                kinds.append(args[2] if len(args) > 2 else kwargs["kind"])
            if wrap_handler:
                args = (*args[:2], tracer._span(DISPATCH, args[2]), *args[3:]) \
                    if len(args) > 2 else args
                if "handler" in kwargs:
                    kwargs["handler"] = tracer._span(DISPATCH, kwargs["handler"])
            parent = stack[-1]
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                self_s[label] += elapsed - frame[1]
                total_s[label] += elapsed
                calls[label, parent[0]] += 1
            if probe is not None:
                begin = clock()
                probe(args, kwargs, result)
                spent = clock() - begin
                parent[1] += spent
                tracer.excluded_s += spent
            return result

        return wrapper

    def install(self) -> None:
        for label, module, qualname in TARGETS:
            resolved = _resolve(module, qualname)
            if resolved is None:
                self.missing.append(f"{module}.{qualname}")
                continue
            owner, attr, fn = resolved
            self.present.add(label)
            if label == "engine.run_until":
                self.present.add(DISPATCH)
            wrapper = self._span(label, fn,
                                 record_kind=label == "engine.schedule",
                                 wrap_handler=label == "engine.run_until")
            for holder, key in _bindings(owner, attr, fn):
                self._installed.append((holder, key, fn))
                setattr(holder, key, wrapper)

    def restore(self) -> None:
        while self._installed:
            holder, key, fn = self._installed.pop()
            setattr(holder, key, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def originals_in_place() -> list[str]:
    """Targets whose bindings do not all hold the original function object.

    Empty after a traced pass has been restored; a wrapper left behind would
    show up here, and would slow and skew every untraced pass after it.
    """
    stale = []
    for _, module, qualname in TARGETS:
        resolved = _resolve(module, qualname)
        if resolved is None:
            continue
        fn = resolved[2]
        if getattr(fn, "__wrapped__", None) is not None or any(
                getattr(value, "__wrapped__", None) is fn
                for mod in _package_modules() for value in vars(mod).values()):
            stale.append(f"{module}.{qualname}")
    return stale
