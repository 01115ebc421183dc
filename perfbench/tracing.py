"""Span tracing around the public entry points of each layer.

The traced run wraps a fixed set of public methods at class level, before
any scenario is built, so objects that cache a bound method (the SYN fast
path caches ``ListenSocket.handle_syn``) pick the wrapper up. Nothing is
patched on an instance and no network tap or fault hook is installed:
either would move flood SYNs off the fast path without any counter
showing it.

Accounting model:

* A span's *self* time is its duration minus its child spans' durations.
* Engine callbacks are timed by the repository's ``AttributionProfiler``
  (``ScenarioConfig.profile="attribution"``). A callback's self time is
  its wall minus the spans opened inside it, and is booked to the layer
  of the callback's module (for a ``repro.sim.process`` callback, the
  module of the process's action). So SYN triage that runs inside the
  fused ``SynFastPath._deliver`` callback is booked to ``tcp``/``puzzles``,
  not ``net``, and a flooder's periodic tick to ``hosts``, not ``sim``.
* ``Scenario.run`` is a ``sim`` span: what remains of it after the build
  and every callback is engine dispatch. The tracer's own hook time is
  moved out of it into ``trace``.

Spans are kept in memory (the first ``MAX_SPANS`` in full, all of them
as per-name aggregates) and written out when the run ends.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

#: Report layers: the modules under ``src/repro``, plus ``trace`` for
#: the tracer's own hook time and ``other`` for unmapped callbacks.
LAYERS = ("sim", "net", "tcp", "puzzles", "hosts", "obs", "faults",
          "experiments", "runner", "other", "trace")
_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}

#: Profiler component -> report layer (``metrics`` already rolls up to
#: ``obs`` in the profiler's own mapping).
COMPONENT_LAYERS = {"engine": "sim"}

#: (module, class, attribute, span name, layer, structural). Structural
#: spans run outside engine callbacks; every other span is a leaf that
#: runs inside one.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, str, bool], ...] = (
    ("repro.runner.runner", "SweepRunner", "map",
     "runner.map", "runner", True),
    ("repro.experiments.scenario", "Scenario", "run",
     "scenario.run", "sim", True),
    ("repro.experiments.scenario", "Scenario", "build",
     "scenario.build", "experiments", True),
    ("repro.experiments.summary", None, "summarize",
     "summarize", "experiments", True),
    ("repro.net.floodpath", "SynFastPath", "send",
     "synfastpath.send", "net", False),
    ("repro.tcp.listener", "ListenSocket", "handle_syn",
     "listener.handle_syn", "tcp", False),
    ("repro.tcp.listener", "ListenSocket", "handle_ack",
     "listener.handle_ack", "tcp", False),
    ("repro.tcp.listener", "ListenSocket", "accept",
     "listener.accept", "tcp", False),
    ("repro.tcp.syncache", "SynCache", "insert",
     "syncache.insert", "tcp", False),
    ("repro.tcp.syncache", "SynCache", "complete",
     "syncache.complete", "tcp", False),
    ("repro.puzzles.juels", "JuelsBrainardScheme", "issue_preimage",
     "puzzles.issue_preimage", "puzzles", False),
    ("repro.puzzles.juels", "JuelsBrainardScheme", "make_challenge",
     "puzzles.make_challenge", "puzzles", False),
    ("repro.puzzles.juels", "JuelsBrainardScheme", "verify",
     "puzzles.verify", "puzzles", False),
    ("repro.obs.sketch", "SourceAttribution", "on_syn",
     "attribution.on_syn", "obs", False),
    ("repro.obs.sketch", "SourceAttribution", "on_drop",
     "attribution.on_drop", "obs", False),
)

#: Spans kept in full; later spans are aggregated only.
MAX_SPANS = 200_000

#: The fused flood-delivery callback whose split the report breaks out.
SYN_DELIVER = "SynFastPath._deliver"


class Tracer:
    """Installs span wrappers and the profiler hook; undone by
    :meth:`uninstall`."""

    def __init__(self, entry_points: Sequence[tuple] = ENTRY_POINTS
                 ) -> None:
        self.entry_points = tuple(entry_points)
        self.names: List[str] = [entry[3] for entry in self.entry_points]
        n = len(self.names)
        #: Per span name: calls, total duration, self time.
        self.calls = [0] * n
        self.total = [0.0] * n
        self.own = [0.0] * n
        #: ``SynFastPath.send`` calls that stayed on the fast path.
        self.fastpath_accepted = 0
        #: Sum of root-span durations (the spans with no parent).
        self.root_total = 0.0
        #: Tracer hook time spent between engine callbacks.
        self.hook_s = 0.0
        #: Callback frame (module, qualname) -> per-layer self time of
        #: the spans that ran inside it, then its total wall.
        self.frames: Dict[Tuple[str, str], List[float]] = {}
        # Open spans: [child time, child time already booked, span index].
        self._stack: List[list] = []
        # Leaf self time per layer since the last engine callback.
        self._pending = [0.0] * len(LAYERS)
        self._kept = 0
        self._dropped = 0
        self._span_name = array("H")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("l")
        self._saved: List[tuple] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        import importlib

        from repro.obs.perf import AttributionProfiler

        for index, (module, cls, attr, _, layer, structural) in \
                enumerate(self.entry_points):
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if cls is not None \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, index,
                                            _LAYER_INDEX[layer],
                                            structural, attr == "send"))
        self._saved.append((AttributionProfiler, "record",
                            AttributionProfiler.__dict__["record"]))
        AttributionProfiler.record = self._record_hook(
            AttributionProfiler.record)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------------
    def _wrap(self, fn, index: int, layer: int, structural: bool,
              counts_accepted: bool):
        stack = self._stack
        clock = perf_counter
        calls, total, own = self.calls, self.total, self.own
        pending = self._pending
        zero = [0.0] * len(LAYERS)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0, tracer._open()]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time = duration - frame[0]
                calls[index] += 1
                total[index] += duration
                own[index] += self_time
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    if structural:
                        parent[1] += duration
                        # Leaf time outside any callback (e.g. in a final
                        # audit) must not be charged to the next one.
                        pending[:] = zero
                    else:
                        pending[layer] += self_time
                else:
                    tracer.root_total += duration
                if frame[2] >= 0:
                    tracer._close(frame[2], index, start, end,
                                  stack[-1][2] if stack else -1)
            if counts_accepted and result:
                tracer.fastpath_accepted += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self) -> int:
        if self._kept >= MAX_SPANS:
            self._dropped += 1
            return -1
        self._kept += 1
        self._span_name.append(0)
        self._span_start.append(0.0)
        self._span_end.append(0.0)
        self._span_parent.append(-1)
        return self._kept - 1

    def _close(self, slot: int, index: int, start: float, end: float,
               parent: int) -> None:
        self._span_name[slot] = index
        self._span_start[slot] = start
        self._span_end[slot] = end
        self._span_parent[slot] = parent

    def _record_hook(self, original):
        from repro.obs.perf import callback_kind, callback_module
        from repro.sim.process import (AlignedPeriodicProcess,
                                       PeriodicProcess, PoissonProcess)

        # A process callback runs its ``action``; book it by the action
        # so a flooder tick counts as ``hosts``, not as ``sim``.
        fires = {cls._fire for cls in (PeriodicProcess,
                                       AlignedPeriodicProcess,
                                       PoissonProcess)}
        stack = self._stack
        pending = self._pending
        frames = self.frames
        keys: Dict[object, Tuple[str, str]] = {}
        clock = perf_counter
        tracer = self
        zero = [0.0] * len(LAYERS)

        def record(profiler, callback, wall):
            hook_start = clock()
            original(profiler, callback, wall)
            fn = getattr(callback, "__func__", None)
            if fn in fires:
                callback = callback.__self__.action
                fn = getattr(callback, "__func__", None)
            code = fn or getattr(callback, "__code__", None)
            key = keys.get(code) if code is not None else None
            if key is None:
                key = (callback_module(callback), callback_kind(callback))
                if code is not None:
                    keys[code] = key
            frame = frames.get(key)
            if frame is None:
                frame = frames[key] = [0.0] * (len(LAYERS) + 1)
            frame[-1] += wall
            if stack:
                top = stack[-1]
                if top[0] != top[1]:
                    # Leaf spans ran inside this callback.
                    for i, value in enumerate(pending):
                        if value:
                            frame[i] += value
                    pending[:] = zero
                top[0] = top[1] + wall
                top[1] = top[0]
            tracer.hook_s += clock() - hook_start

        return record

    # ------------------------------------------------------------------
    def span_total(self, name: str) -> float:
        return self.total[self.names.index(name)]

    def span_own(self, *names: str) -> float:
        return sum(self.own[self.names.index(name)] for name in names)

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer over everything traced."""
        layers = dict.fromkeys(LAYERS, 0.0)
        for (_, _, _, _, layer, _), own in zip(self.entry_points,
                                               self.own):
            layers[layer] += own
        for key, frame in self.frames.items():
            layers[_layer_of(key)] += frame[-1] - sum(frame[:-1])
        layers["sim"] -= self.hook_s
        layers["trace"] += self.hook_s
        return layers

    def frame_split(self, qualname: str) -> Optional[Dict[str, float]]:
        """How one callback frame's wall splits across layers, as
        shares; ``None`` when the frame never ran."""
        for key, frame in self.frames.items():
            wall = frame[-1]
            if key[1] != qualname or wall <= 0:
                continue
            split = {layer: frame[i] / wall
                     for i, layer in enumerate(LAYERS) if frame[i]}
            own = _layer_of(key)
            split[own] = split.get(own, 0.0) + \
                (wall - sum(frame[:-1])) / wall
            split["wall_s"] = wall
            return split
        return None

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines; returns the count."""
        with open(path, "w") as out:
            out.write(json.dumps({"kept": self._kept,
                                  "dropped": self._dropped,
                                  "names": self.names}) + "\n")
            for slot in range(self._kept):
                out.write(json.dumps(
                    [slot, self.names[self._span_name[slot]],
                     self._span_start[slot], self._span_end[slot],
                     self._span_parent[slot]]) + "\n")
        return self._kept


def _layer_of(key: Tuple[str, str]) -> str:
    from repro.obs.perf import component_of_frame

    component = component_of_frame(*key)
    layer = COMPONENT_LAYERS.get(component, component)
    return layer if layer in _LAYER_INDEX else "other"
