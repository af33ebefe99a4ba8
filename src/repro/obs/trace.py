"""Chrome-trace-event export for simulated-time run traces.

:class:`TraceRecorder` is a :class:`~repro.obs.hooks.RunObserver` that
buffers everything the engines emit and serializes it in the Chrome
trace-event JSON format, loadable in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``.  Simulated seconds map to trace microseconds
(``ts = t * 1e6``), so one trace-second of UI time is one simulated
second.

Track layout:

==== ====================== =========================================
pid  process name           content
==== ====================== =========================================
0    ``disk-state``         one thread per disk; B/E span pairs per
                            power state / ladder rung dwell
1    ``cache``              instant events: hit/miss/admit/evict
2    ``control``            instant events: threshold pushes
3    ``placement``          one thread per disk; write allocations
==== ====================== =========================================

:func:`sweep_chrome_trace` reuses the same format for the orchestrator's
*wall-clock* sweep profiles (one thread per worker pid) — that trace is
about where real time went, and never mixes with simulated-time tracks.
"""

from __future__ import annotations

import json
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from repro.obs.hooks import CacheEventBlock, RunObserver
from repro.obs.metrics import MetricsRegistry

__all__ = ["TraceRecorder", "sweep_chrome_trace", "write_trace"]

_PID_DISK = 0
_PID_CACHE = 1
_PID_CONTROL = 2
_PID_PLACEMENT = 3

_PROCESS_NAMES = {
    _PID_DISK: "disk-state",
    _PID_CACHE: "cache",
    _PID_CONTROL: "control",
    _PID_PLACEMENT: "placement",
}


class TraceRecorder(RunObserver):
    """Buffer observer events and export them as a Chrome trace.

    The hooks only append to the event lists.  Cache events arrive either
    one at a time (event engine) or as the fast kernel's
    :class:`~repro.obs.hooks.CacheEventBlock` columns, which are stored
    as they come; :attr:`cache_events` builds the ``(time, kind,
    file_id)`` list when it is read.  ``registry`` derives the
    per-event-type counts when it is read (counting block kinds from
    their codes), so a recorded run's ``extra["obs"]`` snapshot carries an
    ``events`` section.
    """

    def __init__(self) -> None:
        self.state_spans: List[Tuple[int, str, float, float]] = []
        # Cache events in arrival order: blocks and lists of tuples.
        self._cache_parts: List[Any] = []
        self.threshold_events: List[Tuple[float, Tuple[float, ...]]] = []
        self.placements: List[Tuple[float, int, int]] = []

    @property
    def cache_events(self) -> List[Tuple[float, str, int]]:
        """Every recorded cache event as a ``(time, kind, file_id)``
        tuple, in order (the list later single events append to)."""
        parts = self._cache_parts
        if len(parts) == 1 and isinstance(parts[0], list):
            return parts[0]
        events: List[Tuple[float, str, int]] = []
        for part in parts:
            events.extend(part)
        self._cache_parts = [events]
        return events

    @property
    def registry(self) -> MetricsRegistry:
        """Event counts: ``span.<state>``, ``cache.<kind>``,
        ``control.threshold_updates`` and ``placement.writes``, each present
        once its hook has fired."""
        registry = MetricsRegistry()
        counts = Counter(map(itemgetter(1), self.state_spans))
        for kind, n in counts.items():
            registry.counter("span." + kind).inc(n)
        counts = Counter()
        for part in self._cache_parts:
            if isinstance(part, CacheEventBlock):
                counts.update(dict(part.kind_counts()))
            else:
                counts.update(map(itemgetter(1), part))
        for kind, n in counts.items():
            registry.counter("cache." + kind).inc(n)
        for name, events in (
            ("control.threshold_updates", self.threshold_events),
            ("placement.writes", self.placements),
        ):
            if events:
                registry.counter(name).inc(len(events))
        return registry

    # -- RunObserver hooks -------------------------------------------------

    def on_state_span(self, disk: int, state: str, start: float, end: float) -> None:
        self.state_spans.append((disk, state, start, end))

    def _event_list(self) -> List[Tuple[float, str, int]]:
        """The trailing list part single events append to."""
        parts = self._cache_parts
        if not parts or not isinstance(parts[-1], list):
            parts.append([])
        return parts[-1]

    def on_cache_event(self, time: float, kind: str, file_id: int) -> None:
        self._event_list().append((time, kind, file_id))

    def on_cache_events(
        self, events: Iterable[Tuple[float, str, int]]
    ) -> None:
        if isinstance(events, CacheEventBlock):
            self._cache_parts.append(events)
        else:
            self._event_list().extend(events)

    def on_thresholds(self, time: float, thresholds: Sequence[float]) -> None:
        self.threshold_events.append((time, tuple(float(t) for t in thresholds)))

    def on_placement(self, time: float, file_id: int, disk: int) -> None:
        self.placements.append((time, file_id, disk))

    # -- export ------------------------------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Serialize to a Chrome trace-event dict (``{"traceEvents": ...}``)."""
        events: List[Dict[str, Any]] = []

        disks = sorted(
            {d for d, _, _, _ in self.state_spans} | {d for _, _, d in self.placements}
        )
        for pid, name in _PROCESS_NAMES.items():
            events.append(_meta(pid, 0, "process_name", {"name": name}))
        for disk in disks:
            events.append(_meta(_PID_DISK, disk, "thread_name", {"name": f"disk {disk}"}))

        spans: List[Dict[str, Any]] = []
        for disk, state, start, end in self.state_spans:
            if end <= start:
                continue
            common = {"pid": _PID_DISK, "tid": disk, "name": state, "cat": "disk-state"}
            spans.append({**common, "ph": "B", "ts": start * 1e6})
            spans.append({**common, "ph": "E", "ts": end * 1e6})

        instants: List[Dict[str, Any]] = []
        for time, kind, file_id in self.cache_events:
            instants.append(
                _instant(_PID_CACHE, 0, f"cache:{kind}", time, {"file_id": int(file_id)})
            )
        for time, thresholds in self.threshold_events:
            instants.append(
                _instant(
                    _PID_CONTROL,
                    0,
                    "thresholds",
                    time,
                    {"thresholds": list(thresholds)},
                )
            )
        for time, file_id, disk in self.placements:
            instants.append(
                _instant(
                    _PID_PLACEMENT,
                    disk,
                    "place",
                    time,
                    {"file_id": int(file_id), "disk": int(disk)},
                )
            )

        # Per-track order: by timestamp, with span-ends ahead of the
        # next span-begin at the same instant so adjacent dwells nest.
        def sort_key(ev: Dict[str, Any]) -> Tuple[int, int, float, int]:
            return (ev["pid"], ev["tid"], ev["ts"], 0 if ev["ph"] == "E" else 1)

        events.extend(sorted(spans + instants, key=sort_key))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "simulated-seconds", "generator": "repro.obs"},
        }

    def write_chrome_trace(self, path: Union[str, Path]) -> Path:
        return write_trace(self.to_chrome_trace(), path)


def _meta(pid: int, tid: int, name: str, args: Dict[str, Any]) -> Dict[str, Any]:
    return {"ph": "M", "pid": pid, "tid": tid, "ts": 0.0, "name": name, "args": args}


def _instant(
    pid: int, tid: int, name: str, time: float, args: Dict[str, Any]
) -> Dict[str, Any]:
    return {
        "ph": "i",
        "pid": pid,
        "tid": tid,
        "ts": time * 1e6,
        "name": name,
        "s": "t",
        "args": args,
    }


def sweep_chrome_trace(profiles: Iterable[Any]) -> Dict[str, Any]:
    """Chrome trace of sweep-task execution over worker processes.

    ``profiles`` are orchestrator ``TaskProfile``s (wall-clock seconds
    relative to the start of their sweep, one ``tid`` per worker pid).
    Complete (``ph: "X"``) events suffice here — every task has both
    endpoints by the time a profile exists.
    """
    profiles = list(profiles)
    events: List[Dict[str, Any]] = [
        _meta(0, 0, "process_name", {"name": "sweep-workers"})
    ]
    pids = sorted({int(p.pid) for p in profiles})
    for pid in pids:
        events.append(_meta(0, pid, "thread_name", {"name": f"worker {pid}"}))
    for profile in sorted(profiles, key=lambda p: (int(p.pid), p.started)):
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": int(profile.pid),
                "ts": profile.started * 1e6,
                "dur": profile.wall * 1e6,
                "name": profile.label,
                "cat": "sweep-task",
                "args": {"fingerprint": profile.fingerprint},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "wall-seconds", "generator": "repro.obs"},
    }


def write_trace(trace: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a trace dict as JSON, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace), encoding="utf-8")
    return path
