"""Per-layer host-time tracing, installed from outside the simulator.

:class:`Tracer` wraps the public entry points of each simulator layer at
class (or module-global) level for the duration of one traced run and
restores the originals afterwards.  Every wrapped call is a span; a
layer's *self time* is the span's duration minus the time covered by
wrapped calls nested inside it, so the self times of all layers plus the
unattributed glue add up to the run's wall time.

Methods the fast kernel binds at run time (``cache.lookup``/``admit``,
``scheduler.release``, ``dpm.advance``, ``policy.choose``) are looked up
on the instance when a run starts, so a class-level wrapper installed
before ``StorageSystem.run`` sees every call.  The event engine's drive
process is a generator: :class:`_TimedGenerator` times each resumption.

Wrappers only observe: they pass arguments and results through
unchanged, so a traced run's simulated outputs are bit-identical to an
untraced one (the benchmark checks this on every traced run).
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import repro.system.storage as storage_module
from repro.cache.base import BaseCache
from repro.control.controller import ThresholdController
from repro.control.telemetry import P2Quantile
from repro.disk.drive import DiskDrive
from repro.obs.trace import TraceRecorder
from repro.sim.environment import Environment
from repro.system.dispatcher import Dispatcher
from repro.system.metrics import ResponseAccumulator
from repro.system.placement import WritePlacementPolicy
from repro.system.scheduling import RequestScheduler

__all__ = ["Tracer", "LAYER_TIMES"]

#: Per-layer self-time metric -> the tracer layer it reports.
LAYER_TIMES = {
    "sim.fastkernel.self_s": "sim.fastkernel",
    "cache.self_s": "cache",
    "system.placement.self_s": "system.placement",
    "obs.emit_self_s": "obs.emit",
    "obs.snapshot_self_s": "obs.snapshot",
    "system.scheduling.self_s": "system.scheduling",
    "control.controller_self_s": "control.controller",
    "control.p2_self_s": "control.p2",
    "system.metrics.accumulate_self_s": "system.metrics.accumulate",
    "sim.environment.run_self_s": "sim.environment.run",
    "system.dispatcher.submit_self_s": "system.dispatcher.submit",
    "disk.drive.self_s": "disk.drive",
}

#: Spans kept per layer for the Chrome trace; calls past the cap are
#: still timed and counted, only their span records are dropped.
SPANS_PER_LAYER = 2_000


def _subclasses(cls):
    """``cls`` and every subclass currently defined, depth first."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _defining(classes, name):
    """The classes among ``classes`` whose own body defines ``name``."""
    return [c for c in classes if name in c.__dict__]


class _TimedGenerator:
    """A generator proxy that times every resumption as one span (the
    event engine's ``Process`` drives generators only through ``send``
    and ``throw``)."""

    __slots__ = ("_gen", "_timed")

    def __init__(self, gen, timed) -> None:
        self._gen = gen
        self._timed = timed

    def send(self, value):
        return self._timed(self._gen.send, value)

    def throw(self, *args):
        return self._timed(self._gen.throw, *args)


class Tracer:
    """Self-time and call-count accounting for one traced run at a time."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget the previous run's times, counts and spans."""
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self._span_counts = Counter()
        self._stack = [0.0]
        self._active = Counter()
        self._origin = perf_counter()

    # -- the timing core -------------------------------------------------

    def call(self, layer, fn, args, kwargs, on_call=None):
        """Run ``fn(*args, **kwargs)`` as a span of ``layer``.

        ``on_call(counts, args, result)`` updates the layer's counters; it
        runs only for the outermost call of a layer, so a method that
        re-enters its own layer (``P2Quantile.add_many`` calling ``add``)
        is counted once.
        """
        stack = self._stack
        stack.append(0.0)
        outermost = not self._active[layer]
        self._active[layer] += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._active[layer] -= 1
            dur = t1 - t0
            child = stack.pop()
            stack[-1] += dur
            self.self_s[layer] += dur - child
            if self._span_counts[layer] < SPANS_PER_LAYER:
                self._span_counts[layer] += 1
                self.spans.append((layer, t0 - self._origin, dur))
        if outermost and on_call is not None:
            on_call(self.counts, args, result)
        return result

    def _wrap(self, layer, fn, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs, on_call)

        return wrapper

    def _wrap_generator(self, layer, fn):
        tracer = self

        def timed(step, *args):
            return tracer.call(layer, step, args, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedGenerator(fn(*args, **kwargs), timed)

        return wrapper

    # -- what gets wrapped -----------------------------------------------

    def _targets(self):
        """``(owner, attribute, layer, on_call, is_generator)`` per wrap."""

        def count(key):
            def on_call(counts, args, result):
                counts[key] += 1

            return on_call

        def p2_many(counts, args, result):
            counts["control.p2_add_elems"] += len(args[1])

        def p2_one(counts, args, result):
            counts["control.p2_add_elems"] += 1

        def release(counts, args, result):
            counts["system.scheduling.release_calls"] += 1
            if result > args[1]:
                counts["system.scheduling.held"] += 1

        targets = [
            (storage_module, "simulate_fast", "sim.fastkernel", None, False),
            (storage_module, "simulate_fast_chunked", "sim.fastkernel", None,
             False),
            (storage_module, "observability_snapshot", "obs.snapshot", None,
             False),
            (BaseCache, "lookup", "cache", count("cache.lookup_calls"), False),
            (BaseCache, "admit", "cache", count("cache.admit_calls"), False),
            (ThresholdController, "advance", "control.controller",
             count("control.advance_calls"), False),
            (ThresholdController, "finalize", "control.controller", None,
             False),
            (P2Quantile, "add", "control.p2", p2_one, False),
            (P2Quantile, "add_many", "control.p2", p2_many, False),
            (ResponseAccumulator, "add", "system.metrics.accumulate", None,
             False),
            (ResponseAccumulator, "result", "system.metrics.accumulate", None,
             False),
            (Environment, "run", "sim.environment.run", None, False),
            (Dispatcher, "submit", "system.dispatcher.submit",
             count("system.dispatcher.submit_calls"), False),
            (DiskDrive, "submit", "disk.drive", None, False),
            (DiskDrive, "_run", "disk.drive", None, True),
        ]
        for name in ("on_state_span", "on_cache_event", "on_thresholds",
                     "on_placement"):
            targets.append(
                (TraceRecorder, name, "obs.emit", count("obs.emit_calls"),
                 False)
            )
        placement = _subclasses(WritePlacementPolicy)
        for cls in _defining(placement, "choose"):
            targets.append(
                (cls, "choose", "system.placement",
                 count("system.placement.choose_calls"), False)
            )
        schedulers = _subclasses(RequestScheduler)
        for cls in _defining(schedulers, "release"):
            targets.append(
                (cls, "release", "system.scheduling", release, False)
            )
        for cls in _defining(schedulers, "reset"):
            targets.append((cls, "reset", "system.scheduling", None, False))
        return targets

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the ``with`` block."""
        saved = []
        try:
            for owner, attr, layer, on_call, is_gen in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                wrapped = (
                    self._wrap_generator(layer, original)
                    if is_gen
                    else self._wrap(layer, original, on_call)
                )
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def run_span(self, fn, *args, **kwargs):
        """Time the whole run as the root span (its self time is the glue
        in ``StorageSystem.run`` that no wrapped layer covers)."""
        return self.call("system.storage.run", fn, args, kwargs)

    # -- export ----------------------------------------------------------

    def chrome_trace(self, label: str) -> dict:
        """The recorded spans as Chrome trace-event JSON (Perfetto loads
        it); host microseconds from the start of the traced run."""
        events = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": f"perfbench {label} (host time)"}},
        ]
        for layer, start, dur in self.spans:
            events.append({
                "name": layer, "cat": layer.split(".")[0], "ph": "X",
                "ts": start * 1e6, "dur": dur * 1e6, "pid": 0, "tid": 0,
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "host-seconds",
                          "spans_per_layer_cap": SPANS_PER_LAYER},
        }
