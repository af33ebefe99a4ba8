"""Discrete-event simulation kernel.

A from-scratch substitute for SimPy (the framework the paper's simulator was
written in), trimmed to what the disk model uses.  The drives, the
dispatcher and the stream processes need a FIFO queue, per-request
timeouts, a wake event and an idleness timer raced against it:

* :class:`~repro.sim.environment.Environment` — the event loop and clock,
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.Process` — generator-coroutine processes that
  ``yield`` events to wait on them,
* :class:`~repro.sim.events.AnyOf` — the one condition event (a wake
  raced against an idleness timer), valued by a
  :class:`~repro.sim.events.ConditionValue`,
* :class:`~repro.sim.monitor.StateTimeline` — per-state residency used for
  energy accounting,
* :mod:`~repro.sim.fastkernel` — a batched fast path for array-backed
  streams, covering read/write mixes (§1.1 write allocation) and shared
  caches as well as the read-only case (select with
  ``StorageConfig(engine="fast")``), validated against the event kernel
  and typically 5-50x faster.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def clock(env, name, tick):
...     while True:
...         yield env.timeout(tick)
...         log.append((name, env.now))
>>> _ = env.process(clock(env, "fast", 1))
>>> _ = env.process(clock(env, "slow", 2))
>>> env.run(until=4.5)
>>> log
[('fast', 1.0), ('slow', 2.0), ('fast', 2.0), ('fast', 3.0), ('slow', 4.0), ('fast', 4.0)]
"""

from repro.sim.environment import Environment, NORMAL, URGENT
from repro.sim.events import AnyOf, ConditionValue, Event, Process, Timeout
from repro.sim.monitor import StateTimeline
from repro.sim.rng import rng_from_seed, spawn_rngs

__all__ = [
    "AnyOf",
    "ConditionValue",
    "Environment",
    "Event",
    "NORMAL",
    "Process",
    "StateTimeline",
    "Timeout",
    "URGENT",
    "rng_from_seed",
    "spawn_rngs",
]
