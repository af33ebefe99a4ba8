"""Measurement utilities: state timelines and streaming statistics.

These are the accounting substrate for the disk power model (time spent per
power state -> energy) and for response-time statistics.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Dict, Hashable, List, Optional, Tuple

__all__ = ["StateTimeline", "Tally", "TimeWeighted"]


class StateTimeline:
    """Tracks a piecewise-constant state variable over simulated time.

    Accumulates the total duration spent in each state and the number of
    transitions; optionally records the full transition history.

    Parameters
    ----------
    env:
        The simulation environment (only ``env.now`` is used).
    initial_state:
        State at creation time.
    record_history:
        If true, keep a list of ``(time, state)`` transition records.
    """

    def __init__(self, env, initial_state: Hashable, record_history: bool = False) -> None:
        self._env = env
        self._state = initial_state
        self._since = env.now
        self._start = env.now
        self._durations: Dict[Hashable, float] = {}
        self._transitions = 0
        self.history: Optional[List[Tuple[float, Hashable]]] = (
            [(env.now, initial_state)] if record_history else None
        )

    @property
    def state(self) -> Hashable:
        """Current state."""
        return self._state

    @property
    def transitions(self) -> int:
        """Number of state *changes* recorded so far."""
        return self._transitions

    def set(self, new_state: Hashable) -> None:
        """Enter ``new_state`` at the current simulation time."""
        now = self._env.now
        state = self._state
        elapsed = now - self._since
        if elapsed:
            durations = self._durations
            durations[state] = durations.get(state, 0.0) + elapsed
        self._since = now
        if new_state != state:
            self._transitions += 1
            history = self.history
            if history is not None:
                history.append((now, new_state))
        self._state = new_state

    def durations(self) -> Dict[Hashable, float]:
        """Total time spent per state, including the still-open interval."""
        out = dict(self._durations)
        open_interval = self._env.now - self._since
        if open_interval:
            out[self._state] = out.get(self._state, 0.0) + open_interval
        return out

    def total_time(self) -> float:
        """Total observed time (now minus creation time)."""
        return self._env.now - self._start

    def weighted_total(self, weights: Dict[Hashable, float]) -> float:
        """Integrate ``sum(weights[state] * time_in_state)``.

        Used to turn per-state power figures into energy.  States missing
        from ``weights`` raise ``KeyError`` to surface accounting bugs.
        """
        return sum(weights[s] * t for s, t in self.durations().items())


class Tally:
    """Streaming scalar statistics (Welford) with optional sample retention.

    Parameters
    ----------
    keep_samples:
        If true, every observation is kept (sorted insert) so that
        :meth:`percentile` is available.  For the request volumes in this
        library (~1e5) this is cheap.
    """

    def __init__(self, keep_samples: bool = False) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._sum = 0.0
        self._samples: Optional[List[float]] = [] if keep_samples else None

    def add(self, x: float) -> None:
        """Record one observation."""
        x = float(x)
        self._n += 1
        self._sum += x
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x
        if self._samples is not None:
            insort(self._samples, x)

    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        """Sample mean (``nan`` when empty)."""
        return self._mean if self._n else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (``nan`` for n < 2)."""
        return self._m2 / (self._n - 1) if self._n > 1 else math.nan

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan

    @property
    def minimum(self) -> float:
        return self._min if self._n else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._n else math.nan

    def percentile(self, q: float) -> float:
        """Empirical ``q``-quantile, ``q`` in [0, 1] (nearest-rank).

        Requires ``keep_samples=True``.
        """
        if self._samples is None:
            raise ValueError("Tally was created with keep_samples=False")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if not self._samples:
            return math.nan
        idx = min(len(self._samples) - 1, max(0, math.ceil(q * len(self._samples)) - 1))
        return self._samples[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Tally n={self._n} mean={self.mean:.4g}>"


class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal.

    >>> class _Env:  # doctest helper
    ...     now = 0.0
    >>> env = _Env()
    >>> tw = TimeWeighted(env, 2.0)
    >>> env.now = 10.0
    >>> tw.set(4.0)
    >>> env.now = 20.0
    >>> tw.average()
    3.0
    """

    def __init__(self, env, initial_value: float = 0.0) -> None:
        self._env = env
        self._value = float(initial_value)
        self._since = env.now
        self._start = env.now
        self._integral = 0.0

    @property
    def value(self) -> float:
        """Current value of the signal."""
        return self._value

    def set(self, value: float) -> None:
        """Change the signal's value at the current time."""
        now = self._env.now
        self._integral += self._value * (now - self._since)
        self._since = now
        self._value = float(value)

    def integral(self) -> float:
        """Integral of the signal from creation until now."""
        return self._integral + self._value * (self._env.now - self._since)

    def average(self) -> float:
        """Time-weighted mean from creation until now (``nan`` if no time)."""
        span = self._env.now - self._start
        return self.integral() / span if span else math.nan
