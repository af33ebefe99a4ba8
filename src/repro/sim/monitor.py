"""Measurement utility: the state timeline.

It is the accounting substrate for the disk power model (time spent per
power state -> energy).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

__all__ = ["StateTimeline"]


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

    >>> class _Env:  # doctest helper
    ...     now = 0.0
    >>> env = _Env()
    >>> tl = StateTimeline(env, "idle")
    >>> env.now = 10.0
    >>> tl.set("standby")
    >>> env.now = 25.0
    >>> tl.durations()
    {'idle': 10.0, 'standby': 15.0}
    >>> tl.weighted_total({"idle": 9.3, "standby": 0.8})
    105.0
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
