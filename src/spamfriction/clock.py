"""Injectable clocks so protocol timers run in wall or virtual time."""
from __future__ import annotations

import threading
import time


class SystemClock:
    """Wall clock backed by time.time."""

    def now(self) -> float:
        return time.time()


class VirtualClock:
    """Deterministic clock for tests and simulation: time moves only by advance()."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        with self._lock:
            self._now += seconds
            return self._now
