"""Circuit breaker for the HTTP server's worker pool.

Repeated pool failures mean the environment cannot sustain a process
pool (sandbox limits, fork bombs, resource exhaustion); retrying every
request just burns the backoff budget.  :class:`CircuitBreaker` counts
consecutive failures and, past a threshold, *opens*: the server runs
payloads in process without touching the pool.  After
``reset_after`` seconds the breaker goes *half-open* and allows a single
probe; a success closes it, a failure re-opens it.

The breaker guards an optimization, never correctness — the
in-process chase is always sound, so an open breaker degrades
throughput only.
Retry *pacing* lives in :class:`~repro.options.RetryPolicy`; this module
only decides whether the pool is worth trying at all.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Closed → (failures ≥ threshold) → open → (reset_after) → half-open.

    Thread-safe; one breaker is shared by every request of an
    :class:`~repro.service.ExchangeService` and the HTTP server over it.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_after < 0:
            raise ValueError(f"reset_after must be >= 0, got {reset_after}")
        self.failure_threshold = failure_threshold
        self.reset_after = reset_after
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._open_count = 0

    # -- state ---------------------------------------------------------------

    @property
    def state(self) -> str:
        """``"closed"`` / ``"open"`` / ``"half_open"`` (after decay)."""
        with self._lock:
            return self._decayed_state()

    @property
    def is_open(self) -> bool:
        """True when the pool must not be tried (half-open allows a probe)."""
        return self.state == "open"

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    @property
    def open_count(self) -> int:
        """How many times the breaker has opened over its lifetime."""
        with self._lock:
            return self._open_count

    def _decayed_state(self) -> str:
        # Caller holds the lock.
        if (
            self._state == "open"
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.reset_after
        ):
            self._state = "half_open"
        return self._state

    # -- transitions ---------------------------------------------------------

    def record_failure(self) -> bool:
        """Count a pool failure; returns True when this one *opens* the breaker.

        A failure in half-open state re-opens immediately (the probe
        proved the pool is still broken).
        """
        with self._lock:
            state = self._decayed_state()
            self._consecutive_failures += 1
            should_open = (
                state == "half_open"
                or self._consecutive_failures >= self.failure_threshold
            )
            if should_open and self._state != "open":
                self._state = "open"
                self._opened_at = self._clock()
                self._open_count += 1
                return True
            if should_open:
                self._opened_at = self._clock()  # extend an already-open breaker
            return False

    def record_success(self) -> None:
        """A pool round-trip worked: close the breaker, reset the count."""
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0
            self._opened_at = None

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failures={self.consecutive_failures}, "
            f"threshold={self.failure_threshold})"
        )
