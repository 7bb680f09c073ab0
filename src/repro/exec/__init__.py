"""Exchange execution: the one core every front end drives, and its cache.

* :mod:`repro.exec.core` — :func:`execute`, which runs one request on
  the SQL backend, the chase, or the target-dependency chase that
  resumes a partial instance, and returns an :class:`Outcome`;
  :func:`through_cache`, the one place the solution cache is read and
  written;
* :mod:`repro.exec.cache` — :class:`ExchangeCache`, a bounded LRU of
  universal solutions keyed by content fingerprints of the mapping and
  the source;
* :mod:`repro.exec.retry` — :class:`CircuitBreaker`, which stops the
  HTTP server's pool retries after repeated failures.

Entry points elsewhere: ``ExchangeOptions(cache=)`` on
:class:`~repro.service.ExchangeService` or
:class:`~repro.compiler.ExchangeEngine` (``repro exchange``/``serve
--cache`` on the CLI) turns the cache on, and ``repro serve --workers``
sizes the HTTP server's worker pool (:mod:`repro.service.aserve`).
"""

from .cache import ExchangeCache, mapping_fingerprint
from .core import Outcome, execute, through_cache
from .retry import CircuitBreaker

__all__ = [
    "CircuitBreaker",
    "ExchangeCache",
    "Outcome",
    "execute",
    "mapping_fingerprint",
    "through_cache",
]
