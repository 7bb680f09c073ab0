"""Exchange execution: the solution cache and the service's worker pool.

* :mod:`repro.exec.parallel` — :class:`ParallelExchange`, the executor
  behind ``ExchangeOptions(workers=, cache=)``: cached in-process
  exchange, plus the worker pool the HTTP server dispatches requests to;
* :mod:`repro.exec.cache` — :class:`ExchangeCache`, a bounded LRU of
  universal solutions keyed by content fingerprints of the mapping and
  the source;
* :mod:`repro.exec.retry` — :class:`CircuitBreaker`, which stops pool
  retries after repeated failures.

Entry points elsewhere: ``ExchangeEngine.compile(..., options=)`` wires
an executor into the compiled lens, ``repro exchange --cache`` exposes
the cache on the CLI, and ``repro serve --workers`` sizes the pool.
"""

from .cache import ExchangeCache, mapping_fingerprint
from .parallel import ParallelExchange, exchange_in_process
from .retry import CircuitBreaker

__all__ = [
    "CircuitBreaker",
    "ExchangeCache",
    "ParallelExchange",
    "exchange_in_process",
    "mapping_fingerprint",
]
