"""``repro serve`` — the asyncio HTTP front end of the exchange service.

A handwritten HTTP/1.1 layer over ``asyncio.start_server`` (standard
library only, by design): one event loop accepts any number of
concurrent connections, and each request is admitted through
:meth:`ExchangeService.plan <repro.service.ExchangeService.plan>` in the
loop — the same step as every library entry point, cache lookup
included.  A cache miss runs in one of two places:

* **on the loop** — :meth:`RequestPlan.run
  <repro.service.RequestPlan.run>`, called directly, when the id-space
  chase takes the request (no budget, lineage, target dependencies, SQL
  backend or resumption) and its source holds at most
  :data:`INLINE_MAX_FACTS` facts.  Such a chase costs less than the
  process hop around it, and the loop is blocked for the chase alone;
* **on the worker pool** — everything else: the request is packed
  (:meth:`RequestPlan.payload`) and run by
  :func:`~repro.service.streaming.exchange_payload` via
  ``loop.run_in_executor``, so a slow exchange cannot starve its
  neighbours' accepts or streams.

Pool failures (spawn errors, a killed worker) are retried with
exponential backoff + jitter under the service's
:class:`~repro.options.RetryPolicy`; repeated failures open the
service's :class:`~repro.exec.retry.CircuitBreaker`.  When retries run
out or the breaker is open, :meth:`RequestPlan.run` runs on a thread,
so a broken pool costs throughput, never an answer.  Both seams carry
:func:`~repro.faults.fault_point` hooks (``"pool.spawn"``,
``"pool.map"``) for the fault-injection harness.

Routes (full wire contract in docs/SERVICE.md):

* ``POST /v1/exchange`` — body is :meth:`ExchangeRequest.as_dict` plus
  an optional ``"stream"`` flag (default true).  Streaming responses
  are chunked NDJSON: a ``header`` line, ``facts`` lines, and a
  ``summary`` trailer carrying the resumption token when the request
  degraded.  The status line is written once the payload's outcome is
  in, so errors are real HTTP statuses, never text inside a 200 body.
  ``"stream": false`` buffers and returns one
  :meth:`ExchangeResponse.as_dict` JSON body.
* ``GET /v1/health`` — service liveness + the admission gate's
  per-tenant snapshot.

Rejections are structured: 429 with the
:meth:`ServiceOverloaded.as_dict` body (per-tenant state included) when
admission fails, 400 for malformed requests and token mismatches, 422
when the mapping has no solution for the source.

:class:`ExchangeClient` is the matching stdlib-only client — the CI
smoke test, ``repro serve-bench --concurrency`` and the examples all
speak through it.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Awaitable, Callable, Mapping

from ..exec.core import Outcome
from ..faults import fault_point
from ..mapping.chase import ChaseFailure, ChaseVariant, id_path_applies
from ..obs import get_registry, get_tracer
from ..provenance.store import NOOP
from .api import ExchangeRequest, ExchangeResponse
from .service import ExchangeService, RequestPlan
from .streaming import (
    DEFAULT_CHUNK_FACTS,
    exchange_payload,
    fact_lines,
    outcome_from_dict,
)
from .tenancy import ServiceOverloaded

__all__ = ["ExchangeClient", "ExchangeServer"]

MAX_BODY_BYTES = 64 * 1024 * 1024
"""Request-body ceiling; a source bigger than this should arrive as a
file next to the server, not through one POST."""

INLINE_MAX_FACTS = 1024
"""Largest source, in facts, whose cache miss may run on the event loop.

At this size the id-space chase of a join mapping costs about one fixed
pool round trip (``benchmarks/bench_inline_route.py``; the table is in
docs/PERFORMANCE.md, "Where a request runs").  So an inline request
blocks its neighbours for about as long as the pool would have delayed
the request itself.  Larger sources go to the worker pool."""

_MAX_HEADER_BYTES = 64 * 1024
_IO_TIMEOUT = 60.0


class _HttpError(Exception):
    """An error with a ready-made HTTP response."""

    def __init__(self, status: int, kind: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.body = {"error": message, "kind": kind}


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


def _response_head(status: int, headers: Mapping[str, str]) -> bytes:
    lines = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def _chunk(data: bytes) -> bytes:
    """One HTTP/1.1 chunked-transfer frame."""
    return f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"


_LAST_CHUNK = b"0\r\n\r\n"


def _reset_inherited_signals() -> None:
    """Pool-worker initializer: drop the signal wiring forked from the parent.

    ``repro serve`` routes SIGTERM/SIGINT into its event loop through a
    wakeup fd.  A forked worker inherits that fd and the no-op Python
    handlers, so a SIGTERM the pool sends a worker (as it reaps a
    broken pool) would be ignored by the worker and would stop the
    parent server instead.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)


class ExchangeServer:
    """One mapping served over HTTP by one :class:`ExchangeService`.

    >>> server = ExchangeServer(service, host="127.0.0.1", port=0)
    >>> await server.start()          # port 0 → OS-assigned, see .port
    >>> await server.serve_forever()  # or: await server.aclose()

    The server owns the service's worker pool: ``options.workers``
    processes (default 2).  Small id-space requests run on the event
    loop; every other cache miss leaves it for the pool (see the module
    docstring and :data:`INLINE_MAX_FACTS`).
    Every connection handles one request (``Connection: close``)
    — load balancers in front of an exchange fleet reconnect per
    request anyway, and it keeps the protocol state machine trivial.
    """

    def __init__(
        self,
        service: ExchangeService,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        chunk_facts: int = DEFAULT_CHUNK_FACTS,
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        self._service = service
        self._host = host
        self._port = port
        self._chunk_facts = chunk_facts
        self._max_body_bytes = max_body_bytes
        self._server: asyncio.AbstractServer | None = None
        self.workers = service.options.workers or 2
        self._pool: ProcessPoolExecutor | None = None
        self._rng = service.options.retry.rng()

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`; resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            return self._port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        # Warm the worker pool before accepting connections: forking
        # workers mid-request would hand them copies of live connection
        # fds, keeping sockets open past their close.  Submitting no-ops
        # forces the executor to actually spawn its processes.
        # The warm-up retries like a request; with no pool, there is
        # nothing to warm.
        loop = asyncio.get_running_loop()
        await self._pooled(
            lambda pool: asyncio.gather(
                *(
                    loop.run_in_executor(pool, int)
                    for _ in range(self.workers)
                )
            ),
            lambda: asyncio.sleep(0),
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- the worker pool -----------------------------------------------------

    def ensure_pool(self) -> ProcessPoolExecutor:
        """The worker pool, spawning it on first use.

        ``"pool.spawn"`` is the fault seam for spawn failures.
        """
        if self._pool is None:
            fault_point("pool.spawn")
            started = time.perf_counter()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_reset_inherited_signals
            )
            get_registry().observe(
                "exchange.pool.startup_seconds", time.perf_counter() - started
            )
        return self._pool

    def discard_pool(self, pool: ProcessPoolExecutor) -> bool:
        """Reap *pool* after a failure; ``False`` if it was already replaced.

        Waits for the pool's management thread, so a respawn never forks
        while it still runs; the next :meth:`ensure_pool` starts over.
        """
        if self._pool is not pool:
            return False
        self._pool = None
        pool.shutdown(wait=True, cancel_futures=True)
        return True

    async def _pooled(
        self,
        run: Callable[[Any], Awaitable[Any]],
        fallback: Callable[[], Awaitable[Any]],
        deadline_at: float | None = None,
    ) -> Any:
        """``await run(pool)`` under the retry policy and circuit breaker.

        A failed pool is reaped and respawned before each retry; the
        backoff never sleeps past *deadline_at* (unix time).  When
        retries run out or the breaker is open, ``await fallback()``
        answers instead.
        """
        registry = get_registry()
        breaker = self._service.breaker
        retry = self._service.options.retry
        if breaker.is_open:
            registry.increment("exchange.breaker.short_circuits")
            return await fallback()
        attempts = 0
        while True:
            pool = None
            try:
                pool = self.ensure_pool()
                result = await run(pool)
            except (BrokenProcessPool, OSError) as exc:
                # Concurrent requests all see one broken pool fail;
                # whoever reaps it counts the failure, once.
                if pool is None or self.discard_pool(pool):
                    registry.increment("exchange.pool.failures")
                    registry.increment(
                        f"exchange.pool.failures.{type(exc).__name__}"
                    )
                    if breaker.record_failure():
                        registry.increment("service.breaker_open")
                attempts += 1
                if attempts > retry.max_retries or breaker.is_open:
                    registry.increment("service.inprocess_fallbacks")
                    return await fallback()
                registry.increment("service.retries")
                delay = retry.delay(attempts, self._rng)
                if deadline_at is not None:
                    delay = max(0.0, min(delay, deadline_at - time.time()))
                registry.observe("exchange.pool.retry_backoff_seconds", delay)
                await asyncio.sleep(delay)
            else:
                breaker.record_success()
                return result

    async def _run_pooled(self, plan: RequestPlan) -> Outcome:
        """*plan*'s outcome: on the pool, in process on a thread as the last resort."""
        loop = asyncio.get_running_loop()
        payload = plan.payload()

        async def dispatch(pool):
            fault_point("pool.map")
            return outcome_from_dict(
                await loop.run_in_executor(pool, exchange_payload, payload)
            )

        async def in_process():
            return await loop.run_in_executor(None, plan.run)

        return await self._pooled(
            dispatch, in_process, deadline_at=payload["deadline_at"]
        )

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._write_json(writer, exc.status, exc.body)
                return
            except (asyncio.IncompleteReadError, ConnectionError, TimeoutError):
                return
            try:
                await self._dispatch(writer, method, path, body)
            except _HttpError as exc:
                await self._write_json(writer, exc.status, exc.body)
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # don't let one request kill the server
                get_registry().increment("service.http.errors")
                await self._write_json(
                    writer,
                    500,
                    {"error": f"{type(exc).__name__}: {exc}", "kind": "internal"},
                )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        request_line = await asyncio.wait_for(
            reader.readline(), timeout=_IO_TIMEOUT
        )
        if not request_line:
            raise ConnectionError("client closed before sending a request")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "bad-request", "malformed request line")
        method, path, _version = parts
        content_length = 0
        header_bytes = 0
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=_IO_TIMEOUT)
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER_BYTES:
                raise _HttpError(400, "bad-request", "headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HttpError(400, "bad-request", "bad Content-Length")
        if content_length > self._max_body_bytes:
            raise _HttpError(
                413,
                "too-large",
                f"body of {content_length} bytes exceeds "
                f"{self._max_body_bytes}",
            )
        body = (
            await asyncio.wait_for(
                reader.readexactly(content_length), timeout=_IO_TIMEOUT
            )
            if content_length
            else b""
        )
        return method, path, body

    async def _dispatch(
        self, writer: asyncio.StreamWriter, method: str, path: str, body: bytes
    ) -> None:
        path = path.split("?", 1)[0]
        if path == "/v1/health":
            if method != "GET":
                raise _HttpError(405, "method-not-allowed", f"{method} {path}")
            snapshot = self._service.gate.snapshot()
            snapshot["status"] = "ok"
            await self._write_json(writer, 200, snapshot)
            return
        if path == "/v1/exchange":
            if method != "POST":
                raise _HttpError(405, "method-not-allowed", f"{method} {path}")
            await self._exchange(writer, body)
            return
        raise _HttpError(404, "not-found", f"no route for {path}")

    # -- the exchange route --------------------------------------------------

    async def _exchange(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, "bad-request", f"body is not JSON: {exc}")
        try:
            request = ExchangeRequest.from_dict(data)
        except ValueError as exc:
            raise _HttpError(400, "bad-request", str(exc))
        stream = bool(data.get("stream", True))
        try:
            plan = self._service.plan(request)
        except ValueError as exc:
            raise _HttpError(400, "token-mismatch", str(exc))
        except ServiceOverloaded as exc:
            payload = json.dumps(exc.as_dict()).encode("utf-8")
            head = _response_head(
                429,
                {
                    "Content-Type": "application/json",
                    "Retry-After": "1",
                    "Connection": "close",
                    "Content-Length": str(len(payload)),
                },
            )
            writer.write(head + payload)
            await writer.drain()
            return
        registry = get_registry()
        with plan:
            registry.increment("service.http.requests")
            inline = plan.cached is None and self._runs_inline(plan)
            with get_tracer().span(
                "service.http",
                tenant=request.tenant,
                request_id=request.request_id,
                stream=stream,
                inline=inline,
            ):
                try:
                    if plan.cached is not None:
                        outcome = plan.cached
                    elif inline:
                        registry.increment("service.http.inline")
                        outcome = plan.run()
                    else:
                        outcome = await self._run_pooled(plan)
                    response = plan.respond(outcome)
                except ChaseFailure as exc:
                    raise _HttpError(422, "unsatisfiable", str(exc))
                if stream:
                    registry.increment("service.streams")
                    await self._stream_response(writer, response)
                else:
                    await self._write_body(writer, 200, response.to_json())

    def _runs_inline(self, plan: RequestPlan) -> bool:
        """Whether a cache miss of *plan* runs on the event loop.

        Only when the id-space chase takes it — the interpreted engine,
        no resumption, no lineage, no budget, no target dependencies —
        and its source is at most :data:`INLINE_MAX_FACTS` facts.
        """
        engine = self._service.engine
        return (
            engine.backend is None
            and plan.partial is None
            and not plan.options.wants_provenance
            and id_path_applies(
                engine.mapping, ChaseVariant.NAIVE, plan.budget, NOOP
            )
            and plan.request.source.size() <= INLINE_MAX_FACTS
        )

    async def _stream_response(
        self, writer: asyncio.StreamWriter, response: ExchangeResponse
    ) -> None:
        # The outcome is in before the status line: a failure still gets
        # its own status instead of text inside an already-open 200 body.
        writer.write(
            _response_head(
                200,
                {
                    "Content-Type": "application/x-ndjson",
                    "Transfer-Encoding": "chunked",
                    "Connection": "close",
                },
            )
        )
        header = {
            "kind": "header",
            "tenant": response.tenant,
            "request_id": response.request_id,
            "payloads": 1,
            "sharded": False,
        }
        writer.write(_chunk(_ndjson(header)))
        for line in fact_lines(response.facts, self._chunk_facts):
            writer.write(_chunk(line))
        writer.write(_chunk(_ndjson(response.summary_dict())) + _LAST_CHUNK)
        await writer.drain()

    @classmethod
    async def _write_json(
        cls, writer: asyncio.StreamWriter, status: int, body: Mapping[str, Any]
    ) -> None:
        await cls._write_body(writer, status, json.dumps(body))

    @staticmethod
    async def _write_body(
        writer: asyncio.StreamWriter, status: int, text: str
    ) -> None:
        payload = text.encode("utf-8")
        writer.write(
            _response_head(
                status,
                {
                    "Content-Type": "application/json",
                    "Content-Length": str(len(payload)),
                    "Connection": "close",
                },
            )
            + payload
        )
        await writer.drain()


def _ndjson(obj: Mapping[str, Any]) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


class ExchangeClient:
    """A stdlib-only asyncio client for :class:`ExchangeServer`.

    >>> client = ExchangeClient("127.0.0.1", 8080)
    >>> events = await client.exchange({"source": instance_json})
    >>> events[-1]["kind"]
    'summary'

    ``exchange`` returns the NDJSON event list for streaming requests
    (header, facts…, summary) and ``[body]`` for buffered ones; 4xx/5xx
    raise :class:`ExchangeClientError` carrying the structured body.
    """

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port

    async def exchange(self, body: Mapping[str, Any]) -> list[dict[str, Any]]:
        status, payload = await self._post("/v1/exchange", body)
        if status != 200:
            raise ExchangeClientError(status, payload)
        return payload

    async def health(self) -> dict[str, Any]:
        status, payload = await self._post("/v1/health", None, method="GET")
        if status != 200:
            raise ExchangeClientError(status, payload)
        return payload[0]

    async def _post(
        self,
        path: str,
        body: Mapping[str, Any] | None,
        *,
        method: str = "POST",
    ) -> tuple[int, list[dict[str, Any]]]:
        reader, writer = await asyncio.open_connection(self._host, self._port)
        try:
            payload = (
                json.dumps(body).encode("utf-8") if body is not None else b""
            )
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self._host}:{self._port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("ascii")
            writer.write(head + payload)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(maxsplit=2)
            status = int(parts[1]) if len(parts) >= 2 else 500
            chunked = False
            content_length: int | None = None
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                header = name.strip().lower()
                if header == "transfer-encoding" and "chunked" in value.lower():
                    chunked = True
                elif header == "content-length":
                    content_length = int(value.strip())
            raw = await self._read_body(reader, chunked, content_length)
            text = raw.decode("utf-8").strip()
            if not text:
                return status, []
            return status, [json.loads(line) for line in text.splitlines()]
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_body(
        reader: asyncio.StreamReader,
        chunked: bool,
        content_length: int | None = None,
    ) -> bytes:
        if not chunked:
            # Prefer the declared length over read-to-EOF: forked pool
            # workers can inherit the connection fd, in which case EOF
            # only arrives when they exit.
            if content_length is not None:
                return await reader.readexactly(content_length)
            return await reader.read()
        out = bytearray()
        while True:
            size_line = await reader.readline()
            size = int(size_line.strip() or b"0", 16)
            if size == 0:
                await reader.readline()  # trailing CRLF after last chunk
                return bytes(out)
            out += await reader.readexactly(size)
            await reader.readexactly(2)  # chunk's CRLF


class ExchangeClientError(RuntimeError):
    """A non-200 reply; ``status`` and the structured ``body`` attached."""

    def __init__(self, status: int, body: list[dict[str, Any]]) -> None:
        detail = body[0] if body else {}
        super().__init__(
            f"HTTP {status}: {detail.get('error', 'no detail')}"
        )
        self.status = status
        self.body = detail
