"""The HTTP workloads: ``repro serve`` in a subprocess, a closed-loop client.

End-to-end runs start the server from cold several times (the median
spawn-to-``listening on`` time is ``setup_s``), keep the last one, warm
it up, then drive it for the timed window from one client process over
two connections: each connection sends its next request only when the
previous reply has fully arrived, as callers that wait for an exchange
result do.

Traced runs replace the socket path with an in-process replay of the
``/v1/exchange`` route — :meth:`repro.service.aserve.ExchangeServer._exchange`
as of this benchmark's commit — one request at a time, with a
bench-side span around each public call the route makes.  The gap
between an untraced single-connection HTTP request and an untraced
replay of the same body is the named residual ``aserve.io`` (sockets,
framing, event loop).
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import select
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable

from repro.exec.cache import mapping_fingerprint
from repro.mapping.chase import chase
from repro.obs import collecting, get_tracer, tracing, write_json_lines
from repro.service import ExchangeService
from repro.service.api import ExchangeRequest
from repro.service.streaming import DEFAULT_CHUNK_FACTS, StreamSession, exchange_payload

from .harness import (
    GcPauses,
    cpu_steal,
    descendants,
    fresh_copy_costs,
    layer_table,
    peak_rss_mb,
    steal_share,
    timing_summary,
    total_ms,
    wait_gone,
)
from .workloads import (
    RequestStream,
    Workload,
    instance_facts,
    json_facts,
    load_mapping,
    mapping_files,
    reference_digest,
    solution_digest,
)

CONNECTIONS = 2
START_TIMEOUT_S = 60.0


class Server:
    """One ``python -m repro serve --port 0`` process and its worker pool."""

    def __init__(self, root: Path, workload: Workload, log: Path) -> None:
        self.root = root
        self.workload = workload
        self.log = log
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Spawn, wait for the ``listening on`` line; returns the seconds taken."""
        schemas, tgd = mapping_files(self.workload)
        self.log.parent.mkdir(parents=True, exist_ok=True)
        with self.log.open("ab") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--schemas", str(schemas), "--mapping", str(tgd),
                    "--port", "0", *self.workload.server_flags(),
                ],
                cwd=self.root,
                env=dict(os.environ, PYTHONPATH=str(self.root / "src")),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        line = self._readline(started + START_TIMEOUT_S)
        elapsed = time.perf_counter() - started
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start (log: {self.log}): {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        return elapsed

    def _readline(self, deadline: float) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        out = b""
        while not out.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                break
            byte = os.read(fd, 1)
            if not byte:
                break
            out += byte
        return out.decode("utf-8", "replace").strip()

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM, then wait for the server and every worker it started."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        workers = descendants(proc.pid)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        for pid in wait_gone(workers, timeout=10):
            os.kill(pid, signal.SIGKILL)
        wait_gone(workers, timeout=10)
        proc.stdout.close()


# -- the HTTP client ------------------------------------------------------------


async def post(port: int, body: bytes) -> tuple[int, bytes]:
    """One ``POST /v1/exchange``; returns (status, body) once fully read."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            b"POST /v1/exchange HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\nConnection: close\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            + body
        )
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        chunked, length = False, None
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "transfer-encoding":
                chunked = "chunked" in value.lower()
            elif name == "content-length":
                length = int(value)
        if not chunked:
            if length is None:
                return status, await reader.read()
            return status, await reader.readexactly(length)
        parts = []
        while size := int((await reader.readline()).strip() or b"0", 16):
            parts.append(await reader.readexactly(size))
            await reader.readexactly(2)
        await reader.readline()
        return status, b"".join(parts)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


def response_facts(workload: Workload, body: bytes) -> tuple[bool, list | None]:
    """(complete, facts) of a 200 reply; facts is ``None`` when malformed."""
    try:
        if workload.stream:
            events = [json.loads(line) for line in body.splitlines() if line]
            summary = events[-1]
            facts = [f for e in events if e.get("kind") == "facts" for f in e["facts"]]
            complete = summary.get("kind") == "summary" and summary.get("status") == "complete"
            return complete and summary.get("fact_count") == len(facts), facts
        reply = json.loads(body)
        facts = reply["facts"]["facts"]
        return reply.get("status") == "complete" and reply.get("fact_count") == len(facts), facts
    except (ValueError, KeyError, TypeError, IndexError):
        return False, None


class Checker:
    """Checks replies: complete, the expected fact count, and for the
    designated ones isomorphism with the bench's own ``chase``."""

    def __init__(self, workload: Workload, requests: RequestStream) -> None:
        self.workload = workload
        self.requests = requests
        self.checked_sources: set[int] = set()
        self.wrong = 0

    def wants_full(self, index: int, first_on_connection: bool) -> bool:
        """serve_repeat: first reply per distinct source; else first per connection."""
        if self.workload.pool:
            return self.requests.source_of(index) not in self.checked_sources
        return first_on_connection

    def check(self, index: int, status: int, body: bytes, full: bool) -> tuple[bool, int]:
        """(ok, target facts); a reply with the wrong facts also counts in ``wrong``."""
        if status != 200:
            return False, 0
        complete, facts = response_facts(self.workload, body)
        if facts is None or not complete:
            return False, 0
        right = len(facts) == self.workload.expected_facts
        if right and full:
            self.checked_sources.add(self.requests.source_of(index))
            reference = chase(self.requests.mapping, self.requests.instance(index)).solution
            right = solution_digest(json_facts(facts)) == reference_digest(
                instance_facts(reference)
            )
        if not right:
            self.wrong += 1
        return right, len(facts)


async def closed_loop(
    port: int,
    requests: RequestStream,
    checker: Checker,
    *,
    warmup_s: float,
    seconds: float,
) -> dict[str, Any]:
    """Two closed loops; outcomes of replies that land in the timed window."""
    issued = 0
    window: list[tuple[float, bool, int]] = []  # (latency s, ok, facts)
    errors: list[str] = []
    window_start = time.perf_counter() + warmup_s
    window_end = window_start + seconds

    async def connection() -> None:
        nonlocal issued
        first = True
        while time.perf_counter() < window_end:
            index, issued = issued, issued + 1
            body = requests.body(index)
            sent = time.perf_counter()
            try:
                status, reply = await post(port, body)
            except (OSError, EOFError, ValueError, IndexError) as exc:
                status, reply = 0, b""
                errors.append(f"{type(exc).__name__}: {exc}")
            done = time.perf_counter()
            ok, facts = checker.check(index, status, reply, checker.wants_full(index, first))
            first = False
            if window_start <= done <= window_end:
                window.append((done - sent, ok, facts))

    loops = [asyncio.ensure_future(connection()) for _ in range(CONNECTIONS)]
    await asyncio.sleep(max(0.0, window_start - time.perf_counter()))
    steal = cpu_steal()
    await asyncio.sleep(max(0.0, window_end - time.perf_counter()))
    steal = steal_share(steal, cpu_steal())
    await asyncio.gather(*loops)
    sources = [requests.source_of(i) for i in range(issued)]
    return {
        "window": window,
        "steal_share": steal,
        "issued": issued,
        "repeat_share": 1.0 - len(set(sources)) / len(sources) if sources else 0.0,
        "errors": errors[:5],
    }


def run_e2e(
    root: Path, workload: Workload, seed: int, seconds: float, out_dir: Path, setups: int
) -> dict[str, Any]:
    requests = RequestStream(workload, seed, load_mapping(workload))
    checker = Checker(workload, requests)
    setup_samples = []
    server = None
    try:
        for _ in range(setups):
            if server is not None:
                server.stop()
            server = Server(root, workload, out_dir / f"{workload.name}.server.log")
            setup_samples.append(server.start())
        run = asyncio.run(
            closed_loop(
                server.port, requests, checker, warmup_s=workload.warmup_s, seconds=seconds
            )
        )
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    good = [latency for latency, ok, _ in run["window"] if ok]
    timing = timing_summary(good)
    return {
        "attempted": len(run["window"]),
        "failed": len(run["window"]) - len(good),
        "wrong": checker.wrong,
        "setup_samples_s": setup_samples,
        "throughput_rps": len(good) / seconds,
        "latency_p50_ms": timing["p50_ms"],
        "latency_p90_ms": timing["p90_ms"],
        "target_facts_per_s": sum(f for _, ok, f in run["window"] if ok) / seconds,
        "peak_rss_mb": rss,
        "detail": {
            "load": f"closed loop, {CONNECTIONS} connections, one client process",
            "warmup_s": workload.warmup_s,
            "window_s": seconds,
            "latency": timing,
            "host_steal_share": run["steal_share"],
            "requests_issued": run["issued"],
            "repeat_share": run["repeat_share"],
            "full_checks": len(checker.checked_sources),
            "transport_errors": run["errors"],
        },
    }


# -- traced run -----------------------------------------------------------------


def _ndjson(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def replay(
    service: ExchangeService,
    fingerprint: str,
    pool: ProcessPoolExecutor,
    body: bytes,
    worker: dict[str, Any],
) -> bytes:
    """The ``/v1/exchange`` route for one body, each public call in a span.

    Adds each payload's in-worker seconds to ``worker["seconds"]`` and
    keeps the payloads in ``worker["payloads"]``.
    """
    tracer = get_tracer()
    with tracer.span("api.decode"):
        data = json.loads(body.decode("utf-8"))
        request = ExchangeRequest.from_dict(data)
    stream = bool(data.get("stream", True))
    options = request.options if request.options is not None else service.options
    with tracer.span("tenancy.admit"):
        service.gate.admit(request.tenant, 1)
    started = time.perf_counter()
    try:
        with tracer.span("streaming.plan"):
            session = StreamSession(
                service.mapping,
                request,
                options,
                mapping_fingerprint=fingerprint,
                chunk_facts=DEFAULT_CHUNK_FACTS,
            )
        parts = []
        if stream:
            with tracer.span("aserve.encode"):
                parts.append(_ndjson({
                    "kind": "header",
                    "tenant": request.tenant,
                    "request_id": request.request_id,
                    "payloads": len(session.payloads),
                    "sharded": session.sharded,
                }))
        for index, payload in enumerate(session.payloads):
            with tracer.span("exec.pool"):
                outcome = pool.submit(exchange_payload, payload).result()
            worker["seconds"] += outcome["seconds"]
            worker["payloads"].append(payload)
            with tracer.span("streaming.chunks"):
                chunks = list(session.chunks(index, outcome))
            if stream:
                with tracer.span("aserve.encode"):
                    parts.extend(_ndjson(chunk.as_dict()) for chunk in chunks)
        elapsed = time.perf_counter() - started
        with tracer.span("aserve.encode"):
            if stream:
                parts.append(_ndjson(session.summary_dict(elapsed_seconds=elapsed)))
            else:
                response = session.response(elapsed_seconds=elapsed)
                parts.append(json.dumps(response.as_dict()).encode("utf-8"))
        return b"".join(parts)
    finally:
        with tracer.span("tenancy.admit"):
            service.gate.release(request.tenant, 1)


async def _interleaved(
    port: int, bodies: list[bytes], steps: list[Callable[[bytes], object]]
) -> list[tuple[int, bytes, float]]:
    """Each body over HTTP, then through each in-process step.

    Interleaving keeps host drift out of the differences between them;
    the steps swap order on every other body, so neither always runs
    on caches the other just warmed.  Returns ``(status, reply, HTTP
    seconds)`` per body.
    """
    out = []
    for index, body in enumerate(bodies):
        began = time.perf_counter()
        status, reply = await post(port, body)
        out.append((status, reply, time.perf_counter() - began))
        for step in steps if index % 2 == 0 else steps[::-1]:
            step(body)
    return out


def run_traced(
    root: Path, workload: Workload, seed: int, count: int, out_dir: Path
) -> dict[str, Any]:
    mapping = load_mapping(workload)
    requests = RequestStream(workload, seed, mapping)
    bodies = [requests.body(i) for i in range(count)]
    with tracing() as setup_trace:
        service = ExchangeService(mapping, workload.exchange_options())
    executor = service.engine.executor
    # The server's own pool choice (ExchangeServer._pool): the executor's
    # when the options ask for workers, else two default-context workers.
    pool = executor.ensure_pool() if executor is not None else ProcessPoolExecutor(2)
    fingerprint = mapping_fingerprint(mapping)
    untraced: list[float] = []
    roots: list = []
    worker: dict[str, Any] = {"seconds": 0.0, "payloads": []}
    pauses = GcPauses()

    def plain(body: bytes) -> None:
        began = time.perf_counter()
        replay(service, fingerprint, pool, body, {"seconds": 0.0, "payloads": []})
        untraced.append(time.perf_counter() - began)

    def traced(body: bytes) -> None:
        with tracing() as tracer, pauses.measuring(), tracer.span("request"):
            replay(service, fingerprint, pool, body, worker)
        roots.extend(tracer.spans())

    server = Server(root, workload, out_dir / f"{workload.name}.server.log")
    try:
        for future in [pool.submit(int) for _ in range(2)]:
            future.result()
        server.start()
        # One HTTP request, the same body through the route's calls in
        # process untraced, then traced; warm-up first, then measured.
        asyncio.run(_interleaved(server.port, bodies[:10], [plain, traced]))
        del untraced[:], roots[:], worker["payloads"][:]
        worker["seconds"] = pauses.seconds = 0.0
        http = asyncio.run(_interleaved(server.port, bodies, [plain, traced]))
        # The worker's own breakdown: each payload again, in process.
        with tracing() as worker_trace, collecting() as registry:
            for payload in worker["payloads"]:
                exchange_payload(payload)
    finally:
        server.stop()
        if executor is None:
            pool.shutdown(wait=True)
        service.close()
    checker = Checker(workload, requests)
    ok = [
        checker.check(i, status, reply, checker.wants_full(i, i == 0))[0]
        for i, (status, reply, _) in enumerate(http)
    ]
    http_ms = statistics.fmean(t for _, _, t in http) * 1e3
    untraced_ms = statistics.fmean(untraced) * 1e3
    write_json_lines(roots, out_dir / f"{workload.name}.trace.jsonl")

    spans = layer_table(roots, per=count)
    worker_spans = layer_table(worker_trace.spans(), per=count)
    self_ms = lambda name: spans.get(name, {}).get("self_ms", 0.0)  # noqa: E731
    worker_ms = worker["seconds"] * 1e3 / count
    traced_ms = statistics.fmean(span.duration for span in roots) * 1e3
    modules = {
        "api.decode_ms": self_ms("api.decode"),
        "tenancy.admit_ms": self_ms("tenancy.admit"),
        "streaming.plan_ms": self_ms("streaming.plan"),
        "exec.pool_overhead_ms": self_ms("exec.pool") - worker_ms,
        "streaming.worker_ms": worker_ms,
        "streaming.chunks_ms": self_ms("streaming.chunks"),
        "aserve.encode_ms": self_ms("aserve.encode"),
        "replay.unattributed_ms": self_ms("request"),
        "aserve.io_ms": http_ms - untraced_ms,
        "chase.st_tgds_ms": worker_spans.get("chase.st_tgds", {}).get("self_ms", 0.0),
    }
    counters = registry.snapshot()["counters"]
    columnar_ms, fingerprint_ms = fresh_copy_costs(requests.instance, range(min(count, 50)))
    return {
        "attempted": count,
        "failed": ok.count(False),
        "wrong": checker.wrong,
        "traced_e2e_ms": traced_ms + modules["aserve.io_ms"],
        "traced_roots_ms": traced_ms,
        "untraced_e2e_ms": http_ms,
        "trace_overhead_pct": 100.0 * (traced_ms - untraced_ms) / untraced_ms,
        "stages": {
            "stage.front_ms": modules["api.decode_ms"] + modules["tenancy.admit_ms"]
            + modules["aserve.encode_ms"],
            "stage.prepare_ms": modules["streaming.plan_ms"],
            "stage.dispatch_ms": modules["exec.pool_overhead_ms"],
            "stage.compute_ms": worker_ms,
            "stage.collect_ms": modules["streaming.chunks_ms"],
        },
        "modules": modules,
        "layers": {
            "tenancy.admit_ms": modules["tenancy.admit_ms"],
            "columnar.build_ms": columnar_ms,
            "exec.fingerprint_ms": fingerprint_ms,
            "compiler.compile_ms": total_ms(setup_trace.spans(), "compile"),
            "gc.pause_ms": pauses.seconds * 1e3 / count,
        },
        "counts": {
            "streaming.payload_bytes": statistics.fmean(
                len(pickle.dumps(p)) for p in worker["payloads"]
            ),
            "aserve.request_bytes": statistics.fmean(len(b) for b in bodies),
            "aserve.response_bytes": statistics.fmean(len(reply) for _, reply, _ in http),
            "exec.shards": len(worker["payloads"]) / count,
            "exec.ship_bytes": 0,
            "evaluate.rows_scanned": counters.get("evaluate.rows_scanned", 0) / count,
            "evaluate.index_probes": counters.get("evaluate.index_probes", 0) / count,
            "evaluate.id_joins": counters.get("evaluate.id_joins", 0) / count,
        },
        "spans": spans,
    }
