"""The analysis daemon: accept loop, request handlers, SLO surface.

One :class:`AnalysisServer` owns a listening socket (Unix-domain by
default, TCP with ``port=``), an :class:`IncrementalAnalyzer` shared by
every connection, and the observability state that makes the daemon
operable: request/latency/cache-tier counters, cause-labeled error
counters, per-request spans, and a Prometheus rendering of the lot.

Concurrency model: thread-per-connection (connections are long-lived
and mostly idle between frames) with one bounded admission count: once
``max(1, pool) + queue_depth`` analyze requests are in flight, further
ones are shed immediately with a structured ``overloaded`` response
carrying ``retry_after_ms`` -- backpressure, not deadlock.  The pool
bounds how many procedures compute out of process at once.  Control
commands (``ping``/``status``/``stats``/``metrics``) bypass the gate
so the daemon stays observable under load.  Each connection has a
per-frame idle read timeout, so a client that sends half a frame and
stalls is disconnected instead of pinning a handler slot forever.

With ``pool > 0`` the compute tier runs on a supervised pool of worker
processes (:mod:`repro.serve.supervisor`): crashes and wedges cost a
respawn, not the daemon; requests carry a client-supplied or
server-default deadline that clamps each procedure's time budget.

Shutdown is a graceful drain: SIGTERM stops the accept loop, in-flight
requests finish (bounded by ``drain_timeout``), the worker pool is
retired, and the socket file is unlinked -- a SIGTERM mid-request
leaves nothing behind (pinned by the chaos tests).
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover -- non-POSIX platform
    fcntl = None

from .. import __version__
from ..core.serialize import job_result_to_dict
from ..errors import AnalysisInterrupted, WorkerDied
from ..frontend.parser import ParseError
from ..obs import events, metrics, trace
from ..service.cache import ResultCache, default_cache_root
from ..testing import faults
from .httpd import ObservabilityHTTPD
from .incremental import IncrementalAnalyzer, execute_inline
from .protocol import (
    ERROR_CAUSES, PROTOCOL_VERSION, ProtocolError, error_response,
    recv_message, send_message,
)
from .supervisor import WorkerSupervisor

metrics.REGISTRY.counter("serve_requests", "Requests the server handled")
metrics.REGISTRY.counter("serve_errors",
                         "Requests that produced an error response")
for _cause in ERROR_CAUSES:
    metrics.REGISTRY.counter(
        f"serve_errors_{_cause}",
        f"Requests that produced an error response (cause: {_cause})")
metrics.REGISTRY.counter("serve_idle_closed",
                         "Connections closed by the per-frame idle "
                         "read timeout")
metrics.REGISTRY.histogram("serve_request_seconds",
                           "Wall seconds per server request",
                           buckets=metrics.LATENCY_BUCKETS, label="cmd")

#: Lock fds to close in forked children (pool workers): ``flock`` is
#: per open-file-description and survives fork, so a child that keeps
#: the fd would hold the daemon's startup lock even after the daemon is
#: SIGKILLed -- blocking the restart the lock exists to arbitrate.
_FORK_CLOSE_FDS = set()


def _close_lock_fds_in_child() -> None:
    for fd in list(_FORK_CLOSE_FDS):
        try:
            os.close(fd)
        except OSError:
            pass
    _FORK_CLOSE_FDS.clear()


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_close_lock_fds_in_child)

#: Default socket filename under the cache root.
SOCKET_NAME = "serve.sock"

COMMANDS = ("ping", "analyze", "status", "stats", "metrics", "shutdown")

#: Default per-frame idle read timeout (seconds): a stalled client is
#: disconnected after this long mid-frame or between frames.
DEFAULT_IDLE_TIMEOUT = 300.0

#: Default graceful-drain bound (seconds) for in-flight requests on
#: shutdown.
DEFAULT_DRAIN_TIMEOUT = 30.0


def default_socket_path() -> str:
    return os.path.join(default_cache_root(), SOCKET_NAME)


class AnalysisServer:
    """A long-lived analysis daemon over one listening socket."""

    def __init__(self, socket_path: Optional[str] = None, *,
                 host: str = "127.0.0.1", port: Optional[int] = None,
                 pool: int = 0,
                 deadline_ms: Optional[float] = None,
                 queue_depth: int = 16,
                 idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
                 drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
                 worker_restarts: int = 5,
                 cache: Optional[ResultCache] = None,
                 cache_dir: Optional[str] = None, use_cache: bool = True,
                 lru_procedures: int = 1024, lru_programs: int = 64,
                 http_port: Optional[int] = None, http_host: str = "127.0.0.1",
                 slow_request_ms: Optional[float] = None,
                 requestz_size: int = 64) -> None:
        self.tcp = port is not None
        self.host = host
        self.port = port
        self.socket_path = (socket_path if socket_path is not None
                            else default_socket_path()) if not self.tcp else None
        if cache is None and use_cache:
            cache = ResultCache(cache_dir)
        self.cache = cache
        #: Supervised compute pool; ``pool=0`` runs every fixpoint on
        #: the handler thread.
        self.pool = max(0, int(pool))
        self.supervisor = (WorkerSupervisor(
            self.pool, breaker_threshold=worker_restarts)
            if self.pool else None)
        self.analyzer = IncrementalAnalyzer(
            cache, lru_procedures=lru_procedures, lru_programs=lru_programs,
            executor=(self.supervisor.execute if self.supervisor
                      else execute_inline))
        #: Server-default request deadline in milliseconds (None/0 =
        #: unbounded unless the client supplies ``deadline_ms``).
        self.deadline_ms = deadline_ms or None
        self.queue_depth = max(0, int(queue_depth))
        #: Analyze requests in flight before the next one is shed.
        self.admission_limit = max(1, self.pool) + self.queue_depth
        self.idle_timeout = idle_timeout or None
        self.drain_timeout = drain_timeout
        self._admission = threading.Condition()
        self._inflight = 0
        self._listener: Optional[socket.socket] = None
        self._lock_fd: Optional[int] = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self.started_at: Optional[float] = None
        self.requests = 0
        self.errors = 0
        self.errors_by_cause: Dict[str, int] = {c: 0 for c in ERROR_CAUSES}
        self.idle_closed = 0
        self.connections = 0
        self.by_cmd: Dict[str, int] = {}
        #: Analysis counters summed over every analyze request's own
        #: deltas (work done, so warm requests add nothing).
        self.analysis_counters: Dict[str, int] = {}
        self._latency: Dict[str, metrics.HistogramData] = {}
        self._analyze_ewma: Optional[float] = None
        #: HTTP observability facade (``None`` keeps it off).
        self.http_port = http_port
        self.http_host = http_host
        self._httpd: Optional[ObservabilityHTTPD] = None
        #: Slow-request log threshold in milliseconds (None = off).
        self.slow_request_ms = slow_request_ms or None
        #: Recent-request ring buffer behind ``GET /requestz``.
        self._recent: "deque" = deque(maxlen=max(1, int(requestz_size)))

    # -- lifecycle -----------------------------------------------------
    def start(self) -> str:
        """Bind and listen; returns a printable address.

        Unix mode takes an exclusive ``flock`` on ``<socket>.lock``
        first: two daemons racing onto the same path resolve to exactly
        one winner *before* anyone probes or unlinks the socket file
        (the probe alone is check-then-act and loses races).  The pool
        workers fork before the listener exists so they never inherit
        it.
        """
        if self.tcp:
            if self.supervisor is not None:
                self.supervisor.start()
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            self.port = listener.getsockname()[1]
            address = f"tcp://{self.host}:{self.port}"
        else:
            os.makedirs(os.path.dirname(self.socket_path) or ".",
                        exist_ok=True)
            self._acquire_lock()
            self._clear_stale_socket()
            if self.supervisor is not None:
                self.supervisor.start()
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.socket_path)
            address = f"unix://{self.socket_path}"
        listener.listen(64)
        # A finite accept timeout so the loop re-checks the stopping
        # flag: close() alone does not wake a thread blocked in accept().
        listener.settimeout(0.2)
        self._listener = listener
        self.started_at = time.monotonic()
        if self.http_port is not None:
            self._httpd = ObservabilityHTTPD(self, host=self.http_host,
                                             port=self.http_port)
            self.http_port = self._httpd.start()
        events.info("serve_listening", address=address,
                    admission_limit=self.admission_limit, pool=self.pool,
                    http_port=self.http_port)
        return address

    def _acquire_lock(self) -> None:
        """Exclusive flock on ``<socket>.lock`` for the daemon lifetime.

        The kernel releases the lock on any exit (SIGKILL included), so
        a crashed server never blocks the next one; the lock file
        itself is left in place -- unlinking it would reopen the race
        the lock exists to close.
        """
        if fcntl is None:
            return
        lock_path = self.socket_path + ".lock"
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise RuntimeError(
                f"another server is live on {self.socket_path}")
        self._lock_fd = fd
        _FORK_CLOSE_FDS.add(fd)

    def _release_lock(self) -> None:
        fd, self._lock_fd = self._lock_fd, None
        if fd is not None:
            _FORK_CLOSE_FDS.discard(fd)
            try:
                os.close(fd)  # closing drops the flock
            except OSError:
                pass

    def _clear_stale_socket(self) -> None:
        """Unlink a leftover socket file iff nothing is serving on it."""
        if not os.path.exists(self.socket_path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(0.5)
            probe.connect(self.socket_path)
        except OSError:
            os.unlink(self.socket_path)  # stale: a dead server left it
        else:
            raise RuntimeError(
                f"another server is live on {self.socket_path}")
        finally:
            probe.close()

    def stop(self, reason: str = "requested") -> None:
        """Stop the accept loop (idempotent, callable from any thread)."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        events.info("serve_stopping", reason=reason)
        listener = self._listener
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger the same clean drain-and-stop path."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum,
                          lambda sig, frame: self.stop(f"signal {sig}"))

    def serve_forever(self) -> None:
        """Accept until :meth:`stop`; always leaves no socket litter.

        The exit path is a graceful drain: in-flight requests finish
        (bounded by ``drain_timeout``; connections merely idle in a
        read do not count as in-flight), then the worker pool is
        retired and the socket file is unlinked.
        """
        if self._listener is None:
            self.start()
        try:
            while not self._stopping.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue  # periodic stopping-flag check
                except OSError:
                    break  # listener closed by stop()
                with self._lock:
                    self.connections += 1
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True)
                thread.start()
        finally:
            self.stop("serve_forever exit")
            self._drain()
            if self._httpd is not None:
                self._httpd.stop()
            if self.supervisor is not None:
                self.supervisor.shutdown()
            if self.socket_path is not None:
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass
            self._release_lock()
            events.info("serve_stopped", requests=self.requests)

    def _drain(self) -> None:
        """Block until in-flight requests complete (or the bound hits)."""
        deadline = time.monotonic() + self.drain_timeout
        with self._admission:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    events.warning("serve_drain_timeout",
                                   inflight=self._inflight,
                                   timeout=self.drain_timeout)
                    return
                self._admission.wait(min(remaining, 0.5))
        events.info("serve_drained")

    # -- admission -----------------------------------------------------
    def _admit(self) -> bool:
        """Claim one in-flight analyze slot; False = shed the request."""
        with self._admission:
            if self._inflight >= self.admission_limit:
                return False
            self._inflight += 1
            return True

    def _release(self) -> None:
        with self._admission:
            self._inflight -= 1
            self._admission.notify_all()

    def _retry_after_ms(self) -> int:
        """Shed hint: roughly one smoothed analyze duration, clamped."""
        with self._lock:
            ewma = self._analyze_ewma
        return int(max(50, min(5000, (ewma or 0.1) * 1000.0)))

    # -- connections ---------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(self.idle_timeout)
        try:
            while not self._stopping.is_set():
                try:
                    request = recv_message(conn)
                except socket.timeout:
                    # The slow-client guard: half a frame then silence
                    # must not pin this handler forever.
                    events.warning("serve_idle_timeout",
                                   seconds=self.idle_timeout)
                    with self._lock:
                        self.idle_closed += 1
                    return
                except ProtocolError as exc:
                    self._account("unknown", 0.0, ok=False, cause="protocol")
                    send_message(conn, error_response(str(exc),
                                                      code="protocol"))
                    return
                if request is None:
                    return  # clean EOF
                cmd = request.get("cmd")
                admitted = cmd == "analyze" and self._admit()
                try:
                    if cmd == "analyze" and not admitted:
                        self._account("analyze", 0.0, ok=False,
                                      cause="overloaded")
                        response = error_response(
                            "server overloaded: "
                            f"{self.admission_limit} analyze "
                            "requests already in flight",
                            code="overloaded",
                            retry_after_ms=self._retry_after_ms())
                        events.warning("serve_overloaded",
                                       retry_after_ms=response["retry_after_ms"])
                    else:
                        response = self._dispatch(request)
                    if faults.fire_once("serve_conn_reset"):
                        # Injected chaos: drop the connection after the
                        # work, before the reply -- the client retries
                        # and the tiers make the retry cheap.
                        events.warning("serve_conn_reset_injected", cmd=cmd)
                        return
                    send_message(conn, response)
                    if response.get("stopping"):
                        self.stop("shutdown command")
                        return
                finally:
                    if admitted:
                        self._release()
        except OSError:
            pass  # peer vanished; nothing to clean up
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, request: dict) -> dict:
        cmd = request.get("cmd")
        start = time.perf_counter()
        trace_id: Optional[str] = None
        if cmd not in COMMANDS:
            response = error_response(
                f"unknown command {cmd!r} (have: {', '.join(COMMANDS)})",
                code="protocol")
        else:
            deadline = None
            if cmd == "analyze":
                try:
                    deadline = self._request_deadline(request)
                except (TypeError, ValueError):
                    deadline = None  # _cmd_analyze reports the error
            # The request's trace identity: the id names it in the
            # slow-request log and ring buffer whether or not spans are
            # being recorded; when they are, the ambient context rides
            # every job to the pool workers and their span batches come
            # home re-parented under this serve_request span.
            ctx = trace.TraceContext(trace.new_trace_id(),
                                     parent=trace.current_lane(),
                                     deadline=deadline)
            trace_id = ctx.trace_id
            with trace.context(ctx), \
                    trace.span("serve_request", cmd=cmd, trace_id=trace_id):
                try:
                    response = getattr(self, f"_cmd_{cmd}")(request)
                except Exception as exc:  # noqa: BLE001 -- daemon must survive
                    response = error_response(
                        f"{type(exc).__name__}: {exc}", code="internal")
        if trace_id is not None:
            # Every response names its request: the client-side exemplar
            # matching the slow-request log, /requestz and the exported
            # span tree.
            response.setdefault("trace_id", trace_id)
        elapsed = time.perf_counter() - start
        ok = bool(response.get("ok"))
        self._account(cmd if cmd in COMMANDS else "unknown",
                      elapsed, ok=ok,
                      cause=None if ok else response.get("code"))
        self._note_request(cmd, request, response, elapsed, ok, trace_id)
        return response

    def _account(self, cmd: str, elapsed: float, *, ok: bool,
                 cause: Optional[str] = None) -> None:
        key = metrics.histogram_key("serve_request_seconds", cmd)
        with self._lock:
            self.requests += 1
            self.by_cmd[cmd] = self.by_cmd.get(cmd, 0) + 1
            if not ok:
                self.errors += 1
                cause = cause if cause in ERROR_CAUSES else "internal"
                self.errors_by_cause[cause] += 1
            data = self._latency.get(key)
            if data is None:
                data = metrics.HistogramData(
                    "serve_request_seconds", metrics.LATENCY_BUCKETS, cmd)
                self._latency[key] = data
            data.observe(elapsed)

    def _note_request(self, cmd: str, request: dict, response: dict,
                      elapsed: float, ok: bool,
                      trace_id: Optional[str]) -> None:
        """Per-request accounting: ring buffer plus the slow-request log.

        The record carries the request's *own* counter deltas (the
        analyzer's per-request collector output, pool workers folded
        in) and its trace id as exemplar -- enough to go from one slow
        line straight to the matching spans in an exported trace.
        """
        record: Dict[str, object] = {
            "ts": round(time.time(), 3),
            "cmd": cmd if cmd in COMMANDS else "unknown",
            "label": str(request.get("label", "")) or None,
            "seconds": round(elapsed, 6),
            "ok": ok,
            "trace_id": trace_id,
        }
        if not ok:
            record["code"] = response.get("code")
        if cmd == "analyze" and ok:
            record["tiers"] = response.get("tiers")
            counters = (response.get("result") or {}).get("counters") or {}
            record["counters"] = {name: value for name, value
                                  in sorted(counters.items()) if value}
        with self._lock:
            self._recent.append(record)
            for name, value in record.get("counters", {}).items():
                self.analysis_counters[name] = (
                    self.analysis_counters.get(name, 0) + value)
        threshold = self.slow_request_ms
        if threshold is not None and elapsed * 1000.0 >= threshold:
            events.warning("serve_slow_request",
                           cmd=record["cmd"], label=record["label"],
                           seconds=record["seconds"],
                           threshold_ms=threshold, trace_id=trace_id,
                           tiers=record.get("tiers"),
                           counters=record.get("counters"))

    # -- command handlers ----------------------------------------------
    def _cmd_ping(self, request: dict) -> dict:
        return {"ok": True, "pong": True, "pid": os.getpid()}

    def _request_deadline(self, request: dict) -> Optional[float]:
        """Resolve the request's drop-dead instant (monotonic) or None."""
        deadline_ms = request.get("deadline_ms", self.deadline_ms)
        if not deadline_ms:
            return None
        return time.monotonic() + float(deadline_ms) / 1000.0

    def _cmd_analyze(self, request: dict) -> dict:
        source = request.get("source")
        if not isinstance(source, str):
            return error_response("analyze needs a string 'source' field",
                                  code="parse")
        label = str(request.get("label", ""))
        try:
            deadline = self._request_deadline(request)
        except (TypeError, ValueError):
            return error_response("deadline_ms must be a number",
                                  code="parse")
        start = time.perf_counter()
        try:
            result, info = self.analyzer.analyze(
                source, label=label, options=request.get("options"),
                deadline=deadline)
        except (ParseError, ValueError) as exc:
            return error_response(str(exc), code="parse")
        except AnalysisInterrupted as exc:
            return error_response(f"analysis interrupted: {exc}",
                                  code="interrupted")
        except WorkerDied as exc:
            return error_response(f"analysis worker died: {exc}",
                                  code="worker_died")
        wall = time.perf_counter() - start
        with self._lock:
            self._analyze_ewma = (wall if self._analyze_ewma is None
                                  else 0.8 * self._analyze_ewma + 0.2 * wall)
        return {
            "ok": True,
            "result": job_result_to_dict(result),
            "tiers": info["tiers"],
            "procedures": info["procedures"],
            "request_seconds": wall,
        }

    def _config(self) -> dict:
        """The resolved configuration ``status`` and the CLI both print."""
        return {
            "cache_dir": (str(self.cache.root)
                          if self.cache is not None else None),
        }

    def _cmd_status(self, request: dict) -> dict:
        uptime = (time.monotonic() - self.started_at
                  if self.started_at is not None else 0.0)
        address = (f"tcp://{self.host}:{self.port}" if self.tcp
                   else f"unix://{self.socket_path}")
        with self._lock:
            requests, connections = self.requests, self.connections
        with self._admission:
            inflight = self._inflight
        response = {
            "ok": True,
            "pid": os.getpid(),
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "address": address,
            "pool": self.pool,
            "queue_depth": self.queue_depth,
            "admission_limit": self.admission_limit,
            "deadline_ms": self.deadline_ms,
            "idle_timeout": self.idle_timeout,
            "inflight": inflight,
            "uptime_seconds": uptime,
            "requests": requests,
            "connections": connections,
        }
        if self.supervisor is not None:
            response["breaker_open"] = self.supervisor.breaker_open()
            response["pool_alive"] = (
                self.supervisor.counter_summary()["serve_pool_alive"])
            response["worker_table"] = self.supervisor.worker_table()
        lru_entries, lru_bytes = self.analyzer.lru_occupancy()
        response["lru_entries"] = lru_entries
        response["lru_bytes"] = lru_bytes
        response["http_port"] = self.http_port
        response["slow_request_ms"] = self.slow_request_ms
        response["red"] = self.red_summary()
        response.update(self._config())
        return response

    def red_summary(self) -> dict:
        """RED rollups: request rate, errors by cause, and per-command
        duration percentiles from the live latency histograms."""
        uptime = (time.monotonic() - self.started_at
                  if self.started_at is not None else 0.0)
        commands: Dict[str, dict] = {}
        with self._lock:
            requests, errors = self.requests, self.errors
            by_cause = {cause: count for cause, count
                        in sorted(self.errors_by_cause.items()) if count}
            for data in self._latency.values():
                p50, p95 = data.quantile(0.5), data.quantile(0.95)
                commands[data.label_value or ""] = {
                    "count": data.total,
                    "mean_ms": (round(data.sum / data.total * 1e3, 3)
                                if data.total else None),
                    "p50_ms": (round(p50 * 1e3, 3)
                               if p50 is not None else None),
                    "p95_ms": (round(p95 * 1e3, 3)
                               if p95 is not None else None),
                }
        return {
            "rate_per_s": (round(requests / uptime, 4)
                           if uptime > 0 else 0.0),
            "requests": requests,
            "errors": errors,
            "errors_by_cause": by_cause,
            "commands": dict(sorted(commands.items())),
        }

    # -- HTTP facade surface (read-only; see serve/httpd.py) -----------
    def prometheus(self) -> str:
        """The Prometheus exposition behind ``GET /metrics``."""
        return self._cmd_metrics({})["prometheus"]

    def health(self) -> Tuple[bool, dict]:
        """``(healthy, document)`` behind ``GET /healthz``.

        Unhealthy while stopping, while the pool circuit breaker is
        open, or when a configured pool has zero live workers -- the
        states in which an analyze request would be degraded to inline
        execution or refused outright.
        """
        stopping = self._stopping.is_set()
        doc: Dict[str, object] = {"stopping": stopping, "pool": self.pool}
        healthy = not stopping and self.started_at is not None
        if self.supervisor is not None:
            breaker = self.supervisor.breaker_open()
            alive = self.supervisor.counter_summary()["serve_pool_alive"]
            doc["breaker_open"] = breaker
            doc["pool_alive"] = alive
            if breaker or alive == 0:
                healthy = False
        doc["ok"] = healthy
        return healthy, doc

    def status_document(self) -> dict:
        """The JSON document behind ``GET /statusz``: the ``status``
        response plus the full counter snapshot (the live console
        derives tier hit rates from it)."""
        doc = self._cmd_status({})
        doc["counters"] = self._counter_snapshot()
        return doc

    def recent_requests(self) -> List[dict]:
        """Snapshot of the ring buffer behind ``GET /requestz``
        (oldest first)."""
        with self._lock:
            return list(self._recent)

    def _counter_snapshot(self) -> Dict[str, int]:
        with self._lock:
            counters = dict(self.analysis_counters)
            counters.update({"serve_requests": self.requests,
                             "serve_errors": self.errors,
                             "serve_connections": self.connections,
                             "serve_idle_closed": self.idle_closed})
            counters.update({f"serve_errors_{cause}": count
                             for cause, count
                             in sorted(self.errors_by_cause.items())})
            counters.update({f"serve_requests_{cmd}": count
                             for cmd, count in sorted(self.by_cmd.items())})
        counters.update(self.analyzer.counter_summary())
        if self.supervisor is not None:
            counters.update(self.supervisor.counter_summary())
        return counters

    def _cmd_stats(self, request: dict) -> dict:
        with self._lock:
            latency = {key: data.to_dict()
                       for key, data in self._latency.items()}
        return {
            "ok": True,
            "counters": self._counter_snapshot(),
            "latency": latency,
            "uptime_seconds": (time.monotonic() - self.started_at
                               if self.started_at is not None else 0.0),
        }

    def _cmd_metrics(self, request: dict) -> dict:
        counters = self._counter_snapshot()
        with self._lock:
            histograms = dict(self._latency)
        return {"ok": True,
                "prometheus": metrics.prometheus_text(counters, histograms)}

    def _cmd_shutdown(self, request: dict) -> dict:
        return {"ok": True, "stopping": True, "pid": os.getpid()}


__all__ = ["AnalysisServer", "COMMANDS", "default_socket_path"]
