"""Supervised worker pool for the analysis daemon.

PR 7's server ran every fixpoint on a handler thread of the daemon
process, so one crashing or wedged fixpoint took the warm server -- and
its memory LRU -- down with it.  :class:`WorkerSupervisor` moves the
*compute* tier into long-lived child processes while the memory and
disk tiers stay in the parent:

* **Process isolation.**  Jobs travel to workers as protocol-5
  pickle frames (:func:`repro.service.transport.send_payload`);
  results come back the same way.  A worker that segfaults, gets
  OOM-killed, or wedges costs one respawn, never the daemon.
* **Supervision.**  One loop thread multiplexes every worker's result
  pipe and process sentinel through ``multiprocessing.connection.wait``
  (the PR 2 scheduler's pattern).  Workers heartbeat from a side
  thread; a busy worker that stops heartbeating is presumed wedged,
  killed, and its job retried.  Dead workers are reaped and respawned
  under capped exponential backoff.
* **Deadlines.**  A job dispatched with a deadline gets its
  ``time_budget`` clamped to the time remaining
  (:func:`repro.core.budget.clamp_to_deadline`), so the worker's own
  degradation ladder -- PR 4 machinery -- returns a sound ``degraded``
  result before the deadline.  A worker that ignores its budget (a
  genuine wedge) is killed at ``deadline + grace`` and the submitting
  thread synthesizes the degraded answer inline under a sliver budget.
* **Circuit breaker.**  Sustained failures (``breaker_threshold``
  consecutive crashes/hangs) open a breaker: for ``breaker_cooldown``
  seconds every submission executes inline in the parent (PR 7
  behavior) with a visible ``serve_breaker_open`` event, instead of
  flapping through respawn storms.

The public entry point is :meth:`WorkerSupervisor.execute`, shaped as
the :class:`~repro.serve.incremental.IncrementalAnalyzer` executor
contract: ``(job, deadline) -> (JobResult, external)`` where
``external`` says the result was computed out-of-process (its counters
are not in the calling thread's collector).
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Deque, Dict, List, Optional, Tuple

from ..core.budget import clamp_to_deadline
from ..errors import WorkerDied
from ..obs import events, metrics, trace
from ..service import transport
from ..service.job import AnalysisJob, JobResult, execute_job
from ..service.scheduler import _context
from ..testing import faults

metrics.REGISTRY.counter("worker_restarts",
                         "Serve pool workers respawned after a failure")
metrics.REGISTRY.counter("worker_crashes",
                         "Serve pool workers that died mid-supervision")
metrics.REGISTRY.counter("worker_hangs",
                         "Serve pool workers killed as wedged "
                         "(deadline or heartbeat expiry)")
metrics.REGISTRY.counter("serve_breaker_opens",
                         "Circuit-breaker openings (pool fell back to "
                         "inline execution)")
metrics.REGISTRY.counter("serve_pool_jobs",
                         "Jobs completed by supervised pool workers")
metrics.REGISTRY.counter("serve_pool_inline",
                         "Jobs the supervisor executed inline "
                         "(breaker open, expired deadline, shutdown)")

#: Wait after ``terminate()`` before escalating to ``kill()``.
_KILL_GRACE_S = 2.0

_IDLE, _BUSY, _DEAD = "idle", "busy", "dead"


def _worker_main(job_recv, res_send, hb_interval: float,
                 parent_pid: int) -> None:
    """Child-process entry: serve jobs until told (or unable) to exit.

    The result pipe is shared by job results and heartbeats, so sends
    are serialized by a lock; the heartbeat thread keeps beating while
    a fixpoint runs (the GIL is released often enough), which is
    exactly the liveness signal the parent wants -- a worker that stops
    beating while busy is wedged below Python, not merely slow.
    """
    pid = os.getpid()
    send_lock = threading.Lock()

    def send(payload: tuple) -> None:
        with send_lock:
            transport.send_payload(res_send, payload)

    stop_hb = threading.Event()

    def heartbeats() -> None:
        while not stop_hb.wait(hb_interval):
            if os.getppid() != parent_pid:
                # Orphaned: the supervisor died without retiring us.
                # Exit so we release every inherited fd (socket lock
                # included) instead of lingering forever.
                os._exit(0)
            try:
                send(("hb", pid))
            except (OSError, ValueError):
                return

    try:
        send(("ready", pid))
    except (OSError, ValueError):
        return
    threading.Thread(target=heartbeats, daemon=True).start()

    while True:
        try:
            payload = transport.recv_payload(job_recv, count=False)
        except (EOFError, OSError):
            break
        if payload[0] == "exit":
            break
        _, seq, job, ctx, directives = payload
        if ctx is not None and "trace" not in job.telemetry:
            # The dispatching daemon is tracing this request: arm the
            # job so execute_job opens a span session and returns the
            # events with the result.  The telemetry tuple is excluded
            # from the cache key, so this changes nothing downstream.
            job = dataclasses.replace(job,
                                      telemetry=job.telemetry + ("trace",))
        if directives.get("kill"):
            # Injected chaos: die the way a segfault does, mid-job.
            os._exit(13)
        if directives.get("hang"):
            # Injected chaos: wedge below the budget machinery -- stop
            # heartbeating and never return.  The parent must kill us.
            stop_hb.set()
            time.sleep(3600)
        try:
            result = execute_job(job)
        except BaseException:
            try:
                send(("err", seq, traceback.format_exc()))
            except (OSError, ValueError):
                break
            continue
        try:
            send(("done", seq, result))
        except (OSError, ValueError):
            break


class _PoolJob:
    """One submitted job's rendezvous between handler and loop thread."""

    __slots__ = ("job", "deadline", "seq", "attempts", "done", "result",
                 "error", "fallback", "ctx")

    def __init__(self, job: AnalysisJob, deadline: Optional[float],
                 seq: int,
                 ctx: Optional[trace.TraceContext] = None) -> None:
        self.job = job
        self.deadline = deadline
        self.seq = seq
        self.ctx = ctx
        self.attempts = 0
        self.done = threading.Event()
        self.result: Optional[JobResult] = None
        self.error: Optional[BaseException] = None
        #: Set instead of a result when the submitter should execute
        #: inline: ``"expired"`` (deadline passed; synthesize degraded)
        #: or ``"breaker"``/``"shutdown"`` (pool unavailable).
        self.fallback: Optional[str] = None

    def resolve(self) -> None:
        self.done.set()


class _Worker:
    """Parent-side bookkeeping for one pool slot."""

    __slots__ = ("idx", "proc", "pid", "job_conn", "res_conn", "state",
                 "current", "busy_since", "last_hb", "fails", "respawn_at")

    def __init__(self, idx: int) -> None:
        self.idx = idx
        self.proc = None
        self.pid: Optional[int] = None
        self.job_conn = None
        self.res_conn = None
        self.state = _DEAD
        self.current: Optional[_PoolJob] = None
        self.busy_since = 0.0
        self.last_hb = 0.0
        self.fails = 0
        self.respawn_at: Optional[float] = None


class WorkerSupervisor:
    """A supervised pool of analysis worker processes.

    Thread safety: handler threads only touch the pending queue, the
    wake pipe, and counters (all under one lock); every worker's state
    belongs to the loop thread alone.
    """

    def __init__(self, pool_size: int, *, retries: int = 2,
                 heartbeat_interval: float = 0.5,
                 heartbeat_timeout: float = 10.0,
                 deadline_grace: float = 0.5,
                 breaker_threshold: int = 5,
                 breaker_cooldown: float = 30.0,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0) -> None:
        self.pool_size = max(1, int(pool_size))
        self.retries = max(0, int(retries))
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.deadline_grace = deadline_grace
        self.breaker_threshold = max(1, int(breaker_threshold))
        self.breaker_cooldown = breaker_cooldown
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap

        self._lock = threading.Lock()
        self._pending: Deque[_PoolJob] = deque()
        self._workers: List[_Worker] = []
        self._seq = 0
        self._started = False
        self._stopping = threading.Event()
        self._loop_thread: Optional[threading.Thread] = None
        self._wake_r, self._wake_w = os.pipe()
        self._ctx = _context()

        self._consecutive_failures = 0
        self._breaker_open_until = 0.0
        self._breaker_was_open = False
        self.counters: Dict[str, int] = {
            "worker_restarts": 0,
            "worker_crashes": 0,
            "worker_hangs": 0,
            "serve_breaker_opens": 0,
            "serve_pool_jobs": 0,
            "serve_pool_inline": 0,
        }

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn the pool and the supervision loop (idempotent).

        Call *before* binding listening sockets: forked workers must
        not inherit the daemon's listener or client connections.
        """
        if self._started:
            return
        self._started = True
        for idx in range(self.pool_size):
            worker = _Worker(idx)
            self._spawn(worker)
            self._workers.append(worker)
        self._loop_thread = threading.Thread(
            target=self._loop, name="serve-supervisor", daemon=True)
        self._loop_thread.start()
        events.info("serve_pool_started", workers=self.pool_size)

    def _spawn(self, worker: _Worker) -> None:
        job_recv, job_send = self._ctx.Pipe(duplex=False)
        res_recv, res_send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(job_recv, res_send, self.heartbeat_interval, os.getpid()),
            daemon=True)
        proc.start()
        job_recv.close()
        res_send.close()
        worker.proc = proc
        worker.pid = proc.pid
        worker.job_conn = job_send
        worker.res_conn = res_recv
        worker.state = _IDLE
        worker.current = None
        worker.last_hb = time.monotonic()
        worker.respawn_at = None

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the loop and retire every worker."""
        if not self._started:
            return
        self._stopping.set()
        self._wake()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout)
        for worker in self._workers:
            self._retire(worker)
        events.info("serve_pool_stopped",
                    restarts=self.counters["worker_restarts"],
                    crashes=self.counters["worker_crashes"])

    def _retire(self, worker: _Worker) -> None:
        """Ask one worker to exit; escalate to terminate/kill."""
        proc = worker.proc
        if proc is None:
            return
        try:
            transport.send_payload(worker.job_conn, ("exit",))
        except (OSError, ValueError):
            pass
        self._close_conns(worker)
        proc.join(_KILL_GRACE_S)
        if proc.is_alive():
            proc.terminate()
            proc.join(_KILL_GRACE_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
        worker.proc = None
        worker.state = _DEAD

    @staticmethod
    def _close_conns(worker: _Worker) -> None:
        for conn in (worker.job_conn, worker.res_conn):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        worker.job_conn = worker.res_conn = None

    # -- submission (handler threads) ----------------------------------
    def execute(self, job: AnalysisJob,
                deadline: Optional[float] = None) -> Tuple[JobResult, bool]:
        """Run ``job`` on the pool; ``(result, computed_out_of_process)``.

        Falls back to inline in-parent execution when the breaker is
        open, the pool is not running, or the job's deadline expired
        while queued (the inline run then has a sliver budget and
        degrades immediately -- a sound answer, on time).  Raises
        :class:`~repro.errors.WorkerDied` when workers died under the
        job beyond the retry budget.
        """
        if (not self._started or self._stopping.is_set()
                or self._breaker_is_open()):
            return self._inline(job, deadline), False
        # Capture the request's trace identity on the handler thread --
        # it rides the submission envelope so the worker's spans carry
        # the same trace id, and retries re-parent under it.
        ctx = trace.current_context() if trace.enabled() else None
        pool_job = _PoolJob(job, deadline, self._next_seq(), ctx)
        with self._lock:
            self._pending.append(pool_job)
        self._wake()
        while not pool_job.done.wait(0.5):
            if (self._loop_thread is None
                    or not self._loop_thread.is_alive()):
                # The supervision loop itself died: never strand the
                # request -- compute it here.
                return self._inline(job, deadline), False
        if pool_job.fallback is not None:
            return self._inline(job, deadline), False
        if pool_job.error is not None:
            raise pool_job.error
        return pool_job.result, True

    def _inline(self, job: AnalysisJob,
                deadline: Optional[float]) -> JobResult:
        with self._lock:
            self.counters["serve_pool_inline"] += 1
        if deadline is not None:
            job = dataclasses.replace(
                job, time_budget=clamp_to_deadline(job.time_budget, deadline))
        return execute_job(job)

    def _next_seq(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    # -- breaker -------------------------------------------------------
    def _breaker_is_open(self) -> bool:
        with self._lock:
            open_now = time.monotonic() < self._breaker_open_until
            closed = self._breaker_was_open and not open_now
            if closed:
                self._breaker_was_open = False
        if closed:
            # The cooldown lapsed: the first check after expiry logs the
            # close so log artifacts show the full open/close history.
            events.info("serve_breaker_closed",
                        cooldown_seconds=self.breaker_cooldown)
        return open_now

    def breaker_open(self) -> bool:
        """Public read of the breaker state (status surface)."""
        return self._breaker_is_open()

    def _record_failure(self, kind: str) -> None:
        """One crash/hang: count it, maybe open the breaker (loop thread)."""
        with self._lock:
            self.counters[kind] += 1
            self._consecutive_failures += 1
            tripped = (self._consecutive_failures >= self.breaker_threshold
                       and time.monotonic() >= self._breaker_open_until)
            if tripped:
                self._breaker_open_until = (time.monotonic()
                                            + self.breaker_cooldown)
                self._consecutive_failures = 0
                self._breaker_was_open = True
                self.counters["serve_breaker_opens"] += 1
        if tripped:
            events.warning("serve_breaker_open",
                           cooldown_seconds=self.breaker_cooldown,
                           threshold=self.breaker_threshold)
            # Everything queued goes inline: the submitters must not
            # wait out a respawn storm.
            with self._lock:
                stranded = list(self._pending)
                self._pending.clear()
            for pool_job in stranded:
                pool_job.fallback = "breaker"
                pool_job.resolve()

    def _record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self.counters["serve_pool_jobs"] += 1

    # -- supervision loop ----------------------------------------------
    def _loop(self) -> None:
        try:
            while True:
                if self._stopping.is_set():
                    self._fail_pending("shutdown")
                    return
                self._respawn_due()
                self._expire_pending()
                self._assign_pending()
                ready = mp_connection.wait(self._watch_list(),
                                           timeout=self._wait_timeout())
                self._drain_wake(ready)
                self._collect(ready)
                self._kill_expired()
        except Exception:
            # A supervision bug must not strand submitters: they poll
            # loop-thread liveness and fall back to inline execution.
            events.error("serve_pool_loop_crashed",
                         error=traceback.format_exc().strip().splitlines()[-1])
            self._fail_pending("loop-crash")
            raise

    def _watch_list(self) -> list:
        watch: list = [self._wake_r]
        for worker in self._workers:
            if worker.state == _DEAD:
                continue
            watch.append(worker.res_conn)
            watch.append(worker.proc.sentinel)
        return watch

    def _wait_timeout(self) -> float:
        now = time.monotonic()
        horizon = now + 0.5
        for worker in self._workers:
            if worker.state == _BUSY:
                job = worker.current
                if job is not None and job.deadline is not None:
                    horizon = min(horizon,
                                  job.deadline + self.deadline_grace)
                horizon = min(horizon,
                              worker.last_hb + self.heartbeat_timeout)
            elif worker.state == _DEAD and worker.respawn_at is not None:
                horizon = min(horizon, worker.respawn_at)
        return max(0.0, horizon - now)

    def _drain_wake(self, ready) -> None:
        if self._wake_r in ready:
            try:
                os.read(self._wake_r, 4096)
            except OSError:
                pass

    def _expire_pending(self) -> None:
        """Resolve queued jobs whose deadline passed before dispatch:
        the submitter synthesizes a degraded answer inline instead of
        waiting for a worker that cannot deliver on time anyway."""
        now = time.monotonic()
        expired: List[_PoolJob] = []
        with self._lock:
            keep: Deque[_PoolJob] = deque()
            for pool_job in self._pending:
                if (pool_job.deadline is not None
                        and now >= pool_job.deadline):
                    expired.append(pool_job)
                else:
                    keep.append(pool_job)
            self._pending = keep
        for pool_job in expired:
            pool_job.fallback = "expired"
            pool_job.resolve()

    def _assign_pending(self) -> None:
        for worker in self._workers:
            if worker.state != _IDLE:
                continue
            with self._lock:
                if not self._pending:
                    return
                pool_job = self._pending.popleft()
            self._dispatch(worker, pool_job)

    def _dispatch(self, worker: _Worker, pool_job: _PoolJob) -> None:
        pool_job.attempts += 1
        directives: Dict[str, bool] = {}
        if faults.fire_once("serve_worker_kill", pool_job.job.label):
            directives["kill"] = True
        if faults.fire_once("serve_worker_hang", pool_job.job.label):
            directives["hang"] = True
        job = pool_job.job
        if pool_job.deadline is not None:
            job = dataclasses.replace(
                job,
                time_budget=clamp_to_deadline(job.time_budget,
                                              pool_job.deadline))
        try:
            transport.send_payload(
                worker.job_conn,
                ("job", pool_job.seq, job, pool_job.ctx, directives),
                count_prefix="job_")
        except (OSError, ValueError):
            # Worker died before reading: the sentinel path reaps it
            # and requeues this job.
            pass
        now = time.monotonic()
        worker.state = _BUSY
        worker.current = pool_job
        worker.busy_since = now
        worker.last_hb = now

    def _collect(self, ready) -> None:
        for worker in list(self._workers):
            if worker.state == _DEAD:
                continue
            signalled = (worker.res_conn in ready
                         or worker.proc.sentinel in ready)
            if not signalled:
                continue
            while worker.state != _DEAD and worker.res_conn.poll():
                try:
                    payload = transport.recv_payload(worker.res_conn)
                except (EOFError, OSError):
                    self._reap_crashed(worker)
                    break
                self._handle_message(worker, payload)
            if worker.state != _DEAD and not worker.proc.is_alive():
                self._reap_crashed(worker)

    def _handle_message(self, worker: _Worker, payload: tuple) -> None:
        kind = payload[0]
        worker.last_hb = time.monotonic()
        if kind in ("hb", "ready"):
            return
        pool_job = worker.current
        if pool_job is None or payload[1] != pool_job.seq:
            return  # stale answer from a dispatch we already gave up on
        worker.current = None
        worker.state = _IDLE
        worker.fails = 0
        if kind == "done":
            pool_job.result = payload[2]
            self._record_success()
            pool_job.resolve()
        else:  # "err": the job raised in the worker; worker is healthy
            if pool_job.attempts <= self.retries:
                self._note_retry(pool_job, "job-error", worker)
                with self._lock:
                    self._pending.append(pool_job)
            else:
                pool_job.error = WorkerDied(
                    0, stage=f"job raised:\n{payload[2]}")
                pool_job.resolve()

    def _reap_crashed(self, worker: _Worker) -> None:
        """A worker died under supervision: reap, respawn, retry."""
        proc, pid = worker.proc, worker.pid
        exitcode = proc.exitcode
        proc.join()
        self._close_conns(worker)
        pool_job, worker.current = worker.current, None
        worker.proc = None
        worker.state = _DEAD
        worker.fails += 1
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** (worker.fails - 1)))
        worker.respawn_at = time.monotonic() + delay
        events.warning("serve_worker_died", pid=pid, slot=worker.idx,
                       exitcode=exitcode, respawn_in=round(delay, 3),
                       label=pool_job.job.label if pool_job else None)
        self._record_failure("worker_crashes")
        if pool_job is not None:
            self._requeue_or_fail(pool_job,
                                  WorkerDied(exitcode, stage="serve pool"),
                                  worker=worker)

    def _requeue_or_fail(self, pool_job: _PoolJob,
                         error: BaseException,
                         worker: Optional[_Worker] = None) -> None:
        now = time.monotonic()
        expired = (pool_job.deadline is not None
                   and now >= pool_job.deadline)
        if expired:
            pool_job.fallback = "expired"
            pool_job.resolve()
        elif self._breaker_is_open():
            pool_job.fallback = "breaker"
            pool_job.resolve()
        elif pool_job.attempts <= self.retries:
            self._note_retry(pool_job, "worker-died", worker)
            with self._lock:
                self._pending.append(pool_job)
        else:
            pool_job.error = error
            pool_job.resolve()

    def _note_retry(self, pool_job: _PoolJob, cause: str,
                    worker: Optional[_Worker] = None) -> None:
        """One retry decision: structured event plus a trace marker.

        The marker is a zero-duration span on the originating request's
        lane (``ctx.parent``), so the respawned attempt's spans and the
        retry itself both sit under the same ``serve_request`` -- the
        trace shows the kill/retry/redo sequence end to end.
        """
        trace_id = pool_job.ctx.trace_id if pool_job.ctx else None
        events.warning("serve_job_retry", label=pool_job.job.label,
                       attempt=pool_job.attempts + 1, cause=cause,
                       worker_slot=worker.idx if worker else None,
                       worker_pid=worker.pid if worker else None,
                       trace_id=trace_id)
        if pool_job.ctx is not None and trace.enabled():
            now = time.perf_counter()
            trace.emit("serve_job_retry", now, now,
                       tid=pool_job.ctx.parent or None,
                       args={"trace_id": trace_id,
                             "label": pool_job.job.label,
                             "attempt": pool_job.attempts + 1,
                             "cause": cause})

    def _kill_expired(self) -> None:
        """Kill busy workers past their job deadline or heartbeat window."""
        now = time.monotonic()
        for worker in self._workers:
            if worker.state != _BUSY:
                continue
            pool_job = worker.current
            over_deadline = (
                pool_job is not None and pool_job.deadline is not None
                and now >= pool_job.deadline + self.deadline_grace)
            hb_stale = now - worker.last_hb >= self.heartbeat_timeout
            if not (over_deadline or hb_stale):
                continue
            self._kill_worker(worker,
                              "deadline" if over_deadline else "heartbeat")

    def _kill_worker(self, worker: _Worker, why: str) -> None:
        proc, pid = worker.proc, worker.pid
        proc.terminate()
        proc.join(_KILL_GRACE_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
        self._close_conns(worker)
        pool_job, worker.current = worker.current, None
        worker.proc = None
        worker.state = _DEAD
        worker.fails += 1
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** (worker.fails - 1)))
        worker.respawn_at = time.monotonic() + delay
        events.warning("serve_worker_killed", pid=pid, slot=worker.idx,
                       reason=why,
                       label=pool_job.job.label if pool_job else None,
                       respawn_in=round(delay, 3))
        self._record_failure("worker_hangs")
        if pool_job is not None:
            self._requeue_or_fail(
                pool_job,
                WorkerDied(-9, stage=f"killed as wedged ({why})"),
                worker=worker)

    def _respawn_due(self) -> None:
        now = time.monotonic()
        for worker in self._workers:
            if (worker.state == _DEAD and worker.respawn_at is not None
                    and now >= worker.respawn_at):
                self._spawn(worker)
                with self._lock:
                    self.counters["worker_restarts"] += 1
                events.info("serve_worker_respawned", pid=worker.pid,
                            slot=worker.idx)

    def _fail_pending(self, why: str) -> None:
        with self._lock:
            stranded = list(self._pending)
            self._pending.clear()
        for worker in self._workers:
            pool_job, worker.current = worker.current, None
            if pool_job is not None:
                stranded.append(pool_job)
        for pool_job in stranded:
            pool_job.fallback = "shutdown" if why == "shutdown" else "breaker"
            pool_job.resolve()

    # -- observability -------------------------------------------------
    def counter_summary(self) -> Dict[str, int]:
        with self._lock:
            out = dict(self.counters)
        out["serve_pool_size"] = self.pool_size
        out["serve_pool_alive"] = sum(1 for w in self._workers
                                      if w.state != _DEAD)
        return out

    def worker_table(self) -> List[Dict[str, object]]:
        """Best-effort snapshot of every pool slot (status surface).

        Worker state belongs to the loop thread; this reads it without
        coordination, so a row can be a step stale -- fine for an ops
        view, never used for control decisions.
        """
        now = time.monotonic()
        rows: List[Dict[str, object]] = []
        for worker in self._workers:
            current = worker.current
            rows.append({
                "slot": worker.idx,
                "pid": worker.pid,
                "state": worker.state,
                "label": current.job.label if current is not None else None,
                "busy_seconds": (round(now - worker.busy_since, 3)
                                 if worker.state == _BUSY else 0.0),
                "fails": worker.fails,
                "respawn_in": (round(max(0.0, worker.respawn_at - now), 3)
                               if (worker.state == _DEAD
                                   and worker.respawn_at is not None)
                               else None),
            })
        return rows


__all__ = ["WorkerSupervisor"]
