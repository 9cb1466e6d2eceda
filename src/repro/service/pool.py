"""Supervised pool of long-lived analysis worker processes.

:class:`WorkerPool` is the one place that creates worker processes:
``batch --jobs N`` runs on it, and the daemon's
:class:`~repro.serve.supervisor.WorkerSupervisor` subclasses it with
serve's availability policy (breaker, inline fallback, metrics).

* **Supervision.**  ``pool_size`` workers are forked once and take one
  job at a time over their job pipe (:func:`transport.send_job`);
  results and heartbeats come back on their result pipe.  One loop
  thread multiplexes every result pipe and process sentinel through
  ``multiprocessing.connection.wait``.  A busy worker that stops
  heartbeating is presumed wedged and killed; dead workers are reaped
  and respawned under capped exponential backoff.  A worker whose
  parent died exits on its next heartbeat, so nothing is orphaned.
* **Failures.**  A job that raises, or whose worker dies under it, is
  retried up to ``retries`` times, then fails with
  :class:`~repro.errors.JobRaised` or :class:`~repro.errors.WorkerDied`.
  With ``job_timeout``, a job still running that long after its worker
  began it is killed with the worker and fails with
  :class:`TimeoutError`, never retried; the slot respawns at once.
* **Deadlines.**  A job submitted with an absolute ``deadline`` gets
  its ``time_budget`` clamped to the time remaining; its worker is
  killed as wedged at ``deadline + deadline_grace``.  A job whose
  deadline passes first is given back unrun (:class:`PoolFallback`).

:meth:`WorkerPool.submit` returns a :class:`PoolJob`, a
:class:`concurrent.futures.Future` of the job's
:class:`~repro.service.job.JobResult`.  The start method prefers
``fork`` (cheap, no pickling of the worker callable) and falls back to
the platform default; custom ``worker`` callables must be module-level
(or otherwise picklable) to support the fallback.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from multiprocessing import connection as mp_connection
from typing import Callable, Deque, Dict, List, Optional

from ..core.budget import clamp_to_deadline
from ..errors import JobRaised, WorkerDied
from ..obs import events, trace
from . import transport
from .job import AnalysisJob, JobResult, execute_job

#: Wait after ``terminate()`` before escalating to ``kill()``.
_KILL_GRACE_S = 2.0

#: Slot states, as :meth:`WorkerSupervisor.worker_table` reports them.
IDLE, BUSY, DEAD = "idle", "busy", "dead"


def _context():
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class PoolFallback(Exception):
    """The pool gave a job back unrun; ``reason`` says why (``expired``,
    ``shutdown``, ``loop-crash``, or a subclass's own policy)."""

    def __init__(self, reason: str) -> None:
        super().__init__(f"pool gave the job back unrun ({reason})")
        self.reason = reason


def _worker_main(job_recv, res_send, hb_interval: float, parent_pid: int,
                 worker: Callable[[AnalysisJob], JobResult]) -> None:
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
                # Orphaned: the pool's process died without retiring us.
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
            payload = transport.recv_job(job_recv)
        except (EOFError, OSError):
            break
        if payload[0] == "exit":
            break
        _, seq, job, ctx, directives = payload
        if ctx is not None and "trace" not in job.telemetry:
            # The submitter is tracing this job: arm it so execute_job
            # opens a span session and returns the events with the
            # result.  The telemetry tuple is excluded from the cache
            # key, so this changes nothing downstream.
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
            result = worker(job)
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


class PoolJob(Future):
    """One submitted job: a future of its :class:`JobResult`."""

    def __init__(self, job: AnalysisJob, deadline: Optional[float],
                 seq: int,
                 ctx: Optional[trace.TraceContext] = None) -> None:
        super().__init__()
        self.job = job
        self.deadline = deadline
        self.seq = seq
        self.ctx = ctx
        #: Dispatches so far (the attempt number of the latest one).
        self.attempts = 0
        #: ``perf_counter`` at the latest dispatch, for trace spans.
        self.started: Optional[float] = None


class WorkerSlot:
    """Parent-side bookkeeping for one pool slot (loop thread only)."""

    __slots__ = ("idx", "proc", "pid", "job_conn", "res_conn", "state",
                 "current", "busy_since", "last_hb", "fails", "respawn_at")

    def __init__(self, idx: int) -> None:
        self.idx = idx
        self.proc = None
        self.pid: Optional[int] = None
        self.job_conn = None
        self.res_conn = None
        self.state = DEAD
        self.current: Optional[PoolJob] = None
        self.busy_since = 0.0
        self.last_hb = 0.0
        self.fails = 0
        self.respawn_at: Optional[float] = None


class WorkerPool:
    """A supervised pool of analysis worker processes.

    Thread safety: submitting threads only touch the pending queue, the
    wake pipe, and counters (all under one lock); every worker's state
    belongs to the loop thread alone.
    """

    #: Prefix of the pool's lifecycle event names.
    event_prefix = ""

    def __init__(self, pool_size: int, *, retries: int = 2,
                 job_timeout: Optional[float] = None,
                 worker: Callable[[AnalysisJob], JobResult] = execute_job,
                 heartbeat_interval: float = 0.5,
                 heartbeat_timeout: float = 10.0,
                 deadline_grace: float = 0.5,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0) -> None:
        self.pool_size = max(1, int(pool_size))
        self.retries = max(0, int(retries))
        self.job_timeout = job_timeout
        self.worker = worker
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.deadline_grace = deadline_grace
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap

        self._lock = threading.Lock()
        self._pending: Deque[PoolJob] = deque()
        #: Set (under the lock) once the loop stops taking submissions.
        self._closed = False
        self._workers: List[WorkerSlot] = []
        self._seq = 0
        self._started = False
        self._stopping = threading.Event()
        self._loop_thread: Optional[threading.Thread] = None
        self._wake_r, self._wake_w = os.pipe()
        # A full wake pipe already means "wake up": never block on it.
        os.set_blocking(self._wake_w, False)
        self._ctx = _context()
        self.counters: Dict[str, int] = {
            "worker_restarts": 0,
            "worker_crashes": 0,
            "worker_hangs": 0,
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
            worker = WorkerSlot(idx)
            self._spawn(worker)
            self._workers.append(worker)
        self._loop_thread = threading.Thread(
            target=self._loop, name="worker-pool", daemon=True)
        self._loop_thread.start()
        events.info(f"{self.event_prefix}pool_started",
                    workers=self.pool_size)

    def _spawn(self, worker: WorkerSlot) -> None:
        job_recv, job_send = self._ctx.Pipe(duplex=False)
        res_recv, res_send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(job_recv, res_send, self.heartbeat_interval, os.getpid(),
                  self.worker),
            daemon=True)
        proc.start()
        job_recv.close()
        res_send.close()
        worker.proc = proc
        worker.pid = proc.pid
        worker.job_conn = job_send
        worker.res_conn = res_recv
        worker.state = IDLE
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
        if not self.loop_alive() and self._wake_r >= 0:
            with self._lock:  # submit() wakes under the lock
                os.close(self._wake_r)
                os.close(self._wake_w)
                self._wake_r = self._wake_w = -1
        events.info(f"{self.event_prefix}pool_stopped",
                    restarts=self.counters["worker_restarts"],
                    crashes=self.counters["worker_crashes"])

    def _retire(self, worker: WorkerSlot) -> None:
        """Ask one worker to exit; escalate to terminate/kill."""
        proc = worker.proc
        if proc is None:
            return
        try:
            transport.send_job(worker.job_conn, ("exit",))
        except (OSError, ValueError):
            pass
        self._close_conns(worker)
        proc.join(_KILL_GRACE_S)
        if proc.is_alive():
            self._terminate(proc)
        worker.proc = None
        worker.state = DEAD

    @staticmethod
    def _terminate(proc) -> None:
        proc.terminate()
        proc.join(_KILL_GRACE_S)
        if proc.is_alive():
            proc.kill()
            proc.join()

    @staticmethod
    def _close_conns(worker: WorkerSlot) -> None:
        for conn in (worker.job_conn, worker.res_conn):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        worker.job_conn = worker.res_conn = None

    # -- submission ----------------------------------------------------
    def submit(self, job: AnalysisJob,
               deadline: Optional[float] = None) -> PoolJob:
        """Queue ``job`` for the pool and return its future at once.

        A pool that is not running resolves the future with
        :class:`PoolFallback` immediately.
        """
        # Capture the submitter's trace identity on its own thread -- it
        # rides the submission frame so the worker's spans carry the
        # same trace id, and retries re-parent under it.
        ctx = trace.current_context() if trace.enabled() else None
        with self._lock:
            self._seq += 1
            pool_job = PoolJob(job, deadline, self._seq, ctx)
            accepted = self._started and not self._closed
            if accepted:
                self._pending.append(pool_job)
                self._wake()
        if not accepted:
            pool_job.set_exception(PoolFallback("shutdown"))
        return pool_job

    def loop_alive(self) -> bool:
        return self._loop_thread is not None and self._loop_thread.is_alive()

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    # -- policy hooks (subclasses refine) ------------------------------
    def _record_failure(self, kind: str) -> None:
        """One crash/hang (loop thread)."""
        with self._lock:
            self.counters[kind] += 1

    def _record_success(self) -> None:
        """One job completed by a worker (loop thread)."""

    def _give_back_reason(self, pool_job: PoolJob) -> Optional[str]:
        """Why a failed job should go back to its submitter unrun
        instead of being retried, or None."""
        if pool_job.deadline is not None and \
                time.monotonic() >= pool_job.deadline:
            return "expired"
        return None

    def _directives(self, pool_job: PoolJob) -> Dict[str, bool]:
        """Chaos directives shipped with one dispatch."""
        return {}

    def _note_dispatch(self, pool_job: PoolJob, worker: WorkerSlot) -> None:
        events.debug("job_start", label=pool_job.job.label,
                     attempt=pool_job.attempts)

    def _note_retry(self, pool_job: PoolJob, cause: str,
                    worker: Optional[WorkerSlot], error: str) -> None:
        events.warning("job_retry", label=pool_job.job.label,
                       attempt=pool_job.attempts + 1,
                       error=(error.strip().splitlines() or [""])[-1])

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
            # A supervision bug must not strand submitters: every queued
            # and running job is given back.
            events.error(f"{self.event_prefix}pool_loop_crashed",
                         error=traceback.format_exc().strip().splitlines()[-1])
            self._fail_pending("loop-crash")
            raise

    def _watch_list(self) -> list:
        watch: list = [self._wake_r]
        for worker in self._workers:
            if worker.state == DEAD:
                continue
            watch.append(worker.res_conn)
            watch.append(worker.proc.sentinel)
        return watch

    def _wait_timeout(self) -> float:
        now = time.monotonic()
        horizon = now + 0.5
        for worker in self._workers:
            if worker.state == BUSY:
                job = worker.current
                if job is not None and job.deadline is not None:
                    horizon = min(horizon,
                                  job.deadline + self.deadline_grace)
                if self.job_timeout is not None:
                    horizon = min(horizon,
                                  worker.busy_since + self.job_timeout)
                horizon = min(horizon,
                              worker.last_hb + self.heartbeat_timeout)
            elif worker.state == DEAD and worker.respawn_at is not None:
                horizon = min(horizon, worker.respawn_at)
        return max(0.0, horizon - now)

    def _drain_wake(self, ready) -> None:
        if self._wake_r in ready:
            try:
                os.read(self._wake_r, 4096)
            except OSError:
                pass

    def _expire_pending(self) -> None:
        """Give back queued jobs whose deadline passed before dispatch:
        no worker can deliver them on time anyway."""
        now = time.monotonic()
        expired: List[PoolJob] = []
        with self._lock:
            keep: Deque[PoolJob] = deque()
            for pool_job in self._pending:
                if (pool_job.deadline is not None
                        and now >= pool_job.deadline):
                    expired.append(pool_job)
                else:
                    keep.append(pool_job)
            self._pending = keep
        for pool_job in expired:
            pool_job.set_exception(PoolFallback("expired"))

    def _assign_pending(self) -> None:
        for worker in self._workers:
            if worker.state != IDLE:
                continue
            with self._lock:
                if not self._pending:
                    return
                pool_job = self._pending.popleft()
            self._dispatch(worker, pool_job)

    def _dispatch(self, worker: WorkerSlot, pool_job: PoolJob) -> None:
        pool_job.attempts += 1
        pool_job.started = time.perf_counter()
        self._note_dispatch(pool_job, worker)
        job = pool_job.job
        if pool_job.deadline is not None:
            job = dataclasses.replace(
                job,
                time_budget=clamp_to_deadline(job.time_budget,
                                              pool_job.deadline))
        try:
            transport.send_job(
                worker.job_conn,
                ("job", pool_job.seq, job, pool_job.ctx,
                 self._directives(pool_job)))
        except (OSError, ValueError):
            # Worker died before reading: the sentinel path reaps it
            # and requeues this job.
            pass
        now = time.monotonic()
        worker.state = BUSY
        worker.current = pool_job
        worker.busy_since = now
        worker.last_hb = now

    def _collect(self, ready) -> None:
        for worker in list(self._workers):
            if worker.state == DEAD:
                continue
            signalled = (worker.res_conn in ready
                         or worker.proc.sentinel in ready)
            if not signalled:
                continue
            while worker.state != DEAD and worker.res_conn.poll():
                try:
                    payload = transport.recv_payload(worker.res_conn)
                except (EOFError, OSError):
                    self._reap_crashed(worker)
                    break
                self._handle_message(worker, payload)
            if worker.state != DEAD and not worker.proc.is_alive():
                self._reap_crashed(worker)

    def _handle_message(self, worker: WorkerSlot, payload: tuple) -> None:
        kind = payload[0]
        worker.last_hb = time.monotonic()
        if kind in ("hb", "ready"):
            return
        pool_job = worker.current
        if pool_job is None or payload[1] != pool_job.seq:
            return  # stale answer from a dispatch we already gave up on
        worker.current = None
        worker.state = IDLE
        worker.fails = 0
        if kind == "done":
            self._record_success()
            pool_job.set_result(payload[2])
        elif pool_job.attempts <= self.retries:
            # "err": the job raised in the worker; the worker is healthy.
            self._requeue(pool_job, "job-error", worker, payload[2])
        else:
            pool_job.set_exception(JobRaised(payload[2]))

    def _reap_crashed(self, worker: WorkerSlot) -> None:
        """A worker died under supervision: reap, respawn, retry."""
        exitcode = worker.proc.exitcode
        worker.proc.join()
        pool_job = self._bury(worker, "worker_died", exitcode=exitcode)
        self._record_failure("worker_crashes")
        if pool_job is not None:
            self._requeue_or_fail(pool_job,
                                  WorkerDied(exitcode, stage="mid-job"),
                                  worker)

    def _bury(self, worker: WorkerSlot, event: str, backoff: bool = True,
              **fields) -> Optional[PoolJob]:
        """Mark a reaped worker dead, schedule its respawn, log ``event``,
        and hand back the job it was running."""
        self._close_conns(worker)
        pool_job, worker.current = worker.current, None
        worker.proc = None
        worker.state = DEAD
        delay = 0.0
        if backoff:
            worker.fails += 1
            delay = min(self.backoff_cap,
                        self.backoff_base * (2 ** (worker.fails - 1)))
        worker.respawn_at = time.monotonic() + delay
        events.warning(f"{self.event_prefix}{event}", pid=worker.pid,
                       slot=worker.idx, respawn_in=round(delay, 3),
                       label=pool_job.job.label if pool_job else None,
                       **fields)
        return pool_job

    def _requeue_or_fail(self, pool_job: PoolJob, error: WorkerDied,
                         worker: WorkerSlot) -> None:
        reason = self._give_back_reason(pool_job)
        if reason is not None:
            pool_job.set_exception(PoolFallback(reason))
        elif pool_job.attempts <= self.retries:
            self._requeue(pool_job, "worker-died", worker, str(error))
        else:
            pool_job.set_exception(error)

    def _requeue(self, pool_job: PoolJob, cause: str, worker: WorkerSlot,
                 error: str) -> None:
        self._note_retry(pool_job, cause, worker, error)
        with self._lock:
            self._pending.append(pool_job)

    def _kill_expired(self) -> None:
        """Kill busy workers past their job's timeout or deadline, or
        their heartbeat window."""
        now = time.monotonic()
        for worker in self._workers:
            if worker.state != BUSY:
                continue
            pool_job = worker.current
            if (self.job_timeout is not None
                    and now >= worker.busy_since + self.job_timeout):
                self._kill_worker(worker, "timeout")
            elif (pool_job is not None and pool_job.deadline is not None
                    and now >= pool_job.deadline + self.deadline_grace):
                self._kill_worker(worker, "deadline")
            elif now - worker.last_hb >= self.heartbeat_timeout:
                self._kill_worker(worker, "heartbeat")

    def _kill_worker(self, worker: WorkerSlot, why: str) -> None:
        self._terminate(worker.proc)
        if why == "timeout":
            # The job's fault, not the worker's: respawn at once, and do
            # not retry -- the same input would time out again.
            pool_job = self._bury(worker, "worker_killed", backoff=False,
                                  reason=why)
            if pool_job is not None:
                pool_job.set_exception(TimeoutError(
                    f"exceeded {self.job_timeout:g}s wall-clock timeout"))
            return
        pool_job = self._bury(worker, "worker_killed", reason=why)
        self._record_failure("worker_hangs")
        if pool_job is not None:
            self._requeue_or_fail(
                pool_job,
                WorkerDied(-9, stage=f"killed as wedged ({why})"), worker)

    def _respawn_due(self) -> None:
        now = time.monotonic()
        for worker in self._workers:
            if (worker.state == DEAD and worker.respawn_at is not None
                    and now >= worker.respawn_at):
                self._spawn(worker)
                with self._lock:
                    self.counters["worker_restarts"] += 1
                events.info(f"{self.event_prefix}worker_respawned",
                            pid=worker.pid, slot=worker.idx)

    def _fail_pending(self, why: str) -> None:
        with self._lock:
            self._closed = True
            stranded = list(self._pending)
            self._pending.clear()
        for worker in self._workers:
            pool_job, worker.current = worker.current, None
            if pool_job is not None:
                stranded.append(pool_job)
        for pool_job in stranded:
            pool_job.set_exception(PoolFallback(why))


__all__ = ["PoolFallback", "PoolJob", "WorkerPool", "WorkerSlot"]
