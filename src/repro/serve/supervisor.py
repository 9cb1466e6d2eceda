"""Serve's policy on top of the supervised worker pool.

PR 7's server ran every fixpoint on a handler thread of the daemon
process, so one crashing or wedged fixpoint took the warm server -- and
its memory LRU -- down with it.  The *compute* tier now runs on a
:class:`~repro.service.pool.WorkerPool` of long-lived child processes
(the same pool ``batch --jobs N`` uses: process isolation, heartbeats,
deadline kills, respawn backoff, retries), while the memory and disk
tiers stay in the parent.  :class:`WorkerSupervisor` adds what only a
daemon wants:

* **Deadlines with an inline answer.**  A request's deadline clamps
  the job's ``time_budget``, so the worker's own degradation ladder
  returns a sound ``degraded`` result before the deadline.  When the
  pool gives a job back unrun (deadline expired,
  pool stopping), the submitting thread synthesizes the answer inline
  under whatever budget is left.
* **Circuit breaker.**  Sustained failures (``breaker_threshold``
  consecutive crashes/hangs) open a breaker: for ``breaker_cooldown``
  seconds every submission executes inline in the parent (PR 7
  behavior) with a visible ``serve_breaker_open`` event, instead of
  flapping through respawn storms.  A batch never has a breaker: its
  jobs only ever run on the pool.
* **Serve metrics and status.**  The ``worker_*`` and ``serve_pool_*``
  registry counters, ``serve_*`` lifecycle events, the serve fault
  points and the status surface's ``worker_table``.

The public entry point is :meth:`WorkerSupervisor.execute`, shaped as
the :class:`~repro.serve.incremental.IncrementalAnalyzer` executor
contract: ``(job, deadline) -> (JobResult, external)`` where
``external`` says the result was computed out-of-process (its counters
are not in the calling thread's collector).
"""

from __future__ import annotations

import time
from concurrent.futures import wait
from typing import Dict, List, Optional, Tuple

from ..obs import events, metrics, trace
from ..service.job import AnalysisJob, JobResult
from ..service.pool import (BUSY, DEAD, PoolFallback, PoolJob, WorkerPool,
                            WorkerSlot)
from ..testing import faults
from .incremental import execute_inline

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


class WorkerSupervisor(WorkerPool):
    """The daemon's worker pool: a :class:`WorkerPool` plus breaker,
    inline fallback and serve observability."""

    event_prefix = "serve_"

    def __init__(self, pool_size: int, *, breaker_threshold: int = 5,
                 breaker_cooldown: float = 30.0, **pool_options) -> None:
        super().__init__(pool_size, **pool_options)
        self.breaker_threshold = max(1, int(breaker_threshold))
        self.breaker_cooldown = breaker_cooldown
        self._consecutive_failures = 0
        self._breaker_open_until = 0.0
        self._breaker_was_open = False
        self.counters.update(serve_breaker_opens=0, serve_pool_jobs=0,
                             serve_pool_inline=0)

    # -- submission (handler threads) ----------------------------------
    def execute(self, job: AnalysisJob,
                deadline: Optional[float] = None) -> Tuple[JobResult, bool]:
        """Run ``job`` on the pool; ``(result, computed_out_of_process)``.

        Falls back to inline in-parent execution when the breaker is
        open, the pool is not running, or the pool gave the job back
        (its deadline expired first: the inline run then has a sliver
        budget and degrades immediately -- a sound answer, on time).
        Raises :class:`~repro.errors.WorkerDied` when workers died under
        the job beyond the retry budget.
        """
        if (not self._started or self._stopping.is_set()
                or self._breaker_is_open()):
            return self._inline(job, deadline)
        pool_job = self.submit(job, deadline)
        while not wait([pool_job], timeout=0.5).done:
            if not self.loop_alive():
                # The supervision loop itself died: never strand the
                # request -- compute it here.
                return self._inline(job, deadline)
        try:
            return pool_job.result(), True
        except PoolFallback:
            return self._inline(job, deadline)

    def _inline(self, job: AnalysisJob,
                deadline: Optional[float]) -> Tuple[JobResult, bool]:
        with self._lock:
            self.counters["serve_pool_inline"] += 1
        return execute_inline(job, deadline)

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
                pool_job.set_exception(PoolFallback("breaker"))

    def _record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self.counters["serve_pool_jobs"] += 1

    def _give_back_reason(self, pool_job: PoolJob) -> Optional[str]:
        reason = super()._give_back_reason(pool_job)
        if reason is None and self._breaker_is_open():
            reason = "breaker"
        return reason

    # -- serve diagnostics ---------------------------------------------
    def _directives(self, pool_job: PoolJob) -> Dict[str, bool]:
        directives: Dict[str, bool] = {}
        if faults.fire_once("serve_worker_kill", pool_job.job.label):
            directives["kill"] = True
        if faults.fire_once("serve_worker_hang", pool_job.job.label):
            directives["hang"] = True
        return directives

    def _note_dispatch(self, pool_job: PoolJob, worker: WorkerSlot) -> None:
        pass

    def _note_retry(self, pool_job: PoolJob, cause: str,
                    worker: Optional[WorkerSlot], error: str) -> None:
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

    # -- observability -------------------------------------------------
    def counter_summary(self) -> Dict[str, int]:
        with self._lock:
            out = dict(self.counters)
        out["serve_pool_size"] = self.pool_size
        out["serve_pool_alive"] = sum(1 for w in self._workers
                                      if w.state != DEAD)
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
                                 if worker.state == BUSY else 0.0),
                "fails": worker.fails,
                "respawn_in": (round(max(0.0, worker.respawn_at - now), 3)
                               if (worker.state == DEAD
                                   and worker.respawn_at is not None)
                               else None),
            })
        return rows


__all__ = ["WorkerSupervisor"]
