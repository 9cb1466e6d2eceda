"""Tests for the worker job/result transport.

Every message crosses a pipe as one protocol-5 pickle frame.  Covers
the round trip itself (plain data and NumPy arrays, small and large),
the parent-side byte counters, and the end-to-end property the batch
pool relies on: a parallel batch returns the verdicts of an inline run.
"""

import multiprocessing

import numpy as np

from repro.service import transport
from repro.service.job import AnalysisJob
from repro.service.scheduler import run_batch


def _round_trip(payload):
    """Ship ``payload`` through a real fork + pipe, like the scheduler."""
    ctx = multiprocessing.get_context("fork")
    recv_conn, send_conn = ctx.Pipe(duplex=False)

    def child(conn):
        transport.send_payload(conn, payload)
        conn.close()

    proc = ctx.Process(target=child, args=(send_conn,))
    proc.start()
    send_conn.close()
    try:
        return transport.recv_payload(recv_conn)
    finally:
        proc.join()
        recv_conn.close()


class TestEnvelope:
    def test_small_payload_takes_inline_lane(self):
        before = transport.transport_counters()
        payload = _round_trip({"answer": 42, "text": "ok"})
        after = transport.transport_counters()
        assert payload == {"answer": 42, "text": "ok"}
        assert after["bytes_shipped"] > before["bytes_shipped"]

    def test_small_ndarray_stays_inline_but_round_trips(self):
        arr = np.arange(16, dtype=np.float64)
        payload = _round_trip(("ok", arr))
        assert np.array_equal(payload[1], arr)

    def test_large_ndarray_round_trips_through_the_pipe(self):
        arr = np.arange(100_000, dtype=np.float64)  # 800 KB
        before = transport.transport_counters()
        payload = _round_trip(("ok", {"mat": arr}))
        after = transport.transport_counters()
        assert payload[1]["mat"].tobytes() == arr.tobytes()
        # One binary frame: the array's bytes plus a small envelope.
        shipped = after["bytes_shipped"] - before["bytes_shipped"]
        assert arr.nbytes <= shipped < arr.nbytes + 1024


SOURCES = {
    "a": "x = [0, 4]; y = x + 1; assert(y <= 5);",
    "b": "z = 3; w = z + 2; assert(w == 5);",
    "c": "i = 0; while (i < 9) { i = i + 1; } assert(i >= 9);",
}


class TestBatchTransport:
    def _jobs(self, **options):
        return [AnalysisJob(source=src, label=label, **options)
                for label, src in sorted(SOURCES.items())]

    def test_parallel_matches_inline_and_ships_dbms(self):
        inline = run_batch(self._jobs(), workers=1)
        parallel = run_batch(self._jobs(), workers=2)
        assert parallel.outcome_counts() == {"ok": 3}
        assert [r.verdicts() for r in parallel.results] \
            == [r.verdicts() for r in inline.results]
        assert parallel.transport["bytes_shipped"] > 0

    def test_batch_counters_surface_transport(self):
        batch = run_batch(self._jobs(), workers=2)
        counters = batch.counters()
        assert counters["bytes_shipped"] == batch.transport["bytes_shipped"]
        assert counters["job_bytes_shipped"] \
            == batch.transport["job_bytes_shipped"] > 0


class TestJobSubmissionLane:
    """Job submission rides the same frames as results."""

    def test_small_job_ships_inline_with_counter(self):
        jobs = [AnalysisJob(source=SOURCES["a"], label="small"),
                AnalysisJob(source=SOURCES["b"], label="small2")]
        before = transport.transport_counters()
        batch = run_batch(jobs, workers=2)
        after = transport.transport_counters()
        assert batch.all_ok
        assert after["job_bytes_shipped"] > before["job_bytes_shipped"]

    def test_submission_matches_inline_verdicts(self):
        # Padding is semantically inert (the lexer skips whitespace) but
        # makes every submitted job large.
        pad = " " * (128 * 1024)
        jobs = [AnalysisJob(source=src + "\n" + pad, label=label)
                for label, src in sorted(SOURCES.items())]
        before = transport.transport_counters()
        inline = run_batch(jobs, workers=1)
        pooled = run_batch(jobs, workers=2)
        after = transport.transport_counters()
        assert [r.verdicts() for r in pooled.results] \
            == [r.verdicts() for r in inline.results]
        assert pooled.outcome_counts() == {"ok": 3}
        assert (after["job_bytes_shipped"] - before["job_bytes_shipped"]
                >= len(jobs) * len(pad))
