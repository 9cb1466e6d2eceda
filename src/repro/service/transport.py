"""Job and result transport over the worker pipes.

Every message -- a job submitted to a worker, a result or heartbeat
coming back -- is one ``pickle.dumps(payload, protocol=5)`` frame sent
with ``Connection.send_bytes``.

There are two lanes: :func:`send_job`/:func:`recv_job` carry every
frame of a pool worker's job pipe (submissions and the ``("exit",)``
frame), :func:`send_payload`/:func:`recv_payload` carry results and
heartbeats back.  Both are counted on the parent, where the batch
summary lives: ``bytes_shipped`` is what the result pipes delivered and
``job_bytes_shipped`` what the job pipes carried to workers (the
worker's own counters die with it).
"""

from __future__ import annotations

import pickle
from typing import Dict

from ..obs import metrics

# Parent-side transport counters, snapshotted per batch by the
# scheduler (module globals like the kernel/COW counters: the recv
# path runs once per job, but the batch summary wants process deltas,
# not per-collector events).
_COUNTS: Dict[str, int] = {"bytes_shipped": 0, "job_bytes_shipped": 0}

metrics.register_counter_source(lambda: dict(_COUNTS))
metrics.REGISTRY.counter(
    "bytes_shipped", "Bytes that crossed a worker result pipe")
metrics.REGISTRY.counter(
    "job_bytes_shipped", "Bytes that crossed a job submission pipe")


def transport_counters() -> Dict[str, int]:
    """Snapshot of the parent-side transport counters."""
    return dict(_COUNTS)


def send_payload(conn, payload: object) -> int:
    """Ship ``payload`` over ``conn`` as one protocol-5 pickle frame;
    returns the frame's size."""
    wire = pickle.dumps(payload, protocol=5)
    conn.send_bytes(wire)
    return len(wire)


def recv_payload(conn) -> object:
    """Receive one frame sent by :func:`send_payload` (parent side:
    counted in ``bytes_shipped``)."""
    wire = conn.recv_bytes()
    _COUNTS["bytes_shipped"] += len(wire)
    return pickle.loads(wire)


def send_job(conn, payload: object) -> None:
    """Submit one job frame to a worker over its job pipe (parent side:
    counted in ``job_bytes_shipped``, since the worker cannot report
    counters back)."""
    _COUNTS["job_bytes_shipped"] += send_payload(conn, payload)


def recv_job(conn) -> object:
    """Receive one frame from the job pipe (worker side, uncounted)."""
    return pickle.loads(conn.recv_bytes())
