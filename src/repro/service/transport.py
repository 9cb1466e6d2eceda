"""Job and result transport over the worker pipes.

Every message -- a job submitted to a worker, a result or heartbeat
coming back -- is one ``pickle.dumps(payload, protocol=5)`` frame sent
with ``Connection.send_bytes``.  Protocol 5 (PEP 574) writes a NumPy
array's bytes as one binary frame with no escaping, so the exit DBMs a
``keep_invariants`` job ships cross the pipe as a single copy.

Both directions are counted on the parent, where the batch summary
lives: ``bytes_shipped`` is what the result pipes delivered and
``job_bytes_shipped`` what the job pipes carried to workers (the
worker's own counters die with it).
"""

from __future__ import annotations

import pickle
from typing import Dict, Optional

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


def send_payload(conn, payload: object, *,
                 count_prefix: Optional[str] = None) -> None:
    """Ship ``payload`` over ``conn`` as one protocol-5 pickle frame.

    With ``count_prefix`` the *sender* bumps ``<prefix>bytes_shipped``
    -- used by the submission lane, whose receiver (the worker) cannot
    report counters back.
    """
    wire = pickle.dumps(payload, protocol=5)
    conn.send_bytes(wire)
    if count_prefix is not None:
        _COUNTS[count_prefix + "bytes_shipped"] += len(wire)


def recv_payload(conn, *, count: bool = True) -> object:
    """Receive one frame sent by :func:`send_payload`.

    ``count=False`` skips the receive-side counter -- the submission
    lane counts on the sender, where the batch summary lives.
    """
    wire = conn.recv_bytes()
    if count:
        _COUNTS["bytes_shipped"] += len(wire)
    return pickle.loads(wire)


def send_job(conn, job) -> None:
    """Submit ``job`` to a worker over its job pipe (parent side)."""
    send_payload(conn, job, count_prefix="job_")


def recv_job(conn):
    """Receive one submitted job (worker side of the job pipe)."""
    return recv_payload(conn, count=False)
