"""Analysis server: a long-lived daemon with incremental re-analysis.

The batch service (:mod:`repro.service`) answers "analyze these N
files once"; this subsystem answers "keep analyzing these files as
they change".  A persistent daemon (``python -m repro serve``) keeps
parsed ASTs and per-procedure analysis results hot across requests,
so the per-run costs the earlier PRs optimised -- process spawn,
parse, CFG build, transfer-plan compilation, fixpoint -- are paid only
for procedures that actually changed.

* :mod:`repro.serve.protocol` -- length-prefixed JSON frames over a
  Unix or TCP socket.
* :mod:`repro.serve.incremental` -- per-procedure content addressing
  (canonical pretty-printed source) over a memory-LRU -> disk-cache ->
  compute tier stack.
* :mod:`repro.serve.server` -- :class:`AnalysisServer`: accept loop,
  request handlers, budgets/degradation pass-through, SLO counters and
  Prometheus export.
* :mod:`repro.serve.supervisor` -- :class:`WorkerSupervisor`: the
  supervised pool of worker processes behind ``--pool``, with
  heartbeats, deadline kills, respawn backoff and a circuit breaker.
* :mod:`repro.serve.client` -- :class:`ServeClient`, the thin client
  behind ``python -m repro client`` and the tests.
"""

from .client import ServeClient, ServeError, wait_ready
from .incremental import IncrementalAnalyzer
from .protocol import MAX_MESSAGE, ProtocolError, recv_message, send_message
from .server import AnalysisServer, default_socket_path
from .supervisor import WorkerSupervisor

__all__ = [
    "AnalysisServer",
    "IncrementalAnalyzer",
    "MAX_MESSAGE",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "WorkerSupervisor",
    "default_socket_path",
    "recv_message",
    "send_message",
    "wait_ready",
]
