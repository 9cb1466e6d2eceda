"""Per-layer tracing from outside the program.

:func:`install` wraps the public entry points of ``frontend``,
``analysis``, ``domains``/``core``, ``service`` and the serve daemon in place:
every module-level binding of a wrapped function (``from x import f``
copies included) and every wrapped method is replaced by a recorder that
keeps a span -- name, start, end, parent span, request id -- in memory.
Self time (duration minus the time covered by child spans) and calls
are accumulated as the spans close; :meth:`Recorder.dump` writes the
spans out at the end of the run.

Forked children (batch pool workers, serve pool workers) inherit the
wrappers but record nothing: a layer that runs in another process shows
as one span at the call that crosses into it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Spans kept for :meth:`Recorder.dump`; self times and calls are
#: accumulated for every span, kept or not.
MAX_SPANS = 100_000

#: The nine entries of the ``core.kernels`` registry.
KERNELS = ("dense_closure", "dense_shortest_path", "sparse_shortest_path",
           "sparse_closure", "strengthen_sparse", "incremental_closure",
           "strengthen", "count_nni", "apron_closure")

#: Closure flavour -> the call that performs it.
CLOSURE_KINDS = {"dense": "core.kernel.dense_closure",
                 "sparse": "core.kernel.sparse_closure",
                 "incremental": "core.kernel.incremental_closure",
                 "decomposed": "core.closure.decomposed"}

#: Octagon methods -> operator family.
OCTAGON_OPS = {
    "join": "join",
    "widening": "widen", "widening_thresholds": "widen",
    "meet": "meet", "meet_constraint": "meet", "meet_constraints": "meet",
    "assume_linear": "meet",
    "assign_const": "assign", "assign_interval": "assign",
    "assign_translate": "assign", "assign_negate": "assign",
    "assign_var": "assign", "assign_linexpr": "assign", "forget": "assign",
    "is_leq": "leq",
    "narrowing": "narrow",
}
OPERATOR_FAMILIES = ("join", "widen", "meet", "assign", "leq", "narrow")


class Recorder:
    """In-memory span sink shared by all wrappers of one process."""

    def __init__(self) -> None:
        self.request = 0
        #: Totals are kept per phase (a serve daemon labels each request
        #: with the kind of step that sent it).
        self.phase = ""
        self._totals: Dict[str, _Totals] = defaultdict(_Totals)
        self.spans: List[tuple] = []
        self.dropped = 0
        self._ids = 0
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forked)

    @property
    def enabled(self) -> bool:
        """Recording is switched per thread (off until switched on): a
        daemon records only the thread serving the traced request."""
        return getattr(self._local, "enabled", False)

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._local.enabled = value

    def _forked(self) -> None:
        self.enabled = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str) -> Callable:
        perf = time.perf_counter
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not getattr(local, "enabled", False):
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            self._ids += 1
            frame = [name, self._ids, perf(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                self._close(frame, parent, end)

        return traced

    def _close(self, frame: list, parent: Optional[list], end: float) -> None:
        name, span_id, start, child = frame
        duration = end - start
        totals = self._totals[self.phase]
        totals.self_s[name] += duration - child
        if parent is not None:
            parent[3] += duration
        if parent is None or parent[0] != name:
            totals.calls[name] += 1
            totals.total_s[name] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, start, end, span_id,
                               parent[1] if parent is not None else 0,
                               self.request))
        else:
            self.dropped += 1

    def snapshot(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{phase: {"self_s": .., "total_s": .., "calls": ..}}``;
        ``total_s`` and ``calls`` count outermost calls only (a
        recursive call of the same span name is part of its caller)."""
        return {phase: {"self_s": dict(t.self_s), "total_s": dict(t.total_s),
                        "calls": dict(t.calls)}
                for phase, t in self._totals.items()}

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines (name, start, end, id,
        parent id, request id) plus a trailing totals record."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, span_id, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "id": span_id,
                                     "parent": parent,
                                     "request": request}) + "\n")
            fh.write(json.dumps({"totals": self.snapshot(),
                                 "dropped": self.dropped}) + "\n")


class _Totals:
    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every module-level reference to ``original`` in the
    loaded ``repro`` modules (``from x import f`` makes copies)."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro" or
                                  modname.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(rec: Recorder, module, attr: str, name: str) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, rec.wrap(original, name))


def _wrap_method(rec: Recorder, cls, attr: str, name: str) -> None:
    setattr(cls, attr, rec.wrap(vars(cls)[attr], name))


def install(rec: Recorder) -> Recorder:
    """Wrap every traced entry point; returns ``rec``."""
    import repro.__main__  # noqa: F401 -- load every layer before patching
    import repro.serve.server as server
    import repro.serve.supervisor as supervisor
    from repro.analysis import fixpoint, plan
    from repro.core import closure_decomposed, kernels, octagon
    from repro.frontend import cfg, fingerprint, parser
    from repro.service import cache, job, journal, scheduler, transport

    _wrap_function(rec, parser, "parse_program", "frontend.parse")
    _wrap_function(rec, cfg, "build_cfg", "frontend.cfg")
    _wrap_function(rec, fingerprint, "procedure_source", "frontend.fingerprint")
    _wrap_function(rec, fingerprint, "procedure_digest", "frontend.fingerprint")
    _wrap_function(rec, plan, "compile_cfg", "analysis.plan_compile")
    _wrap_method(rec, fixpoint.FixpointEngine, "analyze", "analysis.fixpoint")
    for method, family in OCTAGON_OPS.items():
        _wrap_method(rec, octagon.Octagon, method, f"domains.{family}")
    for kernel in KERNELS:
        _wrap_function(rec, kernels, kernel, f"core.kernel.{kernel}")
    _wrap_function(rec, closure_decomposed, "closure_decomposed",
                   "core.closure.decomposed")
    _wrap_function(rec, job, "execute_job", "service.execute_job")
    _wrap_method(rec, cache.ResultCache, "get", "service.cache_get")
    _wrap_method(rec, cache.ResultCache, "put", "service.cache_put")
    _wrap_method(rec, journal.BatchJournal, "record", "service.journal")
    for attr in ("send_job", "recv_job", "send_payload", "recv_payload"):
        _wrap_function(rec, transport, attr, "service.transport")
    _wrap_function(rec, scheduler, "_run_pool", "service.pool")
    _wrap_method(rec, supervisor.WorkerSupervisor, "execute", "serve.compute")
    _wrap_method(rec, server.AnalysisServer, "_cmd_analyze", "serve.daemon")
    return rec
