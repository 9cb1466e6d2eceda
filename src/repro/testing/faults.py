"""Fault injection: controlled failures at production hook points.

The chaos tests need to answer "what does the service do when a worker
segfaults mid-job / the disk fills / a cache file is half-written / a
DBM is corrupted in memory?" without waiting for those events to
happen.  This module is a tiny registry of named *fault points*;
production code asks :func:`fire` at the matching hook and the
default answer -- when nothing is armed -- is a single dict-emptiness
test, so the hooks cost nothing in normal operation.

Arming works two ways:

* **programmatic** -- :func:`inject` / :func:`clear` (or the
  :func:`injected` context manager) in the current process; forked
  worker processes inherit the armed registry.
* **environment** -- ``REPRO_FAULTS="point[:arg][,point...]"``, read at
  import and by every freshly spawned worker, so faults survive
  non-fork start methods and CLI subprocess tests.

Fault points wired into production code:

=====================  ====================================================
``worker_kill``        :func:`repro.service.job.execute_job` calls
                       ``os._exit(13)`` mid-job (after parsing, before
                       analysis).  Arg restricts to one job label.
``cache_enospc``       :meth:`repro.service.cache.ResultCache.put` raises
                       ``OSError(ENOSPC)`` instead of writing.
``dbm_corrupt``        :meth:`repro.core.octagon.Octagon.closure` breaks
                       matrix coherence after closing -- the paranoid
                       sentinel must catch it.
``serve_worker_kill``  The serve supervisor directs the next dispatched
                       worker to ``os._exit(13)`` after receiving its
                       job (a SIGKILL/segfault mid-request).  Arg
                       restricts to one job label.  One-shot: fired via
                       :func:`fire_once` so the retry after respawn
                       succeeds.
``serve_worker_hang``  The serve supervisor directs the next dispatched
                       worker to stop heartbeating and sleep forever (a
                       wedged fixpoint).  Arg restricts to one job
                       label.  One-shot.
``serve_conn_reset``   :meth:`repro.serve.server.AnalysisServer` drops
                       the client connection after computing a response
                       but before sending it (a mid-reply network
                       fault).  One-shot.
=====================  ====================================================

Each firing bumps the ``faults_injected`` stats counter.  Helpers
:func:`corrupt_octagon` and :func:`truncate_file` are direct-call
versions for unit tests.
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from ..core import stats
from ..obs import metrics

_FIRED = 0

stats.register_counter_source(lambda: {"faults_injected": _FIRED})

metrics.REGISTRY.counter("faults_injected",
                         "Armed fault points that fired this process")

#: Armed fault points: name -> optional argument (e.g. a job label).
_ACTIVE: Dict[str, Optional[str]] = {}

_ENV_VAR = "REPRO_FAULTS"


def _parse_env(value: str) -> Dict[str, Optional[str]]:
    armed: Dict[str, Optional[str]] = {}
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, arg = item.partition(":")
        armed[name] = arg or None
    return armed


def _load_env() -> None:
    value = os.environ.get(_ENV_VAR, "")
    if value:
        _ACTIVE.update(_parse_env(value))


_load_env()


def inject(name: str, arg: Optional[str] = None) -> None:
    """Arm fault point ``name`` (also exported via the environment so
    spawned -- not just forked -- workers see it)."""
    _ACTIVE[name] = arg
    spec = ",".join(f"{k}:{v}" if v else k for k, v in sorted(_ACTIVE.items()))
    os.environ[_ENV_VAR] = spec


def clear(name: Optional[str] = None) -> None:
    """Disarm one fault point, or all of them."""
    if name is None:
        _ACTIVE.clear()
    else:
        _ACTIVE.pop(name, None)
    if _ACTIVE:
        os.environ[_ENV_VAR] = ",".join(
            f"{k}:{v}" if v else k for k, v in sorted(_ACTIVE.items()))
    else:
        os.environ.pop(_ENV_VAR, None)


@contextmanager
def injected(name: str, arg: Optional[str] = None) -> Iterator[None]:
    """Arm ``name`` for the duration of the block."""
    inject(name, arg)
    try:
        yield
    finally:
        clear(name)


def armed() -> Dict[str, Optional[str]]:
    """Snapshot of the armed fault points (testing/diagnostics)."""
    return dict(_ACTIVE)


def fire(name: str, arg: Optional[str] = None) -> bool:
    """Should fault ``name`` trigger here?

    Near-zero cost when nothing is armed.  If the armed point carries
    an argument it must equal ``arg`` (e.g. a specific job label).
    """
    if not _ACTIVE:
        return False
    if name not in _ACTIVE:
        return False
    want = _ACTIVE[name]
    if want is not None and want != arg:
        return False
    global _FIRED
    _FIRED += 1
    stats.bump("faults_injected_events")
    return True


def fire_once(name: str, arg: Optional[str] = None) -> bool:
    """Like :func:`fire`, but disarms the point when it fires.

    The serve chaos points use this: the fault hits exactly one
    dispatch, so the supervisor's retry-after-respawn path must then
    produce the *correct* result -- which is the recovery property the
    chaos tests assert.
    """
    if fire(name, arg):
        clear(name)
        return True
    return False


# ----------------------------------------------------------------------
# concrete fault actions (used at hook points and directly by tests)
# ----------------------------------------------------------------------
def kill_process(code: int = 13) -> None:
    """Die the way a segfault does: no cleanup, no exception, no report."""
    os._exit(code)


def raise_enospc(path: str = "<injected>") -> None:
    raise OSError(errno.ENOSPC, "No space left on device (injected)", path)


def corrupt_octagon(oct_) -> None:
    """Break the octagon's coherence invariant in place.

    Writes one off-diagonal cell without updating its coherent mirror
    (``mat[i, j]`` must always equal ``mat[j^1, i^1]``) -- exactly the
    kind of single-cell memory corruption the paranoid sentinel exists
    to catch.  Bypasses COW bookkeeping on purpose: real corruption
    does not announce itself.
    """
    m = oct_._cow.arr
    if m.shape[0] < 4:
        raise ValueError("need at least 2 variables to break coherence")
    m[0, 2] = -1234.5
    m[3, 1] = 999.25


def truncate_file(path: str, keep_bytes: Optional[int] = None) -> None:
    """Truncate a file the way a crash mid-write does.

    Default: drop the second half, which leaves a JSONL file with a
    dangling partial last line.
    """
    size = os.path.getsize(path)
    keep = size // 2 if keep_bytes is None else keep_bytes
    with open(path, "r+b") as fh:
        fh.truncate(keep)


__all__ = [
    "armed",
    "clear",
    "corrupt_octagon",
    "fire",
    "fire_once",
    "inject",
    "injected",
    "kill_process",
    "raise_enospc",
    "truncate_file",
]
