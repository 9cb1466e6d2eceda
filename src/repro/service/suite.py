"""The 17-benchmark suite through the batch service.

:func:`run_suite` is the shared execution path behind
``python -m repro batch --suite`` and any caller that wants Table 3's
workload as one batch:
build one :class:`AnalysisJob` per benchmark (labelled with the
benchmark name) and push them through :func:`run_batch`.
"""

from __future__ import annotations

from typing import List, Optional

from ..workloads.suite import load_suite
from .cache import ResultCache
from .job import AnalysisJob
from .journal import BatchJournal
from .scheduler import BatchResult, run_batch


def suite_jobs(scale: Optional[str] = None, *, domain: str = "octagon",
               analyzer: Optional[str] = None, **options) -> List[AnalysisJob]:
    """One job per suite benchmark (optionally one analyzer family)."""
    return [bench.job(scale=scale, domain=domain, **options)
            for bench in load_suite(analyzer)]


def run_suite(scale: Optional[str] = None, *, domain: str = "octagon",
              analyzer: Optional[str] = None, workers: Optional[int] = None,
              timeout: Optional[float] = None, retries: int = 1,
              cache: Optional[ResultCache] = None,
              use_cache: bool = False,
              journal: Optional[BatchJournal] = None,
              resume: bool = False, **options) -> BatchResult:
    """Run the whole suite as a batch.

    Caching is opt-in here (``use_cache=True`` or an explicit
    ``cache``): benchmark callers usually want fresh timings, while the
    CLI front door passes its own cache according to ``--no-cache``.
    """
    if cache is None and use_cache:
        cache = ResultCache()
    jobs = suite_jobs(scale, domain=domain, analyzer=analyzer, **options)
    return run_batch(jobs, workers=workers, timeout=timeout, retries=retries,
                     cache=cache, journal=journal, resume=resume)
