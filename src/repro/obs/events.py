"""Structured event logging: one logger, several sinks.

Replaces the ad-hoc ``print``/``warnings.warn`` diagnostics that used
to live in ``service/cache.py``, ``service/scheduler.py`` and the CLI.
An event is a name plus key=value fields (plus a level and timestamp);
it is rendered twice:

* **stderr** -- human-readable one-liners, filtered by the CLI
  verbosity (``--quiet`` = errors only, default = warnings, ``-v`` =
  info, ``-vv`` = debug).  Result tables and summary lines the test
  suite and CI grep for stay on *stdout*, untouched by this module.
* **JSONL file** (``--log-json run.jsonl``) -- every event regardless
  of verbosity, one JSON object per line, machine-readable; this file
  is the artifact ``python -m repro report`` renders.

Tests assert on diagnostics with :func:`capture` instead of
``warnings.catch_warnings``.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, TextIO

DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

_LEVEL_NAMES = {DEBUG: "debug", INFO: "info", WARNING: "warning",
                ERROR: "error"}


@dataclass
class Event:
    """One structured diagnostic event."""

    level: int
    name: str
    fields: Dict[str, object] = field(default_factory=dict)
    ts: float = 0.0

    @property
    def level_name(self) -> str:
        return _LEVEL_NAMES.get(self.level, str(self.level))

    def render(self) -> str:
        parts = [f"repro: {self.level_name}: {self.name}"]
        for key, value in self.fields.items():
            parts.append(f"{key}={value}")
        return " ".join(parts)

    def to_json(self, run_id: Optional[str]) -> str:
        record = {"ts": self.ts, "level": self.level_name,
                  "event": self.name, "run": run_id}
        record.update(self.fields)
        return json.dumps(record, sort_keys=True, default=str)


# Module state: the stderr threshold, the JSONL sink, and any active
# test captures (captures see every event, like the JSONL sink).
_STDERR_LEVEL = WARNING
_JSON_FH: Optional[TextIO] = None
_RUN_ID: Optional[str] = None
_CAPTURES: List[List[Event]] = []


def verbosity_level(verbose: int = 0, quiet: bool = False) -> int:
    """Map CLI flags to a stderr threshold (``--quiet`` wins)."""
    if quiet:
        return ERROR
    if verbose >= 2:
        return DEBUG
    if verbose == 1:
        return INFO
    return WARNING


def configure(*, stderr_level: int = WARNING,
              json_path: Optional[str] = None,
              run_id: Optional[str] = None) -> None:
    """(Re)configure the process-wide logger; closes any prior sink."""
    global _STDERR_LEVEL, _JSON_FH, _RUN_ID
    _STDERR_LEVEL = stderr_level
    _RUN_ID = run_id
    if _JSON_FH is not None:
        _JSON_FH.close()
        _JSON_FH = None
    if json_path is not None:
        _JSON_FH = open(json_path, "a", encoding="utf-8")


def close() -> None:
    """Flush and detach the JSONL sink (stderr threshold is kept)."""
    global _JSON_FH
    if _JSON_FH is not None:
        _JSON_FH.close()
        _JSON_FH = None


def emit(level: int, name: str, **fields) -> Event:
    """Record one event and dispatch it to every sink."""
    event = Event(level, name, fields, ts=time.time())
    for buffer in _CAPTURES:
        buffer.append(event)
    if _JSON_FH is not None:
        _JSON_FH.write(event.to_json(_RUN_ID) + "\n")
        _JSON_FH.flush()
    if level >= _STDERR_LEVEL:
        print(event.render(), file=sys.stderr)
    return event


def debug(name: str, **fields) -> Event:
    return emit(DEBUG, name, **fields)


def info(name: str, **fields) -> Event:
    return emit(INFO, name, **fields)


def warning(name: str, **fields) -> Event:
    return emit(WARNING, name, **fields)


def error(name: str, **fields) -> Event:
    return emit(ERROR, name, **fields)


@contextmanager
def capture() -> Iterator[List[Event]]:
    """Collect every event emitted in the block (all levels), for tests."""
    buffer: List[Event] = []
    _CAPTURES.append(buffer)
    try:
        yield buffer
    finally:
        _CAPTURES.remove(buffer)


@contextmanager
def quiet_stderr() -> Iterator[None]:
    """Suppress stderr rendering inside the block (sinks still record)."""
    global _STDERR_LEVEL
    previous = _STDERR_LEVEL
    _STDERR_LEVEL = ERROR + 1
    try:
        yield
    finally:
        _STDERR_LEVEL = previous


def read_jsonl(path: str) -> List[dict]:
    """Load a JSONL event log, skipping blank lines."""
    records: List[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


__all__ = [
    "DEBUG",
    "ERROR",
    "Event",
    "INFO",
    "WARNING",
    "capture",
    "close",
    "configure",
    "debug",
    "emit",
    "error",
    "info",
    "quiet_stderr",
    "read_jsonl",
    "verbosity_level",
    "warning",
]
