"""Live ops console for the analysis daemon: ``python -m repro top``.

A deliberately small terminal view over the HTTP observability facade
(:mod:`repro.serve.httpd`): poll ``GET /statusz`` on an interval and
redraw one screen of the numbers an operator reaches for first --
worker states, in-flight vs capacity, cache-tier hit rates, per-command
p50/p95, breaker state.  Stdlib only (``urllib``), read-only, and
degrades to a plain one-shot dump with ``--once`` (no ANSI), which is
also what the tests and CI drive.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import List, Optional

#: ANSI: clear screen + home.  Emitted only in the live loop.
_CLEAR = "\x1b[2J\x1b[H"


def fetch_status(url: str, timeout: float = 5.0) -> dict:
    """GET ``<url>/statusz`` and parse the JSON document."""
    target = url.rstrip("/") + "/statusz"
    with urllib.request.urlopen(target, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _rate(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "    --"


def _ms(value: Optional[float]) -> str:
    return f"{value:9.2f}" if value is not None else "       --"


def render_status(doc: dict) -> str:
    """One screenful of ops state from a ``/statusz`` document."""
    lines: List[str] = []
    uptime = float(doc.get("uptime_seconds", 0.0))
    breaker = doc.get("breaker_open")
    lines.append(
        f"repro serve  pid={doc.get('pid')}  up={uptime:,.0f}s  "
        f"{doc.get('address', '')}")
    pool = doc.get("pool", 0)
    pool_state = (f"pool={doc.get('pool_alive', '?')}/{pool} "
                  f"breaker={'OPEN' if breaker else 'closed'}"
                  if pool else "pool=inline")
    lines.append(
        f"inflight={doc.get('inflight', 0)}/"
        f"{doc.get('admission_limit', 0)}  "
        f"{pool_state}  "
        f"requests={doc.get('requests', 0)}  "
        f"lru={doc.get('lru_entries', 0)} entries "
        f"({doc.get('lru_bytes', 0):,} B)")

    counters = doc.get("counters") or {}
    memory = int(counters.get("serve_procs_memory", 0))
    disk = int(counters.get("serve_procs_disk", 0))
    computed = int(counters.get("serve_procs_computed", 0))
    procs = memory + disk + computed
    lines.append(
        f"tiers: memory={memory} ({_rate(memory, procs).strip()})  "
        f"disk={disk} ({_rate(disk, procs).strip()})  "
        f"computed={computed} ({_rate(computed, procs).strip()})  "
        f"restarts={counters.get('worker_restarts', 0)}")

    red = doc.get("red") or {}
    commands = red.get("commands") or {}
    if commands:
        lines.append("")
        lines.append(f"{'command':<10} {'count':>8} {'mean ms':>9} "
                     f"{'p50 ms':>9} {'p95 ms':>9}")
        for cmd, row in commands.items():
            lines.append(f"{cmd:<10} {row.get('count', 0):>8} "
                         f"{_ms(row.get('mean_ms'))} "
                         f"{_ms(row.get('p50_ms'))} "
                         f"{_ms(row.get('p95_ms'))}")
        errors = red.get("errors_by_cause") or {}
        if errors:
            causes = ", ".join(f"{cause}={count}"
                               for cause, count in errors.items())
            lines.append(f"errors: {red.get('errors', 0)} ({causes})")

    table = doc.get("worker_table") or []
    if table:
        lines.append("")
        lines.append(f"{'slot':>4} {'pid':>8} {'state':<6} {'busy s':>8} "
                     f"{'fails':>5}  label")
        for row in table:
            lines.append(
                f"{row.get('slot', '?'):>4} {row.get('pid') or '-':>8} "
                f"{str(row.get('state', '?')):<6} "
                f"{row.get('busy_seconds', 0.0):>8.2f} "
                f"{row.get('fails', 0):>5}  {row.get('label') or ''}")
    return "\n".join(lines)


def run_top(url: str, *, interval: float = 2.0, once: bool = False,
            iterations: Optional[int] = None, out=None) -> int:
    """Poll the facade and render until interrupted; returns exit code.

    ``once`` renders a single frame without ANSI control codes;
    ``iterations`` bounds the live loop (tests).  Connection failures
    in the live loop are drawn and retried -- a daemon restart must not
    kill the console watching it.
    """
    out = out if out is not None else sys.stdout
    frames = 0
    while True:
        try:
            frame = render_status(fetch_status(url))
            failed = False
        except (urllib.error.URLError, OSError, ValueError) as exc:
            frame = f"repro top: cannot reach {url}: {exc}"
            failed = True
        if once:
            print(frame, file=out)
            return 1 if failed else 0
        print(f"{_CLEAR}{frame}\n\n(poll {interval:.0f}s; ctrl-c quits)",
              file=out, flush=True)
        frames += 1
        if iterations is not None and frames >= iterations:
            return 1 if failed else 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0


__all__ = ["fetch_status", "render_status", "run_top"]
