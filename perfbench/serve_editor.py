"""The ``serve-editor`` workload: one client connection to a daemon.

The daemon is ``python -m repro serve --pool 2`` with a fresh cache
directory (or ``traced_daemon.py`` around the same entry point).  The
loop alternates two kinds of step, closed loop, one request in flight:

* a full-recompute pass over every program, each procedure carrying a
  new no-op marker so that every cache tier misses;
* an editor block lasting ``EDIT_SHARE`` of the pass's wall time: seeded
  edit steps on the programs with at least two procedures -- re-mark one
  procedure and submit (exactly one procedure should be computed), then
  resubmit the same text unchanged (everything should come from memory).
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional

import inputs
import oracle

MIN_PASSES = 3
#: Wall time of an editor block as a share of the preceding pass.
EDIT_SHARE = 0.3
#: Marker tags: full-recompute passes and edits draw from disjoint ranges.
PASS_TAG_BASE = 1_000_000
START_TIMEOUT_S = 60.0


def hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Daemon:
    """One daemon subprocess: start, wait until it answers, stop."""

    def __init__(self, root: str, workdir: str, name: str,
                 spans: Optional[str] = None) -> None:
        self.socket = os.path.relpath(os.path.join(workdir, f"{name}.sock"),
                                      root)
        serve = ["serve", "--pool", "2", "--socket", self.socket,
                 "--cache-dir", os.path.join(workdir, f"{name}-cache")]
        if spans is None:
            cmd = [sys.executable, "-m", "repro"] + serve
        else:
            cmd = [sys.executable,
                   os.path.join(os.path.dirname(__file__), "traced_daemon.py"),
                   spans] + serve
        self.log = open(os.path.join(workdir, f"{name}.log"), "w")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdout=self.log, stderr=subprocess.STDOUT)
        try:
            self.client = self.connect()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.log.close()
            raise
        self.setup_s = time.perf_counter() - self.started

    def connect(self):
        """A client whose ``ping`` the daemon answered."""
        from repro.serve.client import ServeClient, ServeError
        from repro.serve.protocol import ProtocolError

        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            try:
                client = ServeClient(self.socket, timeout=120.0, retries=0)
                client.ping()
                return client
            except (OSError, ProtocolError, ServeError):
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """Highest ``VmHWM`` of the daemon and its pool workers."""
        status = self.client.status()
        pids = [status["pid"]] + [row["pid"] for row in
                                  status.get("worker_table", [])
                                  if row.get("pid")]
        return max(hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        try:
            self.client.shutdown()
            self.client.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.log.close()


class Session:
    """The client loop against one running daemon."""

    def __init__(self, daemon: Daemon, programs: List[Dict], seed: int,
                 tally) -> None:
        self.daemon = daemon
        self.programs = programs
        self.rng = random.Random(seed)
        self.tally = tally
        self.procs = {p["name"]: [name for name, _ in
                                  inputs.procedure_spans(p["source"])]
                      for p in programs}
        self.editable = [(p, self.procs[p["name"]]) for p in programs
                         if len(self.procs[p["name"]]) >= 2]
        self.tags: Dict[str, Dict[str, int]] = {p["name"]: {}
                                                 for p in programs}
        self.edits = 0
        self.passes = 0
        self.samples = {"pass_s": [], "program_ms": {p["name"]: []
                                                     for p in programs},
                        "edit_ms": [], "warm_ms": [], "edit_computed": [],
                        "edit_compute_ms": [], "warm_daemon_ms": [],
                        "warm_protocol_ms": [], "memory_hits": 0,
                        "procs_requested": 0, "pass_protocol_s": [],
                        "counters": {}}

    def request(self, program: Dict, source: str, label: str):
        """One analyze round trip; returns ``(seconds, response)`` with
        ``response`` None when the request failed."""
        from repro.serve.client import ServeError
        from repro.serve.protocol import ProtocolError

        start = time.perf_counter()
        try:
            response = self.daemon.client.analyze(source, label=label)
        except (ServeError, ProtocolError, OSError) as exc:
            elapsed = time.perf_counter() - start
            self.tally.record(program["name"], f"{label}: {exc}")
            self.daemon.client = self.daemon.connect()
            return elapsed, None
        return time.perf_counter() - start, response

    def check(self, program: Dict, response) -> None:
        if response is not None:
            self.tally.record(program["name"], oracle.failure(
                response["result"], program["reference"]))

    def warm_up(self) -> None:
        """Submit each editable program once, so an edit step finds its
        untouched procedures in memory."""
        for program, _ in self.editable:
            _, response = self.request(program, program["source"],
                                       f"warmup:{program['name']}")
            self.check(program, response)

    def full_pass(self) -> float:
        self.passes += 1
        tag = PASS_TAG_BASE + self.passes
        order = [(p, inputs.with_markers(
                      p["source"], dict.fromkeys(self.procs[p["name"]], tag)))
                 for p in self.programs]
        self.rng.shuffle(order)
        done = []
        start = time.perf_counter()
        for program, source in order:
            elapsed, response = self.request(program, source,
                                             f"pass:{program['name']}")
            done.append((program, elapsed, response))
        wall = time.perf_counter() - start
        protocol = 0.0
        for program, elapsed, response in done:
            self.check(program, response)
            self.samples["program_ms"][program["name"]].append(1000 * elapsed)
            if response is not None:
                protocol += elapsed - response["request_seconds"]
                for name, value in response["result"]["counters"].items():
                    counters = self.samples["counters"]
                    counters[name] = counters.get(name, 0) + value
        self.samples["pass_s"].append(wall)
        self.samples["pass_protocol_s"].append(protocol)
        return wall

    def edit_step(self) -> None:
        program, procs = self.rng.choice(self.editable)
        self.edits += 1
        tags = self.tags[program["name"]]
        tags[self.rng.choice(procs)] = self.edits
        source = inputs.with_markers(program["source"], tags)
        s = self.samples
        elapsed, edited = self.request(program, source,
                                       f"edit:{program['name']}")
        self.check(program, edited)
        if edited is not None:
            s["edit_ms"].append(1000 * elapsed)
            s["edit_computed"].append(edited["tiers"]["computed"])
            s["edit_compute_ms"].append(1000 * edited["result"]["seconds"])
            s["memory_hits"] += edited["tiers"]["memory"]
            s["procs_requested"] += len(procs)
        elapsed, warm = self.request(program, source,
                                     f"warm:{program['name']}")
        self.check(program, warm)
        if warm is not None:
            s["warm_ms"].append(1000 * elapsed)
            s["warm_daemon_ms"].append(1000 * warm["request_seconds"])
            s["warm_protocol_ms"].append(
                1000 * (elapsed - warm["request_seconds"]))
            s["memory_hits"] += warm["tiers"]["memory"]
            s["procs_requested"] += len(procs)

    def run(self, seconds: float) -> dict:
        self.warm_up()
        deadline = time.perf_counter() + seconds
        while self.passes < MIN_PASSES or time.perf_counter() < deadline:
            wall = self.full_pass()
            block_end = time.perf_counter() + EDIT_SHARE * wall
            while time.perf_counter() < block_end:
                self.edit_step()
        stats = self.daemon.client.stats()["counters"]
        self.samples["daemon_counters"] = stats
        self.samples["peak_rss_mb"] = self.daemon.peak_rss_mb()
        return self.samples
