"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``analyze FILE...``   -- run the static analyzer on mini-language
                           source files and report assertion results
                           (multiple files route through the batch
                           service).
* ``batch FILE...``     -- the batch front door: many programs through
                           the job scheduler, process-pool workers and
                           the persistent result cache
                           (``--suite`` runs the 17-benchmark suite).
* ``precondition FILE`` -- backward analysis: the necessary
                           precondition of reaching the program exit.
* ``bench NAME``        -- run one suite benchmark through both octagon
                           implementations and print the comparison.
* ``suite``             -- list the 17-benchmark suite with its paper
                           statistics.
* ``demo``              -- analyse the paper's Figure 2 example.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import Analyzer
from .core import stats
from .core.bounds import INF
from .obs import events


def _run_context(args):
    """The telemetry :class:`RunContext` main() attached, if any."""
    return getattr(args, "run_context", None)


def _fmt(value: float) -> str:
    if value == INF:
        return "+oo"
    if value == -INF:
        return "-oo"
    return f"{value:g}"


def _apply_paranoid(args) -> None:
    """Honour ``--paranoid`` (REPRO_PARANOID=1 works without the flag)."""
    if getattr(args, "paranoid", False):
        from .core.sentinel import set_paranoid

        set_paranoid(True)


def _budget_kwargs(args) -> dict:
    return {"time_budget": args.time_budget,
            "iteration_budget": args.iteration_budget,
            "cell_budget": args.cell_budget}


def _telemetry(args) -> tuple:
    """The job telemetry tuple implied by the CLI flags."""
    ctx = _run_context(args)
    if ctx is None:
        return ()
    wanted = []
    if ctx.trace_path:
        wanted.append("trace")
    if ctx.log_path or ctx.metrics_path:
        wanted.append("metrics")
    return tuple(wanted)


def cmd_analyze(args) -> int:
    _apply_paranoid(args)
    if len(args.files) > 1:
        return _analyze_many(args)
    with open(args.files[0]) as fh:
        source = fh.read()
    analyzer = Analyzer(domain=args.domain,
                        widening_delay=args.widening_delay,
                        compile_transfer=not args.no_compile,
                        **_budget_kwargs(args))
    ctx = _run_context(args)
    result = analyzer.analyze(source,
                              collect=ctx is not None and ctx.active)
    if ctx is not None and result.octagon_stats is not None:
        ctx.finish(result.octagon_stats, file=args.files[0])
    failures = 0
    for proc in result.procedures:
        note = ""
        if proc.degraded:
            used = "top" if proc.exhausted else proc.domain_used
            note = f" (degraded to {used})"
        print(f"proc {proc.name}:{note}")
        names = proc.cfg.variables
        exit_state = proc.invariant_at_exit()
        if exit_state.is_bottom():
            print("  exit: unreachable")
        else:
            for v, name in enumerate(names):
                lo, hi = exit_state.bounds(v)
                print(f"  {name} in [{_fmt(lo)}, {_fmt(hi)}] at exit")
        for check in proc.checks:
            ok = "VERIFIED" if check.verified else "FAILED TO PROVE"
            failures += 0 if check.verified else 1
            print(f"  assert({check.cond_text}): {ok}")
    total = len(result.checks)
    print(f"{total - failures}/{total} assertions verified "
          f"({args.domain}, {result.seconds:.3f}s)")
    return 1 if failures else 0


def _fmt_opt(value) -> str:
    return "oo" if value is None else f"{value:g}"


def _analyze_many(args) -> int:
    """N>1 files: same report per file, executed via the service.

    Exit-code contract matches the single-file path: nonzero iff any
    assertion fails to prove (a job that errors or times out has, in
    particular, not proved its assertions).
    """
    from .service import run_batch
    from .service.job import jobs_from_files

    jobs = jobs_from_files(args.files, domain=args.domain,
                           widening_delay=args.widening_delay,
                           compile_transfer=not args.no_compile,
                           telemetry=_telemetry(args),
                           **_budget_kwargs(args))
    batch = run_batch(jobs, workers=args.jobs)
    _finish_batch_run(args, batch)
    failures = 0
    for result in batch.results:
        print(f"== {result.label} ==")
        if not result.completed:
            failures += 1
            print(f"  {result.outcome}: {result.error}")
            continue
        if result.outcome == "degraded":
            rungs = ", ".join(f"{proc}->{dom}"
                              for proc, dom in sorted(result.rungs.items()))
            print(f"  degraded under budget ({rungs})")
        for proc in result.procedures:
            print(f"proc {proc.name}:")
            if not proc.reachable:
                print("  exit: unreachable")
            else:
                for name, (lo, hi) in zip(proc.variables, proc.box):
                    print(f"  {name} in [{_fmt_opt(lo)}, {_fmt_opt(hi)}] "
                          f"at exit")
        for check in result.checks:
            ok = "VERIFIED" if check.verified else "FAILED TO PROVE"
            failures += 0 if check.verified else 1
            print(f"  assert({check.cond_text}): {ok}")
    verified = batch.checks_verified
    total = batch.checks_total
    print(f"{verified}/{total} assertions verified over "
          f"{len(batch.results)} files ({args.domain}, "
          f"{batch.wall_seconds:.3f}s)")
    return 1 if failures else 0


def _finish_batch_run(args, batch) -> None:
    """Feed batch-level rollups into the telemetry run context."""
    ctx = _run_context(args)
    if ctx is None or not ctx.active:
        return
    from .obs import metrics

    counts = batch.outcome_counts()
    ctx.finish(
        counters=metrics.REGISTRY.counter_summary(batch.counters()),
        histograms=batch.merged_histograms(),
        jobs=len(batch.results),
        ok=counts.get("ok", 0),
        degraded=counts.get("degraded", 0),
        failed=counts.get("timeout", 0) + counts.get("error", 0),
        cache_hits=batch.cache_hits,
        cache_misses=batch.cache_misses,
        **batch.op_timings(),
    )


def _batch_cross_validate(args, jobs) -> int:
    """``batch --cross-validate``: octagon vs apron differential run."""
    import json as _json

    from .service.validate import cross_validate

    report = cross_validate(jobs)
    width = max((len(p.label) for p in report.programs), default=0)
    print(f"{'program':{width}s}  {'ok':>2s}  {'octagon s':>9s}  "
          f"{'apron s':>9s}")
    for prog in report.programs:
        print(f"{prog.label:{width}s}  {'ok' if prog.ok else 'XX':>2s}  "
              f"{prog.octagon.seconds:9.3f}  {prog.apron.seconds:9.3f}")
        for mismatch in prog.mismatches:
            print(f"  MISMATCH {mismatch}")
    n_bad = len(report.failures)
    print(f"cross-validate: {len(report.programs)} program(s), "
          f"{n_bad} mismatch(es)")
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(report.to_dict(), fh, indent=2)
        print(f"wrote {args.json}")
    return 1 if n_bad else 0


def cmd_batch(args) -> int:
    """Batch front door: files (or the suite) through the service."""
    from .service import BatchJournal, ResultCache, run_batch, suite_jobs
    from .service.job import jobs_from_files

    _apply_paranoid(args)
    if args.suite:
        if args.files:
            events.error("batch_usage",
                         message="give FILE arguments or --suite, not both")
            return 2
        jobs = suite_jobs(args.scale, domain=args.domain,
                          compile_transfer=not args.no_compile,
                          telemetry=_telemetry(args),
                          **_budget_kwargs(args))
    elif args.files:
        jobs = jobs_from_files(args.files, domain=args.domain,
                               compile_transfer=not args.no_compile,
                               telemetry=_telemetry(args),
                               **_budget_kwargs(args))
    else:
        events.error("batch_usage",
                     message="no input files (pass FILE... or --suite)")
        return 2

    if args.cross_validate:
        return _batch_cross_validate(args, jobs)

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    # Journalling is on by default so an unplanned kill is always
    # resumable; --journal overrides the content-addressed default path.
    journal = None
    if not args.no_journal:
        journal = (BatchJournal(args.journal) if args.journal
                   else BatchJournal.for_jobs(jobs, root=args.cache_dir))
    batch = run_batch(jobs, workers=args.jobs, timeout=args.timeout,
                      cache=cache, journal=journal, resume=args.resume)
    _finish_batch_run(args, batch)

    width = max((len(r.label) for r in batch.results), default=0)
    for result in batch.results:
        note = " (cached)" if result.cached else ""
        if result.resumed:
            note = " (resumed)"
        if result.completed:
            detail = (f"{result.checks_verified}/{result.checks_total} "
                      f"verified  {result.seconds:7.3f}s")
            sparsity = stats.sparsity_ratio(result.counters)
            if sparsity is not None:
                detail += f"  sp={sparsity:.3f}"
            if result.rungs:
                rungs = ", ".join(f"{proc}->{dom}" for proc, dom
                                  in sorted(result.rungs.items()))
                detail += f"  [{rungs}]"
        else:
            detail = result.error or result.outcome
        print(f"{result.label:{width}s}  {result.outcome:8s}  {detail}{note}")
    counts = batch.outcome_counts()
    summary = ", ".join(f"{counts.get(k, 0)} {k}"
                        for k in ("ok", "degraded", "timeout", "error"))
    print(f"batch: {len(batch.results)} jobs in {batch.wall_seconds:.3f}s "
          f"with {batch.workers} worker(s) ({summary})")
    if batch.resumed:
        print(f"journal: {batch.resumed} job(s) resumed from "
              f"{journal.path}")
    if cache is not None:
        print(f"cache: {batch.cache_hits} hits, {batch.cache_misses} misses, "
              f"{cache.evictions} evictions ({cache.dir})")
    if batch.transport.get("bytes_shipped"):
        print(f"transport: {batch.transport['bytes_shipped']} B over pipes")

    if args.json:
        from .core.serialize import job_result_to_dict
        from .obs import metrics
        import json as _json

        ctx = _run_context(args)
        timings = batch.op_timings()
        document = {
            "run": ctx.run_id if ctx is not None else None,
            "wall_seconds": batch.wall_seconds,
            "workers": batch.workers,
            "cache_hits": batch.cache_hits,
            "cache_misses": batch.cache_misses,
            "resumed": batch.resumed,
            "counters": metrics.REGISTRY.counter_summary(batch.counters()),
            "op_seconds": timings["op_seconds"],
            "op_self_seconds": timings["op_self_seconds"],
            "op_calls": timings["op_calls"],
            "histograms": batch.merged_histograms(),
            "jobs": [dict(job_result_to_dict(r),
                          sparsity=stats.sparsity_ratio(r.counters))
                     for r in batch.results],
        }
        with open(args.json, "w") as fh:
            _json.dump(document, fh, indent=2)
        print(f"wrote {args.json}")
    # A degraded job still produced a sound answer: only jobs with *no*
    # answer (timeout/error) fail the batch.
    return 0 if batch.all_completed else 1


def cmd_report(args) -> int:
    """Render a run report from exported artifacts (no re-analysis)."""
    from .obs.report import render_report

    try:
        sys.stdout.write(render_report(args.run, trace_path=args.trace))
    except (OSError, ValueError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_precondition(args) -> int:
    from .analysis.backward import necessary_precondition
    from .frontend.cfg import build_cfg
    from .frontend.parser import parse_program

    with open(args.file) as fh:
        source = fh.read()
    cfg = build_cfg(parse_program(source).procedures[0])
    pre = necessary_precondition(cfg, domain=args.domain,
                                 compile_transfer=not args.no_compile)
    print("necessary precondition of reaching the exit:")
    if pre.is_bottom():
        print("  false (the exit is unreachable)")
    else:
        text = pre.pretty(names=cfg.variables) if hasattr(pre, "pretty") else repr(pre)
        for line in text.splitlines():
            print(f"  {line}")
    return 0


def cmd_bench(args) -> int:
    from .bench import fig8_row
    from .workloads import get_benchmark

    bench = get_benchmark(args.name)
    row = fig8_row(bench, scale=args.scale)
    print(f"benchmark {bench.name} ({bench.analyzer}), scale={args.scale}")
    print(f"  apron octagon time: {row['apron_oct_s']:.3f}s")
    print(f"  opt octagon time:   {row['opt_oct_s']:.3f}s")
    print(f"  speedup:            {row['speedup']:.1f}x "
          f"(paper: {row['paper_speedup']:g}x)")
    print(f"  copies avoided:     {row['copies_avoided']}")
    print(f"  workspace hits:     {row['workspace_hits']}")
    print(f"  closure cache hits: {row['closure_cache_hits']}")
    print(f"  plans compiled:     {row['plans_compiled']}")
    print(f"  plan executions:    {row['plan_exec']}")
    print(f"  constraints batched:{row['constraints_batched']:>6}")
    print(f"  closures avoided:   {row['closures_avoided']}")
    return 0


def cmd_suite(_args) -> int:
    from .service.cache import default_cache_root
    from .workloads import BENCHMARKS

    # The same resolved configuration the server reports on `status`,
    # so CLI and daemon can be checked for agreement.
    print(f"cache dir: {default_cache_root()}")
    print(f"{'benchmark':14s} {'analyzer':8s} {'nmin':>5s} {'nmax':>5s} "
          f"{'#closures':>9s} {'oct speedup':>11s}")
    for bench in BENCHMARKS:
        p = bench.paper
        print(f"{bench.name:14s} {bench.analyzer:8s} {p.nmin:5d} {p.nmax:5d} "
              f"{p.closures:9d} {p.oct_speedup:10.1f}x")
    return 0


def cmd_serve(args) -> int:
    import os as _os

    from .serve import AnalysisServer

    server = AnalysisServer(args.socket,
                            port=args.port,
                            host=args.host,
                            pool=args.pool,
                            deadline_ms=args.deadline_ms or None,
                            queue_depth=args.queue_depth,
                            idle_timeout=args.idle_timeout,
                            drain_timeout=args.drain_timeout,
                            worker_restarts=args.worker_restarts,
                            cache_dir=args.cache_dir,
                            use_cache=not args.no_cache,
                            lru_procedures=args.lru_procedures,
                            http_port=args.http_port,
                            http_host=args.http_host,
                            slow_request_ms=args.slow_request_ms or None)
    try:
        server.install_signal_handlers()
        address = server.start()
    except (RuntimeError, OSError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    http = (f", http=http://{server.http_host}:{server.http_port}"
            if server.http_port is not None else "")
    print(f"repro serve: listening on {address} "
          f"(pool={server.pool}, admission={server.admission_limit}, "
          f"pid={_os.getpid()}{http})", flush=True)
    server.serve_forever()
    ctx = _run_context(args)
    if ctx is not None and ctx.active:
        ctx.finish(counters=server._counter_snapshot(),
                   histograms={key: data.to_dict()
                               for key, data in server._latency.items()},
                   requests=server.requests,
                   errors=server.errors)
    return 0


def cmd_top(args) -> int:
    from .obs.console import run_top

    return run_top(args.url, interval=args.interval, once=args.once)


def _client_render_analyze(response, label: str) -> int:
    """Render one analyze response like the batch report; returns the
    number of unproven assertions (the exit-code contribution)."""
    result = response["result"]
    tiers = response["tiers"]
    print(f"== {label} ==")
    if result["outcome"] == "degraded":
        rungs = ", ".join(f"{proc}->{dom}"
                          for proc, dom in sorted(result["rungs"].items()))
        print(f"  degraded under budget ({rungs})")
    for proc in result["procedures"]:
        print(f"proc {proc['name']}:")
        if not proc["reachable"]:
            print("  exit: unreachable")
        else:
            for name, (lo, hi) in zip(proc["variables"], proc["box"]):
                print(f"  {name} in [{_fmt_opt(lo)}, {_fmt_opt(hi)}] at exit")
    failures = 0
    for _, cond_text, verified in result["checks"]:
        ok = "VERIFIED" if verified else "FAILED TO PROVE"
        failures += 0 if verified else 1
        print(f"  assert({cond_text}): {ok}")
    trace_id = response.get("trace_id")
    trace_note = f"  trace={trace_id}" if trace_id else ""
    print(f"  tiers: memory={tiers['memory']} disk={tiers['disk']} "
          f"computed={tiers['computed']}  "
          f"({response['request_seconds']:.4f}s){trace_note}")
    return failures


def cmd_client(args) -> int:
    import json as _json

    from .serve import ServeClient, ServeError

    try:
        client = ServeClient(args.socket, host=args.host, port=args.port,
                             retries=args.retries)
    except OSError as exc:
        print(f"client: cannot connect: {exc}", file=sys.stderr)
        return 2
    with client:
        try:
            if args.action == "analyze":
                if not args.files:
                    print("client: analyze needs FILE arguments",
                          file=sys.stderr)
                    return 2
                options = {"domain": args.domain,
                           "widening_delay": args.widening_delay,
                           "compile_transfer": not args.no_compile}
                for key, value in _budget_kwargs(args).items():
                    if value is not None:
                        options[key] = value
                failures = 0
                for path in args.files:
                    with open(path) as fh:
                        source = fh.read()
                    response = client.analyze(
                        source, label=str(path), options=options,
                        deadline_ms=args.deadline_ms or None)
                    failures += _client_render_analyze(response, str(path))
                return 1 if failures else 0
            if args.action == "metrics":
                sys.stdout.write(client.metrics())
                return 0
            if args.action == "shutdown":
                response = client.shutdown()
                print(f"server pid {response['pid']} stopping")
                return 0
            response = client.request({"cmd": args.action})
            response.pop("ok", None)
            print(_json.dumps(response, indent=2, sort_keys=True))
            return 0
        except ServeError as exc:
            print(f"client: server error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"client: {exc}", file=sys.stderr)
            return 2


def cmd_demo(args) -> int:
    from .workloads.programs import fig2_program

    source = fig2_program() + "\nassert(y >= x - 1);\n"
    print("the paper's Figure 2 example:")
    print(source)
    result = Analyzer(domain=args.domain).analyze(source)
    for check in result.checks:
        ok = "VERIFIED" if check.verified else "FAILED TO PROVE"
        print(f"assert({check.cond_text}): {ok}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Making Numerical Program Analysis "
                    "Fast' (PLDI 2015)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_robustness_flags(p) -> None:
        p.add_argument("--paranoid", action="store_true",
                       help="validate DBM integrity after every octagon "
                            "operation (slow; also REPRO_PARANOID=1)")
        p.add_argument("--time-budget", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per procedure attempt; on "
                            "exhaustion the analysis degrades to a cheaper "
                            "domain instead of failing")
        p.add_argument("--iteration-budget", type=int, default=None,
                       metavar="N", help="fixpoint-iteration budget per "
                                         "procedure attempt")
        p.add_argument("--cell-budget", type=int, default=None, metavar="N",
                       help="DBM-cell (closure traffic) budget per "
                            "procedure attempt")

    def add_telemetry_flags(p) -> None:
        p.add_argument("--trace", default=None, metavar="OUT",
                       help="record spans and write Chrome trace-event "
                            "JSON (open in Perfetto / chrome://tracing)")
        p.add_argument("--log-json", dest="log_json", default=None,
                       metavar="OUT",
                       help="append structured events as JSON lines; the "
                            "input of 'python -m repro report'")
        p.add_argument("--metrics", default=None, metavar="OUT",
                       help="write the final counter/histogram snapshot "
                            "in Prometheus text format")
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="more diagnostics on stderr (-v info, -vv "
                            "debug)")
        p.add_argument("-q", "--quiet", action="store_true",
                       help="errors only on stderr")

    p = sub.add_parser("analyze", help="analyze one or more source files")
    add_robustness_flags(p)
    add_telemetry_flags(p)
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--domain", default="octagon",
                   choices=["octagon", "apron", "interval", "zone",
                            "pentagon"])
    p.add_argument("--widening-delay", type=int, default=2)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes when analyzing several files "
                        "(default: cpu count)")
    p.add_argument("--no-compile", action="store_true",
                   help="interpret edge actions instead of running "
                        "compiled transfer plans (ablation; results are "
                        "identical, only slower)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "batch",
        help="run many programs through the batch analysis service")
    p.add_argument("files", nargs="*", metavar="FILE")
    p.add_argument("--suite", action="store_true",
                   help="run the 17-benchmark suite instead of files")
    p.add_argument("--scale", default=None,
                   choices=["small", "paper", "large"],
                   help="suite scale (default: REPRO_BENCH_SCALE or paper)")
    p.add_argument("--domain", default="octagon",
                   choices=["octagon", "apron", "interval", "zone",
                            "pentagon"])
    p.add_argument("--cross-validate", action="store_true",
                   help="run every program under both the octagon and "
                        "the apron domain and fail on any verdict or "
                        "bound disagreement")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: cpu count; 1 = inline)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job wall-clock timeout in seconds")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the persistent result cache")
    p.add_argument("--cache-dir", default=None,
                   help="cache root (default: REPRO_CACHE_DIR or "
                        "~/.cache/repro)")
    p.add_argument("--json", default=None, metavar="OUT",
                   help="also write the batch report as JSON")
    p.add_argument("--no-compile", action="store_true",
                   help="interpret edge actions instead of running "
                        "compiled transfer plans (ablation; jobs get "
                        "distinct cache keys)")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="journal file recording finished jobs (default: "
                        "content-addressed path under the cache root)")
    p.add_argument("--no-journal", action="store_true",
                   help="do not journal finished jobs (batch will not be "
                        "resumable)")
    p.add_argument("--resume", action="store_true",
                   help="serve jobs already recorded in the journal by an "
                        "earlier (killed) run of this batch; only "
                        "unfinished jobs re-run")
    add_robustness_flags(p)
    add_telemetry_flags(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "report",
        help="render a run report from --log-json / --trace artifacts")
    p.add_argument("run", metavar="RUN",
                   help="a --log-json artifact (JSONL event log)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="trace file for the per-phase table (default: the "
                        "path recorded in the run's summary event)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("precondition",
                       help="necessary precondition of reaching the exit")
    p.add_argument("file")
    p.add_argument("--domain", default="octagon", choices=["octagon", "apron"])
    p.add_argument("--no-compile", action="store_true",
                   help="interpret edge actions instead of running "
                        "compiled transfer plans (ablation)")
    p.set_defaults(func=cmd_precondition)

    p = sub.add_parser("bench", help="run one suite benchmark")
    p.add_argument("name")
    p.add_argument("--scale", default="paper",
                   choices=["small", "paper", "large"])
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("suite", help="list the benchmark suite")
    p.set_defaults(func=cmd_suite)

    def add_endpoint_flags(p) -> None:
        p.add_argument("--socket", default=None, metavar="PATH",
                       help="Unix socket path (default: serve.sock under "
                            "the cache root)")
        p.add_argument("--port", type=int, default=None,
                       help="serve/connect over TCP on this port instead "
                            "of a Unix socket (0 = ephemeral)")
        p.add_argument("--host", default="127.0.0.1",
                       help="TCP host (with --port; default 127.0.0.1)")

    p = sub.add_parser(
        "serve",
        help="run the long-lived analysis server (incremental "
             "per-procedure re-analysis)")
    add_endpoint_flags(p)
    p.add_argument("--pool", type=int, default=2,
                   help="supervised worker processes for the compute "
                        "tier; 0 = run fixpoints in the daemon process "
                        "(default 2)")
    p.add_argument("--deadline-ms", type=float, default=0,
                   help="server-default analyze deadline in milliseconds; "
                        "0 = none (clients can still send deadline_ms)")
    p.add_argument("--queue-depth", type=int, default=16,
                   help="analyze requests allowed in flight beyond "
                        "max(1, --pool) before the server sheds load with "
                        "an 'overloaded' response (default 16)")
    p.add_argument("--idle-timeout", type=float, default=300.0,
                   help="per-frame idle read timeout in seconds before a "
                        "stalled client is disconnected (default 300)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   help="max seconds to wait for in-flight requests on "
                        "shutdown (default 30)")
    p.add_argument("--worker-restarts", type=int, default=5,
                   help="consecutive pool failures before the circuit "
                        "breaker falls back to in-process execution "
                        "(default 5)")
    p.add_argument("--cache-dir", default=None,
                   help="disk-cache root (default: REPRO_CACHE_DIR or "
                        "~/.cache/repro)")
    p.add_argument("--no-cache", action="store_true",
                   help="no disk tier: memory LRU only")
    p.add_argument("--lru-procedures", type=int, default=1024,
                   help="in-memory LRU capacity in procedure results "
                        "(default 1024)")
    p.add_argument("--http-port", type=int, default=None, metavar="PORT",
                   help="also serve the read-only HTTP observability "
                        "facade (/metrics /healthz /statusz /requestz) on "
                        "this port (0 = ephemeral; default: off)")
    p.add_argument("--http-host", default="127.0.0.1",
                   help="bind host for --http-port (default 127.0.0.1)")
    p.add_argument("--slow-request-ms", type=float, default=0,
                   metavar="MS",
                   help="log a structured serve_slow_request event (with "
                        "per-request counter deltas and trace id) for any "
                        "request at or over this wall time; 0 = off")
    add_telemetry_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "top",
        help="live ops console over a daemon's HTTP facade")
    p.add_argument("url", metavar="URL",
                   help="facade base URL, e.g. http://127.0.0.1:9100")
    p.add_argument("--interval", type=float, default=2.0,
                   help="poll interval in seconds (default 2)")
    p.add_argument("--once", action="store_true",
                   help="print one frame without ANSI control codes and "
                        "exit (nonzero if the daemon is unreachable)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "client",
        help="talk to a running analysis server")
    p.add_argument("action",
                   choices=["analyze", "ping", "status", "stats",
                            "metrics", "shutdown"])
    p.add_argument("files", nargs="*", metavar="FILE",
                   help="source files (analyze action)")
    add_endpoint_flags(p)
    p.add_argument("--domain", default="octagon",
                   choices=["octagon", "apron", "interval", "zone",
                            "pentagon"])
    p.add_argument("--widening-delay", type=int, default=2)
    p.add_argument("--no-compile", action="store_true",
                   help="interpret edge actions instead of compiled "
                        "transfer plans")
    p.add_argument("--deadline-ms", type=float, default=0,
                   help="per-request deadline in milliseconds "
                        "(analyze action; 0 = server default)")
    p.add_argument("--retries", type=int, default=2,
                   help="client retries on transport faults and "
                        "'overloaded' sheds (default 2)")
    add_robustness_flags(p)
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("demo", help="analyse the paper's Figure 2 example")
    p.add_argument("--domain", default="octagon",
                   choices=["octagon", "apron", "interval", "zone",
                            "pentagon"])
    p.set_defaults(func=cmd_demo)

    args = parser.parse_args(argv)
    # Subcommands with telemetry flags run under a RunContext: it sets
    # the stderr verbosity, arms the requested artifacts, and writes
    # them (trace JSON, event log's run_summary, Prometheus file) on
    # the way out.  `report` has --trace too but is a pure reader, so
    # the presence of --log-json is the marker.
    if hasattr(args, "log_json"):
        from .obs.report import RunContext

        ctx = RunContext(args.command, trace_path=args.trace,
                         log_path=args.log_json, metrics_path=args.metrics,
                         verbose=args.verbose, quiet=args.quiet)
        args.run_context = ctx
        with ctx:
            return args.func(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
