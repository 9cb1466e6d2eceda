"""``python -m repro serve`` with the per-layer recorder installed.

Usage::

    python3 perfbench/traced_daemon.py SPANS_FILE serve ARGS...

Runs the repository's own CLI entry point in this process after
:func:`layers.install`.  Only the thread serving an ``analyze`` request
records, so concurrent supervisor threads add no overlapping spans; the
recorder's totals are keyed by the request label's prefix (``pass``,
``edit``, ``warm``).  The spans and totals are written to
``SPANS_FILE`` when the daemon shuts down.
"""

from __future__ import annotations

import sys

import layers


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = layers.install(layers.Recorder())

    from repro.__main__ import main as repro_main
    from repro.serve.server import AnalysisServer

    traced_analyze = AnalysisServer._cmd_analyze

    def labelled(self, request):
        recorder.phase = str(request.get("label", "")).split(":", 1)[0]
        recorder.request += 1
        recorder.enabled = True
        try:
            return traced_analyze(self, request)
        finally:
            recorder.enabled = False

    AnalysisServer._cmd_analyze = labelled
    try:
        return repro_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
