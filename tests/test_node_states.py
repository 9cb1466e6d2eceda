"""Golden per-node invariants, and which nodes a solve stores.

``FixpointResult`` stores a state only where one is read more than once
or after the solve; ``at(node)`` replays every other node from its
nearest stored ancestors.  The golden file pins the state ``at`` returns
for every node of the 17 suite programs at ``small`` scale, under the
optimised and the APRON-style octagon, compiled and interpreted: one
SHA-256 per procedure over the per-node digests of the raw matrix bytes,
``partition.canonical()``, ``nni``, ``closed`` and the bottom flag.  The
digests are taken after the analyzer has discharged its checks, so a
check's ``is_bottom`` on a stored state is part of what is pinned.

Regenerate the file (only when a change is *meant* to move a state),
or write the same digests at paper scale to compare two trees::

    PYTHONPATH=src python tests/test_node_states.py --write
    PYTHONPATH=src python tests/test_node_states.py --scale paper --out FILE
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.analysis import Analyzer, FixpointEngine
from repro.analysis.fixpoint import transient_nodes
from repro.domains.domain import get_domain
from repro.frontend.cfg import build_cfg
from repro.frontend.parser import parse_program
from repro.workloads.suite import BENCHMARKS

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "node_states_small.json")
DOMAINS = ("octagon", "apron")
MODES = {"compiled": True, "interpreted": False}


def state_digest(state) -> str:
    """SHA-256 of a state's raw representation; reads no lazy form."""
    mat = getattr(state, "mat", None)
    if mat is None:  # ApronOctagon keeps a flat half-matrix
        mat = np.asarray(state.half.data, dtype=np.float64)
    part = getattr(state, "partition", None)
    h = hashlib.sha256(np.ascontiguousarray(mat, dtype=np.float64).tobytes())
    h.update(repr((part.canonical() if part is not None else None,
                   getattr(state, "nni", None), state.closed,
                   state._bottom)).encode())
    return h.hexdigest()


def procedure_digests(source: str, domain: str, compiled: bool) -> dict:
    """``{procedure: sha256 over its nodes' digests, in node order}``."""
    result = Analyzer(domain=domain, compile_transfer=compiled).analyze(source)
    out = {}
    for proc in result.procedures:
        nodes = [state_digest(proc.fixpoint.at(node))
                 for node in range(proc.cfg.n_nodes)]
        out[proc.name] = hashlib.sha256("\n".join(nodes).encode()).hexdigest()
    return out


def suite_digests(scale: str) -> dict:
    return {f"{bench.name}/{domain}/{mode}":
            procedure_digests(bench.source(scale), domain, compiled)
            for bench in BENCHMARKS for domain in DOMAINS
            for mode, compiled in MODES.items()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_states_match_golden(golden, bench, domain, mode):
    got = procedure_digests(bench.source("small"), domain, MODES[mode])
    assert got == golden[f"{bench.name}/{domain}/{mode}"]


# A branch, a loop and one check.  Nodes: 0 entry, 1 after ``x``,
# 2-3 the then branch, 4-5 the else branch, 6 the merge, 7 after ``z``,
# 8 after ``k``, 9 the loop head, 10-12 the body (12 is the back edge's
# source), 13 the loop exit carrying the check, 14 the exit.
COUNT_SOURCE = """
x = [0, 10];
if (x < 5) { y = 1; } else { y = 2; }
z = 0;
k = 0;
while (k < 10) { z = z + y; k = k + 1; }
assert(z >= 0);
w = z + 1;
"""
# One successor whose only predecessor they are, and none of entry,
# exit, loop head or check node.
TRANSIENT = {2, 4, 6, 7, 10, 11}


@pytest.mark.parametrize("compiled", [True, False])
def test_stored_set_is_non_transient_nodes(compiled):
    cfg = build_cfg(parse_program(COUNT_SOURCE).procedures[0])
    assert (cfg.n_nodes, cfg.loop_heads, [n for n, _ in cfg.checks]) == \
        (15, {9}, [13])
    fix = FixpointEngine(compile_transfer=compiled).analyze(
        cfg, get_domain("octagon"))
    assert transient_nodes(cfg) == TRANSIENT
    assert set(fix.states) == set(range(cfg.n_nodes)) - TRANSIENT
    # Replayed nodes: z = 0 after node 7, and the body's z = z + y.
    names = cfg.variables
    assert fix.at(7).to_box()[names.index("z")] == (0.0, 0.0)
    assert fix.at(10).to_box()[names.index("k")] == (0.0, 9.0)
    assert fix.at(11).to_box()[names.index("z")][0] == 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small",
                        choices=("small", "paper"))
    parser.add_argument("--write", action="store_true",
                        help="overwrite the golden file (small scale)")
    parser.add_argument("--out", help="write the digests to this file")
    args = parser.parse_args(argv)
    path = GOLDEN if args.write else args.out
    if path is None or (args.write and args.scale != "small"):
        parser.error("give --write (small scale) or --out FILE")
    with open(path, "w") as fh:
        json.dump(suite_digests(args.scale), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
