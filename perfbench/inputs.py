"""Seeded inputs: the paper's 17 suite programs, regenerated per seed.

The default seed (0) reproduces the registered suite programs.  Any
other seed regenerates every program from the same generator and the
same ``paper``-scale shape parameters, with a different program seed
(variant ``k`` uses the registered seed ``+ k * VARIANT_STRIDE``).

Regenerated programs of one shape still differ in analysis cost, by
more than ten times for the smallest programs, which would make seeds,
not code, move the end-to-end numbers.  ``pool.json`` therefore lists, per program, the variants whose
cost lies within ``TOLERANCE`` of the variants' median cost, together
with the ``apron``-domain reference for each; a seed draws one of them
per program.  ``build_pool.py`` regenerates the file.
"""

from __future__ import annotations

import json
import os
import random
import types
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "pool.json")
DEFAULT_SEED = 0
VARIANT_STRIDE = 100003
TOLERANCE = 0.08

RELATIONAL = ("CPA", "TB")
PROCEDURAL = ("DPS", "DIZY")


@dataclass
class Program:
    name: str
    family: str
    variant: int
    source: str
    #: ``{"checks": [...], "procedures": [...]}`` from the apron domain.
    reference: Dict


def variant_source(bench, variant: int, scale: str = "paper") -> str:
    """``bench``'s source at ``scale``, regenerated as variant ``variant``.

    The registry builds each program from a closure over its generator
    parameters; a variant rebinds only the closure's ``seed`` cell, so
    every shape parameter stays the registry's own.
    """
    build = bench.source_builder
    if variant:
        cells = tuple(
            types.CellType(cell.cell_contents + VARIANT_STRIDE * variant
                           if name == "seed" else cell.cell_contents)
            for name, cell in zip(build.__code__.co_freevars,
                                  build.__closure__))
        build = types.FunctionType(build.__code__, build.__globals__,
                                   build.__name__, build.__defaults__, cells)
    return build(scale)


def load_pool() -> Dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)


def choose_variant(entry: Dict, name: str, seed: int) -> int:
    if seed == DEFAULT_SEED:
        return 0
    return random.Random(f"{seed}:{name}").choice(entry["matched"])


def programs(seed: int, families: Optional[tuple] = None,
             scale: str = "paper") -> List[Program]:
    """The workload's programs for ``seed``, in registry order.

    At ``paper`` scale variants and references come from ``pool.json``.
    At ``small`` scale (smoke runs) the seed is the variant and each
    reference is computed here, before anything is timed.
    """
    from repro.workloads.suite import BENCHMARKS

    import oracle

    pool = load_pool()["programs"] if scale == "paper" else None
    out = []
    for bench in BENCHMARKS:
        if families is not None and bench.analyzer not in families:
            continue
        if pool is not None:
            entry = pool[bench.name]
            variant = choose_variant(entry, bench.name, seed)
            source = variant_source(bench, variant)
            reference = entry["references"][str(variant)]
        else:
            variant = seed
            source = variant_source(bench, variant, scale)
            reference = oracle.reference(source)
        out.append(Program(bench.name, bench.analyzer, variant, source,
                           reference))
    return out


# ----------------------------------------------------------------------
# no-op edits
# ----------------------------------------------------------------------
def procedure_spans(source: str) -> List[tuple]:
    """``(name, close)`` per ``proc NAME { ... }``: ``close`` is the
    index of the procedure's closing brace.  A source without ``proc``
    headers is one implicit procedure ending at the end of the text."""
    spans = []
    pos = source.find("proc ")
    if pos < 0:
        return [("main", len(source))]
    while pos >= 0:
        brace = source.index("{", pos)
        name = source[pos + len("proc "):brace].strip()
        depth, i = 0, brace
        while True:
            ch = source[i]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        spans.append((name, i))
        pos = source.find("proc ", i)
    return spans


def marker(tag: int) -> str:
    """A statement that changes a procedure's text, and so its cache
    key, but not its semantics: a constant-true assumption."""
    return f"  assume({int(tag)} >= 0);\n"


def with_markers(source: str, tags: Dict[str, int]) -> str:
    """``source`` with ``marker(tags[p])`` at the end of each procedure
    ``p`` named in ``tags``."""
    out, last = [], 0
    for name, close in procedure_spans(source):
        if name in tags:
            out.append(source[last:close])
            out.append(marker(tags[name]))
            last = close
    out.append(source[last:])
    return "".join(out)
