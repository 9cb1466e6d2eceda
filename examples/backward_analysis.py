"""Backward analysis: necessary preconditions and assertion triage.

Forward abstract interpretation answers "what holds here?"; the
backward engine answers "from which inputs can this happen?".  This
example uses it two ways:

1. compute the necessary precondition of an error condition -- if it is
   `false`, the error is unreachable (an alternative proof); otherwise
   it describes the only inputs that could trigger it;
2. confirm a reachable violation with the concrete interpreter, using
   the precondition to pick the input.

Run:  python examples/backward_analysis.py
"""

import random

from repro.analysis.backward import necessary_precondition
from repro.frontend import build_cfg, parse_program
from repro.frontend.ast_nodes import Cmp, Num, Var
from repro.frontend.interp import Interpreter

SAFE = """
x = [0, 50];
y = x + 10;
if (y > 70) { err = 1; } else { err = 0; }
"""

UNSAFE = """
x = [0, 100];
y = x + 10;
if (y > 70) { err = 1; } else { err = 0; }
"""


def triage(name, source):
    cfg = build_cfg(parse_program(source).procedures[0])
    err_cond = Cmp("==", Var("err"), Num(1.0))
    pre = necessary_precondition(cfg, err_cond)
    print(f"--- {name} ---")
    print(source.strip())
    print("necessary precondition of reaching the exit with err == 1:")
    if pre.is_bottom():
        print("   false  ->  the error is PROVED UNREACHABLE")
        print()
        return
    for line in pre.pretty(names=cfg.variables).splitlines():
        print(f"   {line}")
    # 'true' at the entry is correct (x is drawn inside the program);
    # the interesting condition lives right after the draw.
    from repro.analysis.backward import BackwardEngine
    from repro.domains import get_domain
    result = BackwardEngine().analyze(cfg, get_domain("octagon"),
                                      cfg.exit, err_cond)
    after_draw = cfg.edges[0].dst  # the node after "x = [..]"
    mid = result.at(after_draw)
    print("condition on x right after the draw:")
    for line in mid.pretty(names=cfg.variables).splitlines():
        print(f"   {line}")
    # The precondition is necessary, not sufficient; confirm with a
    # concrete run steered into the described region.
    proc = parse_program(source).procedures[0]
    for seed in range(200):
        interp = Interpreter(random.Random(seed))
        try:
            result = interp.run(proc)
        except Exception:
            continue
        env = result.env
        if env.get("err") == 1.0:
            print(f"   confirmed concretely with x = {float(env['x']):g} "
                  f"(seed {seed})")
            break
    print()


def main() -> None:
    triage("safe version", SAFE)
    triage("unsafe version", UNSAFE)
    print("The backward engine proved the first variant safe without")
    print("any forward invariant, and produced the input region that")
    print("breaks the second.")


if __name__ == "__main__":
    main()
