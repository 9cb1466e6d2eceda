"""End-to-end soundness fuzzing: abstract vs concrete semantics.

Hypothesis generates random mini-language programs; for each program we

1. run the full abstract interpretation with every domain, and
2. sample concrete executions with the reference interpreter,

then check the two pillars of soundness:

* every *completed* concrete run ends inside the abstract exit
  invariant;
* an assertion the analyzer VERIFIED is never violated concretely.

This is the strongest whole-pipeline oracle in the suite: it exercises
the parser, CFG, transfer functions, fixpoint engine (widening,
narrowing, recursive strategy) and every domain operator at once.
"""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis import Analyzer
from repro.frontend import parse_program, pretty
from repro.frontend.interp import sample_runs

VARS = ["a", "b", "c"]


# ----------------------------------------------------------------------
# program generator
# ----------------------------------------------------------------------
def aexprs():
    num = st.integers(-8, 8).map(lambda k: str(k))
    var = st.sampled_from(VARS)
    simple = st.one_of(num, var)

    def binop(children):
        return st.tuples(children, st.sampled_from(["+", "-", "*"]),
                         children).map(lambda t: f"({t[0]} {t[1]} {t[2]})")

    return st.recursive(simple, binop, max_leaves=4)


def conditions():
    cmp_ = st.tuples(aexprs(), st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
                     aexprs()).map(lambda t: f"{t[0]} {t[1]} {t[2]}")

    def boolop(children):
        return st.tuples(children, st.sampled_from(["&&", "||"]),
                         children).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})")

    return st.recursive(cmp_, boolop, max_leaves=3)


@st.composite
def statements(draw, depth=0):
    kind = draw(st.integers(0, 7 if depth < 2 else 4))
    var = draw(st.sampled_from(VARS))
    if kind <= 1:
        return f"{var} = {draw(aexprs())};"
    if kind == 2:
        lo = draw(st.integers(-10, 5))
        return f"{var} = [{lo}, {lo + draw(st.integers(0, 10))}];"
    if kind == 3:
        return f"havoc({var});"
    if kind == 4:
        return f"assume({draw(conditions())});"
    if kind == 5:
        then = draw(blocks(depth + 1))
        if draw(st.booleans()):
            return f"if ({draw(conditions())}) {then} else {draw(blocks(depth + 1))}"
        return f"if ({draw(conditions())}) {then}"
    if kind == 6:
        # Bounded counter loop: guaranteed to terminate concretely.
        bound = draw(st.integers(1, 6))
        body = draw(blocks(depth + 1, allow_counter_writes=False))
        counter = f"k{depth}"
        return (f"{counter} = 0; while ({counter} < {bound}) "
                f"{{ {body[1:-1]} {counter} = {counter} + 1; }}")
    return f"assert({draw(conditions())});"


@st.composite
def blocks(draw, depth=0, allow_counter_writes=True):
    stmts = draw(st.lists(statements(depth=depth), min_size=1, max_size=4))
    return "{ " + " ".join(stmts) + " }"


@st.composite
def programs(draw):
    init = " ".join(f"{v} = {draw(st.integers(-5, 5))};" for v in VARS)
    body = draw(blocks())
    return init + " " + body[1:-1].strip()


#: 40 examples per test under hypothesis' default profile (100); the
#: ``soundness-deep`` profile (tests/conftest.py) makes it 400.
FUZZ = settings(max_examples=settings.default.max_examples * 2 // 5,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large,
                                       HealthCheck.filter_too_much])


@pytest.mark.parametrize("domain", ["octagon", "apron", "interval", "zone",
                                    "pentagon"])
class TestSoundness:
    @FUZZ
    @given(source=programs(), seed=st.integers(0, 10_000))
    # A float run overflows ``a`` to inf; the octagon bound a in [2, inf)
    # contains it, but inf - inf = nan once failed the membership test.
    @example(source="a = 1; b = 0; c = 0; k0 = 0; while (k0 < 2) {  "
                    "k1 = 0; while (k1 < 6) {  a = (a * (1 + a));  "
                    "k1 = k1 + 1; }  k0 = k0 + 1; }", seed=0)
    # Exact integers always take the branch: b < 1 + b.  In floats,
    # 1 + b == b once b passes about 1e19, so a float run skipped it and
    # kept its havoc'd a, outside the (correct) exit invariant a = 0.
    @example(source="a = 0; b = 0; c = 0; havoc(a); k0 = 0; while (k0 < 5) "
                    "{  b = (a + (b * b));  k0 = k0 + 1; } "
                    "if (b < (1 + b)) { a = 0; }", seed=0)
    def test_concrete_runs_inside_invariant(self, domain, source, seed):
        program = parse_program(source)
        proc = program.procedures[0]
        analyzer = Analyzer(domain=domain)
        result = analyzer.analyze(program)
        exit_state = result.procedures[0].invariant_at_exit()
        names = proc.variables
        runs = sample_runs(proc, tries=8, seed=seed, max_steps=5_000)
        for run in runs:
            # Uninitialised reads are materialised lazily; only check
            # runs where every analyzer variable got a value.
            if any(name not in run.env for name in names):
                continue
            point = run.point(names)
            assert exit_state.contains_point(point), (
                f"{domain} lost concrete state {dict(zip(names, point))}\n"
                f"program:\n{pretty(program)}")

    @FUZZ
    @given(source=programs(), seed=st.integers(0, 10_000))
    def test_verified_assertions_never_fail_concretely(self, domain, source,
                                                       seed):
        program = parse_program(source)
        proc = program.procedures[0]
        result = Analyzer(domain=domain).analyze(program)
        # The concrete interpreter reports failures by condition text,
        # which cannot distinguish two asserts with the same text at
        # different program points (e.g. one reachable, one in dead
        # code where ⊥ verifies anything).  Only texts whose *every*
        # occurrence was verified are a sound oracle.
        by_text = {}
        for c in result.checks:
            by_text.setdefault(c.cond_text, []).append(c.verified)
        verified = {text for text, flags in by_text.items() if all(flags)}
        if not verified:
            return
        for run in sample_runs(proc, tries=8, seed=seed, max_steps=5_000):
            for failed in run.assertion_failures:
                assert failed not in verified, (
                    f"{domain} verified '{failed}' but a concrete run "
                    f"violates it\nprogram:\n{pretty(program)}")
