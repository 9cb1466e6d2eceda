"""Closed-form octagonal assignments against the incremental reference.

``assign_var`` (``v := +-w + c`` with ``v != w``), ``assign_const`` and
``assign_interval`` write ``v``'s lines of the closed DBM directly.  The
reference is the path they replaced: forget ``v``, meet the assignment's
constraints and re-close incrementally (paper section 5.6), which is
what ``closed.forget(v).meet_constraints([...])`` still runs.  Results
must agree bit for bit -- matrix bytes, ``nni``, partition, flags --
over random closed octagons of every kind, under both decompose
policies, with ``v`` and ``w`` in one block, in two blocks or outside
the support.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sentinel
from repro.core import stats
from repro.core.bounds import INF
from repro.core.closure_incremental import swept_cells
from repro.core.constraints import OctConstraint
from repro.core.kinds import DEFAULT_POLICY, DbmKind, SwitchPolicy
from repro.core.octagon import Octagon
from repro.obs.metrics import prometheus_text

POLICIES = [DEFAULT_POLICY, SwitchPolicy(decompose=False)]

# Integers and dyadic fractions: exactly representable, as in programs.
consts = st.one_of(st.integers(-8, 8).map(float),
                   st.integers(-32, 32).map(lambda k: k / 4.0))


@st.composite
def closed_octagons(draw):
    """A closed, non-bottom octagon of a requested kind."""
    policy = draw(st.sampled_from(POLICIES))
    n = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["top", "decomposed", "dense"]))
    if kind == "top":
        return Octagon.top(n, policy=policy)
    if kind == "dense":
        groups = [list(range(n))]
    else:
        # Constraints confined to groups, some variables left out.
        used = draw(st.lists(st.integers(0, n - 1), min_size=1,
                             max_size=n - 1, unique=True))
        k = draw(st.integers(1, min(3, len(used))))
        groups = [used[i::k] for i in range(k)]
    cons = []
    for group in groups:
        for a, b in zip(group, group[1:]):  # connect the group
            cons.append(OctConstraint(a, draw(st.sampled_from([1, -1])), b,
                                      draw(st.sampled_from([1, -1])),
                                      draw(consts) + 8.0))
        for _ in range(draw(st.integers(0, 2 * len(group)))):
            a = draw(st.sampled_from(group))
            b = draw(st.sampled_from(group))
            c = draw(consts)
            shape = draw(st.integers(0, 2))
            if shape == 0:
                cons.append(OctConstraint.upper(a, c + 4.0))
            elif shape == 1:
                cons.append(OctConstraint.lower(a, c - 4.0))
            elif a != b:
                cons.append(OctConstraint(a, draw(st.sampled_from([1, -1])), b,
                                          draw(st.sampled_from([1, -1])),
                                          c + 8.0))
    closed = Octagon.from_constraints(n, cons, policy=policy).closure()
    if draw(st.booleans()):
        # Closed inputs also come out of joins and earlier assignments.
        closed = closed.join(closed.assign_const(draw(st.integers(0, n - 1)),
                                                 draw(consts)))
    if closed.is_bottom():
        return Octagon.top(n, policy=policy)
    return closed


def _pick_vars(draw, oct_):
    """``v`` and ``w`` in one block, in two blocks, or outside the support."""
    n = oct_.n
    part = oct_.partition
    outside = [u for u in range(n) if u not in part.support]
    where = draw(st.sampled_from(["same", "different", "outside", "any"]))
    blocks = [b for b in part.blocks if len(b) >= 2]
    if where == "same" and blocks:
        block = draw(st.sampled_from(blocks))
        v, w = draw(st.permutations(block))[:2]
    elif where == "different" and len(part.blocks) >= 2:
        b1, b2 = draw(st.permutations(part.blocks))[:2]
        v, w = draw(st.sampled_from(b1)), draw(st.sampled_from(b2))
    elif where == "outside" and outside:
        v = draw(st.sampled_from(outside))
        w = draw(st.sampled_from([u for u in range(n) if u != v]))
    else:
        v, w = draw(st.permutations(range(n)))[:2]
    if draw(st.booleans()):
        v, w = w, v
    return v, w


@st.composite
def assignments(draw, oct_):
    """One assignment as ``(name, args, kwargs, reference constraints)``."""
    v, w = _pick_vars(draw, oct_)
    shape = draw(st.sampled_from(["var", "const", "interval"]))
    if shape == "var":
        coeff = draw(st.sampled_from([1, -1]))
        c = draw(consts)
        return ("assign_var", (v, w), {"coeff": coeff, "offset": c},
                [OctConstraint(v, 1, w, -coeff, c),
                 OctConstraint(v, -1, w, coeff, -c)])
    c = draw(consts)
    if shape == "const":
        return ("assign_const", (v, c), {},
                [OctConstraint.upper(v, c), OctConstraint.lower(v, c)])
    lo, hi = draw(st.sampled_from([(c, c + 2.5), (c, c), (-INF, c), (c, INF)]))
    cons = []
    if hi != INF:
        cons.append(OctConstraint.upper(v, hi))
    if lo != -INF:
        cons.append(OctConstraint.lower(v, lo))
    return ("assign_interval", (v, lo, hi), {}, cons)


def assert_identical(got: Octagon, ref: Octagon) -> None:
    assert got.mat.tobytes() == ref.mat.tobytes()
    assert got.nni == ref.nni
    assert got.partition.canonical() == ref.partition.canonical()
    assert got.closed == ref.closed
    assert got._bottom == ref._bottom


def run_and_compare(state: Octagon, step) -> Octagon:
    name, args, kwargs, cons = step
    closed = state.closure()
    with stats.collecting() as fast_col:
        got = getattr(state, name)(*args, **kwargs)
    with stats.collecting() as ref_col:
        ref = closed.forget(args[0]).meet_constraints(cons)
    assert_identical(got, ref)
    fast, slow = fast_col.counter_summary(), ref_col.counter_summary()
    assert fast["assign_closed_form"] == 1
    assert slow["assign_closed_form"] == 0
    # The closed form charges the two row/column pairs it writes; the
    # reference pays the incremental closure's whole sweep.
    assert fast["closure_cells"] == 8 * state.n
    assert slow["closure_cells"] == swept_cells(2 * state.n)
    # No closure kernel runs; the reference re-closes incrementally once.
    assert fast_col.closure_stats()["incremental"] == 0
    assert ref_col.closure_stats()["incremental"] == 1
    return got


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_closed_form_matches_incremental_reference(data):
    state = data.draw(closed_octagons())
    # A short chain: each result is the next closed input.
    for _ in range(data.draw(st.integers(1, 3))):
        state = run_and_compare(state, data.draw(assignments(state)))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_closed_form_under_paranoid_sentinel(data):
    previous = sentinel.set_paranoid(True)
    try:
        state = data.draw(closed_octagons())
        with stats.collecting() as col:
            run_and_compare(state, data.draw(assignments(state)))
        summary = col.counter_summary()
        assert summary["paranoid_checks"] > 0
        assert summary["integrity_failures"] == 0
    finally:
        sentinel.set_paranoid(previous)


def test_unclosed_input_is_closed_first():
    oct_ = Octagon.from_constraints(3, [OctConstraint.diff(0, 1, 2.0),
                                       OctConstraint.diff(1, 2, 3.0)])
    assert not oct_.closed
    got = oct_.assign_var(2, 0, offset=1.0)
    ref = oct_.closure().forget(2).meet_constraints(
        [OctConstraint(2, 1, 0, -1, 1.0), OctConstraint(2, -1, 0, 1, -1.0)])
    assert_identical(got, ref)
    assert got.closed and got.kind != DbmKind.TOP


def test_bottom_and_unbounded_inputs():
    bottom = Octagon.bottom(2)
    assert bottom.assign_var(0, 1, offset=1.0).is_bottom()
    assert bottom.assign_const(0, 1.0).is_bottom()
    top = Octagon.top(2)
    assert top.assign_interval(0, 2.0, 1.0).is_bottom()
    with stats.collecting() as col:
        havoc = top.assign_interval(0, -INF, INF)  # a plain forget
    assert havoc.bounds(0) == (-INF, INF)
    assert col.counter_summary()["assign_closed_form"] == 0


PROGRAM = "x = [0, 4]; y = x + 1; z = 3; assert(y <= 5);"


def test_counter_reaches_job_result_json_and_prometheus():
    from repro.core.serialize import job_result_to_dict
    from repro.service.job import AnalysisJob, execute_job

    result = execute_job(AnalysisJob(source=PROGRAM, label="p",
                                     domain="octagon"))
    assert result.outcome == "ok"
    # x := [0, 4], y := x + 1 and z := 3.
    assert result.counters["assign_closed_form"] >= 3
    assert job_result_to_dict(result)["counters"]["assign_closed_form"] \
        == result.counters["assign_closed_form"]
    text = prometheus_text(result.counters)
    match = re.search(r"^repro_assign_closed_form_total (\d+)$", text, re.M)
    assert match and int(match.group(1)) == result.counters["assign_closed_form"]


@pytest.mark.parametrize("domain", ["interval", "zone", "apron"])
def test_other_domains_do_not_count(domain):
    from repro.service.job import AnalysisJob, execute_job

    result = execute_job(AnalysisJob(source=PROGRAM, label="p", domain=domain))
    assert result.counters["assign_closed_form"] == 0
