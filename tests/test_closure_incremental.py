"""Property tests: incremental closure equals full closure on
almost-closed inputs (both the NumPy and the scalar half-matrix
variants)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dbm_strategies import coherent_dbms
from repro.core.apron_octagon import _incremental_closure_half
from repro.core.closure_incremental import incremental_closure
from repro.core.closure_reference import closure_full_scalar
from repro.core.constraints import OctConstraint, dbm_cells
from repro.core.densemat import is_coherent, matrices_equal
from repro.core.halfmat import HalfMat


@st.composite
def almost_closed_dbms(draw):
    """A closed DBM with fresh constraints meeted on one variable."""
    m = draw(coherent_dbms(min_n=2, max_n=6))
    if closure_full_scalar(m):
        return None
    n = m.shape[0] // 2
    v = draw(st.integers(0, n - 1))
    k = draw(st.integers(1, 3))
    for _ in range(k):
        w = draw(st.integers(0, n - 1))
        c = float(draw(st.integers(-6, 12)))
        if w == v:
            cons = (OctConstraint.upper(v, c) if draw(st.booleans())
                    else OctConstraint.lower(v, c))
        else:
            a = draw(st.sampled_from([-1, 1]))
            b = draw(st.sampled_from([-1, 1]))
            cons = OctConstraint(v, a, w, b, c)
        for r, s, cc in dbm_cells(cons):
            m[r, s] = min(m[r, s], cc)
            m[s ^ 1, r ^ 1] = m[r, s]
    return m, v


@settings(max_examples=120, deadline=None)
@given(almost_closed_dbms())
def test_incremental_equals_full(case):
    if case is None:
        return
    m, v = case
    ref = m.copy()
    empty_ref = closure_full_scalar(ref)
    inc = m.copy()
    assert incremental_closure(inc, v) == empty_ref
    if not empty_ref:
        assert matrices_equal(ref, inc, tol=1e-9)
        assert is_coherent(inc)


@settings(max_examples=80, deadline=None)
@given(almost_closed_dbms())
def test_scalar_incremental_equals_full(case):
    if case is None:
        return
    m, v = case
    ref = m.copy()
    empty_ref = closure_full_scalar(ref)
    half = HalfMat.from_full(m)
    assert _incremental_closure_half(half, v) == empty_ref
    if not empty_ref:
        assert matrices_equal(ref, half.to_full(), tol=1e-9)


def test_incremental_rejects_bad_variable():
    import pytest
    from repro.core.densemat import new_top
    with pytest.raises(IndexError):
        incremental_closure(new_top(2), 5)


def test_incremental_on_already_closed_is_identity():
    from repro.core.densemat import new_top
    m = new_top(3)
    for r, s, c in dbm_cells(OctConstraint.diff(0, 1, 4.0)):
        m[r, s] = c
        m[s ^ 1, r ^ 1] = c
    assert not closure_full_scalar(m)
    out = m.copy()
    assert not incremental_closure(out, 2)
    assert matrices_equal(m, out, tol=1e-9)


def test_incremental_close_charges_swept_cells():
    """A constraint meet on a closed octagon re-closes incrementally and
    charges the cells the kernel sweeps: five passes over the 2n x 2n
    matrix, 180 cells at n = 3."""
    from repro.core import stats
    from repro.core.closure_incremental import swept_cells
    from repro.core.octagon import Octagon

    state = Octagon.from_box([(0.0, 5.0), (1.0, 2.0), (-1.0, 1.0)]).closure()
    assert state.closed
    with stats.collecting() as col:
        state.meet_constraint(OctConstraint.upper(0, 3.0))
    assert col.closure_stats()["incremental"] == 1
    assert col.counter_summary()["closure_cells"] == swept_cells(6) == 180
