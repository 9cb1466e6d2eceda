"""Tests for the paranoid DBM integrity sentinel."""

import numpy as np
import pytest

from repro.analysis.analyzer import Analyzer
from repro.core import stats
from repro.core.constraints import OctConstraint
from repro.core.octagon import Octagon
from repro.core.partition import Partition
from repro.core.sentinel import (
    check,
    paranoid_enabled,
    set_paranoid,
    validate_octagon,
)
from repro.errors import IntegrityError
from repro.testing import faults

LOOP_SOURCE = """
proc count {
  x = 0;
  y = 3;
  while (x < 10) { x = x + 1; y = y + 2; }
  assert (x >= 10);
}
"""


@pytest.fixture
def paranoid():
    previous = set_paranoid(True)
    yield
    set_paranoid(previous)


def _chain() -> Octagon:
    """A closed octagon whose closure derived a transitive bound."""
    return (Octagon.top(3)
            .meet_constraint(OctConstraint.diff(0, 1, 1.0))
            .meet_constraint(OctConstraint.diff(1, 2, 1.0)))


class TestToggle:
    def test_set_paranoid_returns_previous(self):
        previous = set_paranoid(True)
        try:
            assert paranoid_enabled()
            assert set_paranoid(False) is True
            assert not paranoid_enabled()
        finally:
            set_paranoid(previous)

    def test_check_is_noop_when_disabled(self):
        previous = set_paranoid(False)
        try:
            broken = _chain()
            faults.corrupt_octagon(broken)
            check(broken)  # must not raise: sentinel is off
        finally:
            set_paranoid(previous)


class TestValidOctagons:
    def test_lattice_ops_pass_paranoid(self, paranoid):
        a = _chain()
        b = Octagon.top(3).meet_constraint(OctConstraint.upper(0, 5.0))
        for result in (a.meet(b), a.join(b), a.widening(b), a.narrowing(b),
                       a.forget(1), a.closure()):
            validate_octagon(result)

    def test_whole_analysis_passes_paranoid(self, paranoid):
        result = Analyzer().analyze(LOOP_SOURCE)
        assert result.all_verified

    def test_paranoid_checks_counted(self, paranoid):
        with stats.collecting() as collector:
            _chain().closure()
        assert collector.merged_counters()["paranoid_checks"] >= 1


class TestCorruptionDetection:
    def test_coherence_break_caught(self):
        broken = _chain()
        faults.corrupt_octagon(broken)
        with pytest.raises(IntegrityError) as exc_info:
            validate_octagon(broken)
        assert exc_info.value.check == "coherence"

    def test_nni_drift_caught(self):
        broken = _chain()
        broken.nni += 1
        with pytest.raises(IntegrityError) as exc_info:
            validate_octagon(broken)
        assert exc_info.value.check == "nni"

    def test_dirty_diagonal_caught(self):
        broken = _chain()
        broken._cow.arr[2, 2] = -1.0
        with pytest.raises(IntegrityError) as exc_info:
            validate_octagon(broken)
        assert exc_info.value.check == "diagonal"

    def test_false_closed_claim_caught(self):
        oct_ = _chain()
        assert oct_.closed
        m = oct_._cow.arr
        # Loosen the transitively derived x0 - x2 <= 2 bound (keeping
        # coherence and nni intact): the path through x1 now tightens
        # it, so the "closed" claim is a lie.
        locs = np.argwhere(m == 2.0)
        assert len(locs) > 0
        i, j = map(int, locs[0])
        m[i, j] = 50.0
        m[j ^ 1, i ^ 1] = 50.0
        with pytest.raises(IntegrityError) as exc_info:
            validate_octagon(oct_)
        assert exc_info.value.check == "closed"

    def test_unary_bounds_in_two_blocks_caught(self):
        # x0 <= 1 and x1 <= 1 with no strengthened x0 + x1 cell, so the
        # exact partition is {x0}, {x1}; claiming "closed" breaks the
        # one-block invariant of closed octagons' unary variables.
        m = np.full((4, 4), np.inf)
        np.fill_diagonal(m, 0.0)
        m[1, 0] = m[3, 2] = 2.0
        oct_ = Octagon(2, m, Partition(2, [[0], [1]]), 6, closed=True)
        with pytest.raises(IntegrityError) as exc_info:
            validate_octagon(oct_)
        assert exc_info.value.check == "unary-block"
        oct_.partition = Partition.single_block(2)
        with pytest.raises(IntegrityError) as exc_info:
            validate_octagon(oct_)
        assert exc_info.value.check == "strengthen"

    def test_integrity_error_names_invariant(self):
        broken = _chain()
        faults.corrupt_octagon(broken)
        with pytest.raises(IntegrityError, match="coherence"):
            validate_octagon(broken)


class TestFaultPoint:
    def test_dbm_corrupt_fault_caught_by_sentinel(self, paranoid):
        a = Octagon.top(2).meet_constraint(OctConstraint.diff(0, 1, 1.0))
        b = Octagon.top(2).meet_constraint(OctConstraint.diff(0, 1, 4.0))
        widened = a.widening(b)  # not closed: forces a full closure
        with faults.injected("dbm_corrupt"):
            with pytest.raises(IntegrityError):
                widened.closure()

    def test_dbm_corrupt_disarmed_is_clean(self, paranoid):
        a = Octagon.top(2).meet_constraint(OctConstraint.diff(0, 1, 1.0))
        b = Octagon.top(2).meet_constraint(OctConstraint.diff(0, 1, 4.0))
        validate_octagon(a.widening(b).closure())
