"""Operation counts of the scalar dense closure (Algorithm 3)."""

from repro.core.closure_apron import apron_closure_op_count, closure_apron
from repro.core.closure_dense import closure_dense_scalar, dense_closure_op_count
from repro.core.halfmat import HalfMat
from repro.core.stats import OpCounter


class TestOpCounts:
    def test_counts_match_formulas_exactly(self):
        for n in (1, 2, 3, 5, 9, 12):
            counter = OpCounter()
            closure_apron(HalfMat(n), counter)
            assert counter.mins == apron_closure_op_count(n)
            counter = OpCounter()
            closure_dense_scalar(HalfMat(n), counter)
            assert counter.mins == dense_closure_op_count(n)

    def test_halving_claim(self):
        """The paper's headline: Algorithm 3 halves Algorithm 2's ops."""
        n = 64
        ratio = dense_closure_op_count(n) / apron_closure_op_count(n)
        assert abs(ratio - 0.5) < 0.01

    def test_counts_are_input_independent(self):
        """The scalar closures evaluate every candidate regardless of
        values (no data-dependent shortcuts)."""
        n = 4
        top = HalfMat(n)
        c1 = OpCounter()
        closure_dense_scalar(top, c1)
        busy = HalfMat(n)
        for i in range(2 * n):
            for j in range((i | 1) + 1):
                if i != j:
                    busy.set(i, j, float(i + j))
        c2 = OpCounter()
        closure_dense_scalar(busy, c2)
        assert c1.mins == c2.mins

