"""``benchmarks/ab.py``'s verdict: the one noise rule the A/B script
and the paired timing gates (``benchmarks/bench_gates.py``) judge by.

Ten lower-is-better samples a side; ``bound`` is 10% throughout.
"""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "ab.py")
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

TIGHT = [100.0, 100.5, 101.0, 99.5, 100.0, 100.5, 99.0, 100.0, 101.0, 99.5]
#: Median 118, interquartile range 22: a spread of 19% of the median.
WIDE = [100.0 + 4 * i for i in range(10)]
NONE_FAILED = {"base": 0, "change": 0}


def judge(base, change, failed=NONE_FAILED, bound=0.1):
    wins = sum(c < b for b, c in zip(base, change))
    return ab.verdict(base, change, wins, True, bound, failed)


@pytest.mark.parametrize("base, change, failed, expected", [
    # Wins every pair and beats the base median by more than its IQR.
    (TIGHT, [x - 5 for x in TIGHT], NONE_FAILED, "gain"),
    # The median is 20% slower against a 10% bound.
    (TIGHT, [x * 1.2 for x in TIGHT], NONE_FAILED, "worse"),
    # The base IQR exceeds the bound, and some change run is slower
    # than the fastest base run.
    (WIDE, [x - 1 for x in WIDE], NONE_FAILED, "unresolved"),
    # Faster everywhere, but the change answered fewer jobs.
    (TIGHT, [x - 5 for x in TIGHT], {"base": 0, "change": 1},
     "unresolved"),
    # Spread as wide, but every change run beats every base run; the
    # gap of medians (20) is short of the base IQR (22), so no gain.
    (WIDE, [96.0 + 0.4 * i for i in range(10)], NONE_FAILED, "no worse"),
    # Same medians, tight spreads.
    (TIGHT, list(reversed(TIGHT)), NONE_FAILED, "no worse"),
], ids=["gain", "worse", "unresolved-spread", "unresolved-failed",
        "all-runs-better", "no-worse"])
def test_verdict(base, change, failed, expected):
    assert judge(base, change, failed) == expected


def test_worse_outranks_failed_answers():
    """A regression past the bound is ``worse`` whatever else holds."""
    assert judge(TIGHT, [x * 1.2 for x in TIGHT],
                 {"base": 0, "change": 3}) == "worse"


def test_higher_is_better_metrics_flip_the_sign():
    higher = [x + 5 for x in TIGHT]
    wins = sum(c > b for b, c in zip(TIGHT, higher))
    assert ab.verdict(TIGHT, higher, wins, False, 0.1, NONE_FAILED) == "gain"
    assert ab.verdict(higher, TIGHT, 0, False, 0.1, NONE_FAILED) == "no worse"
