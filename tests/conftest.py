"""Test-suite configuration: make shared helpers importable, and
register the hypothesis profiles."""

import os
import sys

from hypothesis import settings

#: A deeper random search than tier-1, for CI:
#: ``pytest tests/test_fuzz_soundness.py --hypothesis-profile=soundness-deep``
#: runs ten times the default profile's examples per test.
settings.register_profile("soundness-deep", max_examples=1000)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
