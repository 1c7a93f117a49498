from __future__ import annotations

import os

import pytest
from hypothesis import settings

from helpers import quick_train

# HYPOTHESIS_PROFILE=ci makes every property test draw the same examples on
# every run, and drops the per-example deadline that a slow runner trips.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def dwac_run():
    """One small trained dwac model shared by read-only tests."""
    return quick_train("dwac")


@pytest.fixture(scope="session")
def softmax_run():
    return quick_train("softmax")
