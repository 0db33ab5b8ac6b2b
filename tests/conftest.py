import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))

import pytest
from hypothesis import settings

# Reproducible property tests: the same examples on every run, no timing flakes.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _forget_last_solve():
    """Each test starts with no batch remembered by gpiodac.network._solve, so none is served
    a solve an earlier test left there. A test that has not loaded the network loads no numpy."""
    network = sys.modules.get("gpiodac.network")
    if network is not None:
        network._last = None
