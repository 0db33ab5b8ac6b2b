import sys, pathlib
sys.path.insert(0, str(pathlib.Path(__file__).parent))

from hypothesis import settings

# Reproducible property tests: the same examples on every run, no timing flakes.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
