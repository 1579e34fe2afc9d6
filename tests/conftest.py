import os
import sys
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# make the frozen oracle module importable regardless of invocation dir
sys.path.insert(0, os.path.dirname(__file__))

# every run draws the same examples and stores none of them; what hypothesis
# still caches (the constants it reads from the source) goes to a directory
# removed when the run ends, so no .hypothesis/ is written
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)


def pytest_unconfigure(config):
    _STORAGE.cleanup()
