"""Test configuration: make tests/ importable for shared helpers, and
register the hypothesis profiles.

``tier1`` (the default) is derandomized with no deadline: the same
examples on every run and every host, so a property test cannot flake
on a slow machine. ``pytest --hypothesis-profile=fuzz`` draws fresh
examples instead and prints the blob that reproduces a failure.
"""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("fuzz", print_blob=True)
settings.load_profile("tier1")
