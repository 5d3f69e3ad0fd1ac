"""Shared test settings.

Property tests run under one derandomized hypothesis profile: the examples
are fixed by the test function, so tier-1 is deterministic, and no example
database is written.  Each property test sets its own deadline.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, print_blob=False)
settings.load_profile("tier1")
