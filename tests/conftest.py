"""Shared test settings.

Property tests run under a derandomized hypothesis profile: every run
draws the same examples, so the suite gives the same verdict run to run.
"""

from hypothesis import settings

settings.register_profile("qschur", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("qschur")
