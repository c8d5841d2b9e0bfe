"""Test-suite settings: hypothesis draws the same cases on every run.

The profile is derandomized (examples come from a fixed seed derived from
each test) with a fixed example count and no example database, so the suite
is reproducible and its run time bounded.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("deterministic")
