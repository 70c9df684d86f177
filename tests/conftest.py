"""Shared test configuration.

Property tests draw the same examples on every run: a failure seen once
can be replayed, and a passing suite stays passing without code changes.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
