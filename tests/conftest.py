"""Shared test settings: every `hypothesis` test draws the same examples on
every run, with no deadline and no example database, so a tier-1 result
depends on the code alone."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
