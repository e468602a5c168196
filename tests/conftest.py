"""Suite-wide hypothesis settings: every @given test is deterministic."""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None
)
settings.load_profile("deterministic")
