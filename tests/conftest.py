"""Shared test settings: one derandomized hypothesis profile, so every run of
the property-based tests draws the same examples."""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "pclean",
    derandomize=True,
    deadline=None,
    database=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pclean")
