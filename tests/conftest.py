"""Shared pytest configuration: hypothesis profile and slow-test marker."""

from hypothesis import HealthCheck, settings

# Exact arithmetic over wide windows is deliberately unhurried; a wall-clock
# deadline would make these tests flaky on loaded machines.
settings.register_profile(
    "endolift",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("endolift")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: grid cells that take more than a few seconds"
    )
