"""Shared pytest configuration: hypothesis profile and slow-test marker."""

from hypothesis import HealthCheck, Phase, settings

# Exact arithmetic over wide windows is deliberately unhurried; a wall-clock
# deadline would make these tests flaky on loaded machines.  No shrink phase:
# shrinking a failing kernel case has no budget and turned a seconds-long
# failing run into minutes; the failing example is still printed and saved.
settings.register_profile(
    "endolift",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
settings.load_profile("endolift")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: grid cells that take more than a few seconds"
    )
