import pytest
from hypothesis import settings

from pinchsec import SystemConfig
from pinchsec.validation import reference_config as make_config

# every @given test draws the same examples on every run: a tier-1 failure
# reproduces, and a pass does not depend on which examples a run happened to draw
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def full_checks():
    """The full-level check suite at the CLI's default seed, run once per session."""
    from pinchsec.cli import DEFAULT_SEED
    from pinchsec.validation import run_checks

    return run_checks("full", DEFAULT_SEED)


@pytest.fixture
def cfg10() -> SystemConfig:
    return make_config()


@pytest.fixture
def cfg30() -> SystemConfig:
    return make_config(region_side=30.0, power_dbm=20.0)
