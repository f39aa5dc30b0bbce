import numpy as np
import pytest
from hypothesis import settings

from pinchsec import SystemConfig
from pinchsec.system import reference_config as make_config

# every @given test draws the same examples on every run: a tier-1 failure
# reproduces, and a pass does not depend on which examples a run happened to draw
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def full_checks():
    """The check suite at the CLI's default seed, run once per session."""
    from pinchsec.cli import DEFAULT_SEED
    from pinchsec.validation import run_checks

    return run_checks(seed=DEFAULT_SEED)


@pytest.fixture
def cfg10() -> SystemConfig:
    return make_config()


@pytest.fixture
def cfg30() -> SystemConfig:
    return make_config(region_side=30.0, power_dbm=20.0)


def box_configs(count: int, seed: int) -> list:
    """Seeded configurations over D 0.1-1000 m, h/D 1e-5 to 10, -60 to 120 dBm, rate 0-30."""
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        d = 10.0 ** rng.uniform(-1.0, 3.0)
        configs.append(
            make_config(
                region_side=d,
                height=d * 10.0 ** rng.uniform(-5.0, 1.0),
                power_dbm=rng.uniform(-60.0, 120.0),
                rate=rng.uniform(0.0, 30.0) if rng.random() < 0.5 else rng.uniform(0.0, 2.0),
            )
        )
    return configs
