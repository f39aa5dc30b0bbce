import math

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


def cdf_offset_sq_full_correction(t: np.ndarray, d: float) -> np.ndarray:
    """The offset CDF kernel, frozen: every branch's numpy ops on every call,
    with the third-panel correction on every t above D^2/4.

    The correction is exactly +0.0 up to D^2. ``distributions._cdf_offset_sq``,
    which skips a branch that owns no input and adds the correction only
    above D^2, must give the same bits as this form.
    """
    d2 = d * d
    a = 0.25 * d2
    b = d2
    out = np.zeros_like(t, dtype=np.float64)

    m1 = (t > 0.0) & (t <= a)
    t1 = t[m1]
    out[m1] = math.pi * t1 / d2 - (4.0 / 3.0) * t1**1.5 / (d2 * d)

    m2 = (t > a) & (t < 1.25 * d2)
    t2 = t[m2]
    root2 = np.sqrt(t2 - a)
    g2 = (2.0 / d2) * (t2 * np.arctan2(0.5 * d, root2) + 0.5 * d * root2) - t2 / d2
    rad = np.maximum(t2 - b, 0.0)
    x3 = (
        -(2.0 / d2) * (t2 * np.arctan2(np.sqrt(rad), d) - d * np.sqrt(rad))
        + (4.0 / (3.0 * d2 * d)) * rad**1.5
    )
    out[m2] = g2 + x3 + 1.0 / 12.0

    out[t >= 1.25 * d2] = 1.0
    return out
