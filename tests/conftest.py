import pytest

from pinchsec import SystemConfig, dbm_to_watts


def make_config(
    region_side: float = 10.0,
    power_dbm: float = 30.0,
    rate: float = 0.1,
    height: float = 3.0,
    freq_ghz: float = 28.0,
    noise_dbm: float = -80.0,
) -> SystemConfig:
    return SystemConfig(
        region_side=region_side,
        height=height,
        carrier_freq=freq_ghz * 1e9,
        transmit_power=dbm_to_watts(power_dbm),
        noise_power=dbm_to_watts(noise_dbm),
        target_rate=rate,
    )


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
