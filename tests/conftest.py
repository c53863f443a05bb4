import numpy as np
import pytest

from bmech import sysdsl
from bmech.cli import bundled_spec_path

# V = 50 x^2: two Trotter slices over T = 1 on a 64-point kernel_grid ring
# drift the watchdog probe's norm by 4.34 %, above the 1 % limit
STEEP_OSCILLATOR = ('{"name":"steep","dim":1,"lagrangian":"0.5*v1^2 - 50*x1^2",'
                    '"metric":[["1"]],"potential":"50*x1^2",'
                    '"parameters":{},"domain":[{"min":-3,"max":3}]}')


@pytest.fixture(scope="session")
def free_spec():
    return sysdsl.load(bundled_spec_path("free_particle"))


@pytest.fixture(scope="session")
def osc_spec():
    return sysdsl.load(bundled_spec_path("harmonic_oscillator"))


@pytest.fixture(scope="session")
def pendulum_spec():
    return sysdsl.load(bundled_spec_path("pendulum"))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def mehler_kernel(xf, xi, T, m=1.0, w=1.0):
    """Closed-form harmonic-oscillator propagator (oracle)."""
    s, c = np.sin(w * T), np.cos(w * T)
    pref = np.sqrt(m * w / (2j * np.pi * s))
    return pref * np.exp(1j * m * w * ((xf**2 + xi**2) * c - 2 * xf * xi) / (2 * s))


def free_kernel(xf, xi, T, m=1.0):
    """Closed-form free propagator (oracle)."""
    return np.sqrt(m / (2j * np.pi * T)) * np.exp(1j * m * (xf - xi) ** 2 / (2 * T))


def osc_action(xf, xi, T, m=1.0, w=1.0):
    """Closed-form oscillator boundary action (oracle)."""
    return m * w * ((xf**2 + xi**2) * np.cos(w * T) - 2 * xf * xi) / (2 * np.sin(w * T))
