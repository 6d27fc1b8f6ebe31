"""Shared test configuration: hypothesis profile and common fixtures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.backend import ArrayBackend, NumpyBackend

# Single-core CI-style environment: keep property tests snappy but meaningful.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def a100_device():
    from repro.gpusim import Device

    return Device("A100")


@pytest.fixture
def gh200_device():
    from repro.gpusim import Device

    return Device("GH200")


@pytest.fixture
def mi300x_device():
    from repro.gpusim import Device

    return Device("MI300X")


def random_complex(rng: np.random.Generator, shape: tuple[int, ...], scale: float = 1.0):
    """Unit-scale complex64 test data."""
    return ((rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale).astype(np.complex64)


def random_pm1_complex(rng: np.random.Generator, shape: tuple[int, ...]):
    """Complex values with ±1 real and imaginary parts (1-bit representable)."""
    re = rng.choice([-1.0, 1.0], size=shape)
    im = rng.choice([-1.0, 1.0], size=shape)
    return (re + 1j * im).astype(np.complex64)


class _Namespace:
    """NumPy under another name, so kernels take their non-NumPy path."""

    def __getattr__(self, name):
        return getattr(np, name)


_NS = _Namespace()


class GenericNumpyBackend(NumpyBackend):
    """NumPy behind the protocol defaults: the paths JAX and CuPy run (the
    uint32 popcount word loop with the SWAR popcount, functional MMA
    accumulation) instead of the NumPy-only in-place ones."""

    name = "generic-numpy"
    xp = property(lambda self: _NS)
    popcount = ArrayBackend.popcount
