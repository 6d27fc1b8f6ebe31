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
    # Loading this profile replaces hypothesis's own CI profile, which
    # would otherwise print the @reproduce_failure blob of a failure.
    print_blob=True,
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


@pytest.fixture
def kernel_runs(monkeypatch):
    """Spy on kernel execution: one ``(what, device)`` per call, in order.

    Covers ``Gemm.run`` and ``BeamformerPlan.execute``; each still runs as
    before. A device keeps no log of its launches, so this is how a test
    sees what ran where.
    """
    from repro.ccglib import gemm
    from repro.tcbf import plan

    runs = []

    def spy(owner, name, label):
        original = getattr(owner, name)

        def wrapper(first, *args, **kwargs):
            runs.append((label, getattr(first, "device", first)))
            return original(first, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(gemm.Gemm, "run", "Gemm.run")
    spy(plan.BeamformerPlan, "execute", "BeamformerPlan.execute")
    return runs


def random_complex(rng: np.random.Generator, shape: tuple[int, ...], scale: float = 1.0):
    """Unit-scale complex64 test data."""
    return ((rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale).astype(np.complex64)


def submit_and_drain(fleet, *batches):
    """Launch batches through ``FleetDispatcher.submit`` + ``drain``.

    Drains at the earliest formation time, then at each next accept instant
    while work is held (a batch waiting for a busy worker). Returns the
    executions in launch order.
    """
    for batch in batches:
        fleet.submit(batch)
    placed = fleet.drain(min(b.formed_s for b in batches))
    while fleet.has_queued():
        placed += fleet.drain(fleet.next_accept_s())
    return placed


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
