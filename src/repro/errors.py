"""Exception hierarchy for the TCBF reproduction library.

All library errors derive from :class:`ReproError` so callers can catch one
base type. Specific subclasses mirror the failure domains of the real ccglib
stack: device capability mismatches, invalid kernel configurations, shape and
layout violations, and tuner failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class DeviceError(ReproError):
    """A simulated device was asked to do something it cannot do."""


class UnsupportedPrecisionError(DeviceError):
    """The device does not support the requested input precision.

    Mirrors ccglib's behaviour when e.g. 1-bit matrix values are requested on
    an AMD GPU (the paper notes int1 is NVIDIA-only).
    """


class UnsupportedFragmentError(DeviceError):
    """The device does not support the requested WMMA fragment layout."""


class UnknownWorkerError(DeviceError):
    """No worker of the serving fleet has the requested index.

    The worker crashed or retired (indices are never reused), or never
    joined: a fault plan may name a worker that is already gone.
    """


class KernelConfigError(ReproError):
    """A kernel tuning configuration violates a hardware or shape restriction.

    Raised for example when the requested tile sizes do not divide evenly,
    the shared-memory footprint exceeds the device's capacity, or the
    register budget is blown. The auto-tuner treats these as invalid points
    in the search space rather than hard failures.
    """


class ShapeError(ReproError):
    """Matrix shapes or layouts passed to the library are inconsistent."""


class BackendError(ReproError):
    """An array-execution backend is unknown, unavailable, or non-conformant.

    Raised by :func:`repro.backend.get_backend` for names that are not
    registered or whose import-time probe failed (e.g. CuPy without a GPU),
    and by the conformance checker for backends that violate the
    :class:`~repro.backend.ArrayBackend` protocol.
    """


class TunerError(ReproError):
    """The auto-tuner could not produce a valid result."""


class PowerError(ReproError):
    """The power model has no coefficient for the requested precision."""
