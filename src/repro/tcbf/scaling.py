"""Operand normalization for the tensor-core data path.

float16 inputs must stay inside half range and 1-bit inputs are scale-free,
so the beamformer normalizes the streaming operand to unit RMS before the
GEMM and (optionally) restores the scale afterwards. The correct statistic
is the root-mean-square of the complex magnitudes,

    rms(x) = sqrt(mean(|x|^2)),

*not* ``np.abs(x).std()`` (the standard deviation of the magnitudes): for a
nonzero-mean signal the std under-estimates the energy and the operand would
be mis-scaled. Both applications previously hand-rolled the std variant;
this module is the single corrected implementation. The reduction runs in
the operand's own :class:`~repro.backend.ArrayBackend` (no host round-trip
of the block); only the final scalar crosses back to Python.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, get_backend


def rms(values, backend: ArrayBackend | None = None) -> float:
    """Root-mean-square magnitude ``sqrt(mean(|x|^2))`` of a complex array.

    Returns 1.0 for an all-zero (or empty) input so callers can divide by it
    unconditionally.
    """
    be = get_backend(backend)
    xp = be.xp
    values = be.asarray(values)
    if values.size == 0:
        return 1.0
    return float(np.asarray(be.to_numpy(xp.sqrt(xp.mean(xp.abs(values) ** 2))))) or 1.0

