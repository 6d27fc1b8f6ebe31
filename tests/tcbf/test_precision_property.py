"""Property: int1 and float16 TCBF outputs agree on random problems.

The paper's 1-bit mode keeps only the sign of the operands, so absolute
values differ from the float16 reconstruction — but the two outputs must
stay strongly correlated and mostly sign-consistent (that is why power
Doppler survives 1-bit quantization, §V-A). Verified property-based over
random beamforming shapes and data.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccglib.precision import Precision
from repro.gpusim.device import Device
from repro.tcbf import BeamformerPlan


@st.composite
def beamform_problems(draw):
    # Enough output elements (m*n >= 64) and summation depth (k >= 128) for
    # the correlation estimate itself to be stable.
    m = draw(st.integers(min_value=8, max_value=16))
    k = draw(st.integers(min_value=128, max_value=256))
    n = draw(st.integers(min_value=8, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return m, k, n, seed


@given(beamform_problems())
@settings(max_examples=15, deadline=None)
def test_int1_tracks_float16_in_sign_and_correlation(problem):
    m, k, n, seed = problem
    rng = np.random.default_rng(seed)
    weights = (rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))).astype(np.complex64)
    data = (rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))).astype(np.complex64)

    def run(precision):
        plan = BeamformerPlan(
            Device("A100"),
            n_beams=m,
            n_receivers=k,
            n_samples=n,
            precision=precision,
            include_transpose=False,
        )
        return plan.execute(weights, data).output.ravel()

    int1 = run(Precision.INT1)
    f16 = run(Precision.FLOAT16)

    for component in (np.real, np.imag):
        a, b = component(int1), component(f16)
        assert np.corrcoef(a, b)[0, 1] > 0.3
        assert np.mean(np.sign(a) == np.sign(b)) > 0.5
