"""Failure injection: the library must fail loudly and precisely.

A downstream user integrating the TCBF into a real pipeline relies on the
error surface as much as on the happy path: capability violations, bad
shapes and degenerate data must all raise the documented exception types
rather than corrupt results, and a dry-run device must never pretend to
compute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccglib.gemm import Gemm, gemm_once
from repro.ccglib.packing import pack_sign_planar
from repro.ccglib.precision import Precision
from repro.ccglib.tuning import TuneParams
from repro.errors import (
    KernelConfigError,
    ShapeError,
    TunerError,
    UnsupportedPrecisionError,
)
from repro.gpusim.device import Device, ExecutionMode


class TestCapabilityFailures:
    def test_int1_on_every_amd_gpu(self):
        for gpu in ("W7700", "MI210", "MI300X", "MI300A"):
            with pytest.raises(UnsupportedPrecisionError):
                Gemm(Device(gpu), Precision.INT1, 1, 16, 16, 256)

    def test_multibuffer_on_amd_even_with_explicit_params(self):
        with pytest.raises(KernelConfigError):
            Gemm(
                Device("MI210"), Precision.FLOAT16, 1, 128, 128, 128,
                params=TuneParams(128, 64, 64, 32, 2),
            )

    def test_tuner_rejects_impossible_space(self):
        from repro.kerneltuner.space import SearchSpace
        from repro.kerneltuner.strategies import BruteForce

        space = SearchSpace(parameters={"x": [1]}, restrictions=[lambda c: False])
        with pytest.raises(TunerError):
            BruteForce().run(space, lambda c: 1.0)


class TestCapacityFailures:
    def test_functional_access_of_dry_buffer(self):
        # A dry-run device holds no data: a GEMM given host arrays there
        # returns a cost and no output.
        dev = Device("A100", ExecutionMode.DRY_RUN)
        a = np.ones((1, 16, 32), dtype=np.complex64)
        result = Gemm(dev, Precision.FLOAT16, 1, 16, 8, 32).run(a, np.ones((1, 32, 8), np.complex64))
        assert result.output is None
        assert result.cost.time_s > 0


class TestDegenerateData:
    def test_nan_signs_are_deterministic(self):
        # NaN >= 0 is False, so NaN quantizes to -1: degraded but defined.
        values = np.array([[np.nan, 1.0, -np.inf, np.inf]], dtype=np.float32)
        packed = pack_sign_planar(values, k_pad_to=32)
        from repro.ccglib.packing import unpack_sign_planar

        signs = unpack_sign_planar(packed, 4)
        assert signs.tolist() == [[-1, 1, -1, 1]]

    def test_zero_matrix_float16(self):
        dev = Device("A100")
        a = np.zeros((1, 8, 16), dtype=np.complex64)
        b = np.zeros((1, 16, 4), dtype=np.complex64)
        out = gemm_once(dev, Precision.FLOAT16, a, b).output
        assert np.all(out == 0)

    def test_zero_matrix_int1_is_all_ones_encoding(self):
        # Zero is unrepresentable in 1-bit: quantizes to +1 everywhere, so
        # the 'zero' product becomes K * (1+i)(1+i) = 2iK — documented
        # behaviour of the encoding, not silent corruption.
        dev = Device("A100")
        k = 64
        a = np.zeros((1, 2, k), dtype=np.complex64)
        b = np.zeros((1, k, 2), dtype=np.complex64)
        out = gemm_once(dev, Precision.INT1, a, b).output
        assert np.all(out == 2j * k)

    def test_dry_run_ignores_operands(self):
        # Documented: dry-run devices return cost only, operands unused.
        dev = Device("A100", ExecutionMode.DRY_RUN)
        plan = Gemm(dev, Precision.FLOAT16, 1, 8, 8, 16)
        result = plan.run(np.zeros((99,)), None)  # wrong shapes: ignored
        assert result.output is None
        assert result.cost.time_s > 0


class TestShapeSurface:
    @pytest.mark.parametrize(
        "m,n,k",
        [(0, 8, 8), (8, -1, 8), (8, 8, 0)],
    )
    def test_nonpositive_dims_rejected_at_plan_time(self, m, n, k):
        with pytest.raises(ShapeError):
            Gemm(Device("A100"), Precision.FLOAT16, 1, m, n, k)

    def test_batch_zero_rejected(self):
        with pytest.raises(ShapeError):
            Gemm(Device("A100"), Precision.FLOAT16, 0, 8, 8, 8)
