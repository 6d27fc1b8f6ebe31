"""Multi-stage buffer overlap factors."""

from __future__ import annotations

import pytest

from repro.ccglib.pipeline import overlap_factor
from repro.ccglib.precision import Precision
from repro.ccglib.tuning import TABLE_III
from repro.errors import KernelConfigError
from repro.gpusim.arch import Architecture, Vendor, capabilities
from repro.gpusim.specs import get_spec

NVIDIA = [a for a in Architecture if a.vendor is Vendor.NVIDIA]
AMD = [a for a in Architecture if a.vendor is Vendor.AMD]


class TestOverlapFactor:
    def test_two_buffers_beat_one_on_nvidia(self):
        caps = capabilities(Architecture.AMPERE)
        for precision in (Precision.FLOAT16, Precision.INT1):
            assert overlap_factor(caps, precision, 2) > overlap_factor(caps, precision, 1)

    def test_fp16_peaks_at_two_buffers(self):
        # Large fp16 stages: deeper pipelines stop paying off (Table III
        # tunes every float16 kernel to 2 buffers).
        caps = capabilities(Architecture.AMPERE)
        assert overlap_factor(caps, Precision.FLOAT16, 2) >= overlap_factor(
            caps, Precision.FLOAT16, 4
        )

    def test_int1_keeps_gaining(self):
        caps = capabilities(Architecture.AMPERE)
        assert overlap_factor(caps, Precision.INT1, 4) > overlap_factor(caps, Precision.INT1, 2)

    def test_amd_requires_single_buffer(self):
        caps = capabilities(Architecture.CDNA3)
        assert overlap_factor(caps, Precision.FLOAT16, 1) > 0
        with pytest.raises(KernelConfigError, match="fixed to 1"):
            overlap_factor(caps, Precision.FLOAT16, 2)

    def test_depth_clamped_beyond_table(self):
        caps = capabilities(Architecture.AMPERE)
        assert overlap_factor(caps, Precision.INT1, 9) == overlap_factor(caps, Precision.INT1, 4)

    def test_zero_buffers_invalid(self):
        caps = capabilities(Architecture.AMPERE)
        with pytest.raises(KernelConfigError):
            overlap_factor(caps, Precision.FLOAT16, 0)


    @pytest.mark.parametrize("arch", list(Architecture), ids=lambda a: a.value)
    def test_factor_is_a_fraction(self, arch):
        caps = capabilities(arch)
        depths = range(1, 5) if caps.async_copies else [1]
        for precision in (Precision.FLOAT16, Precision.TF32, Precision.INT1):
            for depth in depths:
                assert 0.0 < overlap_factor(caps, precision, depth) <= 1.0

    @pytest.mark.parametrize("arch", NVIDIA, ids=lambda a: a.value)
    def test_nvidia_overlap_is_the_same_on_every_generation(self, arch):
        # The buffer model depends on precision and depth only; the
        # architecture enters through its async-copy capability.
        for precision in (Precision.FLOAT16, Precision.INT1):
            for depth in range(1, 5):
                assert overlap_factor(capabilities(arch), precision, depth) == overlap_factor(
                    capabilities(Architecture.AMPERE), precision, depth
                )

    @pytest.mark.parametrize("arch", AMD, ids=lambda a: a.value)
    def test_amd_has_no_async_copies(self, arch):
        caps = capabilities(arch)
        assert not caps.async_copies
        with pytest.raises(KernelConfigError, match="fixed to 1"):
            overlap_factor(caps, Precision.FLOAT16, 2)

    @pytest.mark.parametrize("row", TABLE_III, ids=lambda r: f"{r.gpu}-{r.precision.value}")
    def test_table3_depth_is_valid_on_its_device(self, row):
        # Every shipped Table III default runs under the buffer model.
        caps = get_spec(row.gpu).caps
        assert overlap_factor(caps, row.precision, row.params.num_buffers) > 0.0
