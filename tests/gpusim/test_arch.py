"""Architecture capability tables (paper Table I structure)."""

from __future__ import annotations

import pytest

from repro.errors import UnsupportedFragmentError, UnsupportedPrecisionError
from repro.gpusim.arch import (
    Architecture,
    BitOp,
    FRAG_FLOAT16_16x16x16,
    FRAG_INT1_16x8x256,
    FRAG_INT1_8x8x128,
    FragmentShape,
    Vendor,
    capabilities,
)

NVIDIA_ARCHS = [Architecture.ADA, Architecture.AMPERE, Architecture.HOPPER]
AMD_ARCHS = [Architecture.RDNA3, Architecture.CDNA2, Architecture.CDNA3]


class TestVendors:
    @pytest.mark.parametrize("arch", NVIDIA_ARCHS)
    def test_nvidia(self, arch):
        assert arch.vendor is Vendor.NVIDIA

    @pytest.mark.parametrize("arch", AMD_ARCHS)
    def test_amd(self, arch):
        assert arch.vendor is Vendor.AMD


class TestFragmentShape:
    def test_str(self):
        assert str(FRAG_FLOAT16_16x16x16) == "16x16x16"

    def test_int1_str(self):
        assert str(FRAG_INT1_16x8x256) == "16x8x256"


class TestPrecisionSupport:
    @pytest.mark.parametrize("arch", NVIDIA_ARCHS)
    def test_nvidia_has_int1(self, arch):
        assert capabilities(arch).supports_precision("int1")

    @pytest.mark.parametrize("arch", AMD_ARCHS)
    def test_amd_lacks_int1(self, arch):
        caps = capabilities(arch)
        assert not caps.supports_precision("int1")
        with pytest.raises(UnsupportedPrecisionError, match="NVIDIA-only"):
            caps.require_precision("int1")

    @pytest.mark.parametrize("arch", NVIDIA_ARCHS + AMD_ARCHS)
    def test_everyone_has_float16(self, arch):
        capabilities(arch).require_precision("float16")

    def test_unknown_fragment_rejected(self):
        caps = capabilities(Architecture.AMPERE)
        with pytest.raises(UnsupportedFragmentError):
            caps.require_fragment("float16", FragmentShape(8, 8, 4))


class TestRateFactors:
    """The Table I structural ratios."""

    def test_small_fragment_half_rate_on_ampere(self):
        caps = capabilities(Architecture.AMPERE)
        small = caps.rate_factor("int1", FRAG_INT1_8x8x128, BitOp.XOR)
        big = caps.rate_factor("int1", FRAG_INT1_16x8x256, BitOp.XOR)
        assert small == pytest.approx(0.5, rel=0.05)
        assert big == 1.0

    def test_small_fragment_full_rate_on_ada(self):
        caps = capabilities(Architecture.ADA)
        assert caps.rate_factor("int1", FRAG_INT1_8x8x128, BitOp.XOR) > 0.95

    def test_xor_emulated_on_hopper(self):
        caps = capabilities(Architecture.HOPPER)
        xor = caps.rate_factor("int1", FRAG_INT1_16x8x256, BitOp.XOR)
        and_ = caps.rate_factor("int1", FRAG_INT1_16x8x256, BitOp.AND)
        # Paper: XOR up to ~5x slower than AND on Hopper.
        assert 3.5 < and_ / xor < 5.5

    def test_xor_full_rate_pre_hopper(self):
        for arch in (Architecture.ADA, Architecture.AMPERE):
            caps = capabilities(arch)
            assert caps.rate_factor("int1", FRAG_INT1_16x8x256, BitOp.XOR) == 1.0

    def test_int1_requires_bit_op(self):
        caps = capabilities(Architecture.AMPERE)
        with pytest.raises(UnsupportedPrecisionError):
            caps.rate_factor("int1", FRAG_INT1_16x8x256, None)

    def test_wmma_factor_hopper(self):
        # Paper: WMMA limits Hopper to 60-65% of maximum.
        assert capabilities(Architecture.HOPPER).wmma_interface_factor == pytest.approx(0.65)
        assert capabilities(Architecture.AMPERE).wmma_interface_factor == 1.0


class TestPreferredBitOp:
    def test_hopper_prefers_and(self):
        assert capabilities(Architecture.HOPPER).preferred_bit_op is BitOp.AND

    @pytest.mark.parametrize("arch", [Architecture.ADA, Architecture.AMPERE])
    def test_pre_hopper_prefers_xor(self, arch):
        assert capabilities(arch).preferred_bit_op is BitOp.XOR

    @pytest.mark.parametrize("arch", AMD_ARCHS)
    def test_amd_has_none(self, arch):
        assert capabilities(arch).preferred_bit_op is None


class TestAsyncCopies:
    @pytest.mark.parametrize("arch", NVIDIA_ARCHS)
    def test_nvidia_has_async(self, arch):
        assert capabilities(arch).async_copies

    @pytest.mark.parametrize("arch", AMD_ARCHS)
    def test_amd_lacks_async(self, arch):
        assert not capabilities(arch).async_copies


class TestWarpSizes:
    @pytest.mark.parametrize("arch", NVIDIA_ARCHS)
    def test_nvidia_32(self, arch):
        assert capabilities(arch).warp_size == 32

    @pytest.mark.parametrize("arch", AMD_ARCHS)
    def test_amd_64(self, arch):
        assert capabilities(arch).warp_size == 64
