"""Device catalog integrity and Table-I-calibrated peaks."""

from __future__ import annotations

import pytest

from repro.cudapeak.microbench import run_microbenchmark
from repro.errors import DeviceError
from repro.gpusim.arch import FRAG_FLOAT16_16x16x16
from repro.gpusim.specs import GPU_CATALOG, INT1_GPUS, get_spec


class TestCatalog:
    def test_seven_gpus(self):
        assert len(GPU_CATALOG) == 7
        assert set(GPU_CATALOG) == {
            "AD4000", "A100", "GH200", "W7700", "MI210", "MI300X", "MI300A",
        }

    def test_int1_gpus_are_the_nvidia_three(self):
        assert set(INT1_GPUS) == {"AD4000", "A100", "GH200"}

    @pytest.mark.parametrize("name", list(GPU_CATALOG))
    def test_positive_fields(self, name):
        spec = GPU_CATALOG[name]
        assert spec.n_sm > 0
        assert spec.clock_mhz > 0
        assert spec.mem_bandwidth_gbs > 0
        assert spec.mem_bytes > 0
        assert spec.smem_per_sm_bytes > 0
        assert spec.tdp_w > spec.power.idle_w > 0
        assert 0 < spec.mem_efficiency <= 1
        assert 0 < spec.fp32_efficiency <= 1
        for eff in spec.gemm_efficiency.values():
            assert 0 < eff <= 1

    @pytest.mark.parametrize("name", list(GPU_CATALOG))
    def test_power_coefficients_cover_supported_precisions(self, name):
        spec = GPU_CATALOG[name]
        for precision in spec.tensor_peak_tops:
            assert precision in spec.power.tensor_w


class TestLookup:
    def test_case_insensitive(self):
        assert get_spec("a100").name == "A100"
        assert get_spec("Mi300x").name == "MI300X"

    def test_unknown_raises(self):
        with pytest.raises(DeviceError, match="unknown GPU"):
            get_spec("H200")


class TestPeaks:
    def test_theoretical_matches_paper_table1(self):
        assert get_spec("A100").theoretical_peak_ops("float16") == pytest.approx(312e12)
        assert get_spec("GH200").theoretical_peak_ops("int1") == pytest.approx(15800e12)

    def test_sustained_clock_directions(self):
        # Workstation cards boost beyond spec; MI300s throttle below it.
        assert get_spec("AD4000").sustained_clock_fraction > 1.0
        assert get_spec("W7700").sustained_clock_fraction > 1.0
        assert get_spec("MI300X").sustained_clock_fraction < 1.0
        assert get_spec("MI300A").sustained_clock_fraction < 1.0

    def test_wmma_peak_hopper_penalty(self):
        # GH200 reaches only ~65% of its float16 peak via WMMA (Table I);
        # A100 has no interface penalty.
        gh = run_microbenchmark(get_spec("GH200"), "float16", FRAG_FLOAT16_16x16x16)
        a100 = run_microbenchmark(get_spec("A100"), "float16", FRAG_FLOAT16_16x16x16)
        gh_ratio = gh.measured_tops / gh.theoretical_tops
        assert gh_ratio == pytest.approx(get_spec("GH200").sustained_clock_fraction * 0.65)
        a100_ratio = a100.measured_tops / a100.theoretical_tops
        assert a100_ratio == pytest.approx(get_spec("A100").sustained_clock_fraction)

    def test_int1_peak_missing_on_amd(self):
        with pytest.raises(Exception):
            get_spec("MI300X").theoretical_peak_ops("int1")

    def test_smem_bandwidth_scales_with_sms(self):
        a100 = get_spec("A100")
        assert a100.smem_bandwidth_bytes() == pytest.approx(
            a100.caps.smem_bytes_per_clock * a100.n_sm * a100.sustained_clock_hz
        )

    def test_memory_ordering_of_datacenter_gpus(self):
        # MI300X has the fattest memory system in the catalog.
        bws = {n: s.mem_bandwidth_gbs for n, s in GPU_CATALOG.items()}
        assert max(bws, key=bws.get) == "MI300X"
