"""The paper's headline claims, checked end-to-end on the simulated stack.

Abstract: "In the 16-bit mode, it achieves over 600 TeraOps/s on an AMD
MI300X GPU, while approaching 1 TeraOp/J. In the 1-bit mode, it breaks the
3 PetaOps/s barrier and achieves over 10 TeraOps/J on an NVIDIA A100 GPU.
... the TCBF is up to a factor 10-100 faster than previous GPU-based
beamforming implementations, as well as an order of magnitude more energy
efficient."
"""

from __future__ import annotations

from repro.apps.radioastronomy.beamformer import LOFARBeamformer
from repro.apps.radioastronomy.reference import ReferenceBeamformer
from repro.ccglib.perfmodel import model_gemm
from repro.ccglib.precision import Precision
from repro.ccglib.tuning import published_tuning
from repro.gpusim.device import Device, ExecutionMode
from repro.gpusim.specs import get_spec
from repro.kerneltuner.tuner import PAPER_TUNING_PROBLEMS
from repro.util.units import peta, tera


def _tuned_cost(gpu: str, precision: Precision):
    spec = get_spec(gpu)
    return model_gemm(
        spec, precision, PAPER_TUNING_PROBLEMS[precision],
        published_tuning(gpu, precision).params,
    )


class TestAbstractClaims:
    def test_mi300x_over_600_tops_fp16(self):
        cost = _tuned_cost("MI300X", Precision.FLOAT16)
        assert cost.ops_per_second > 600 * tera

    def test_mi300x_approaching_one_top_per_joule(self):
        cost = _tuned_cost("MI300X", Precision.FLOAT16)
        assert 0.8 * tera < cost.ops_per_joule < 1.0 * tera

    def test_a100_breaks_3_petaops_int1(self):
        cost = _tuned_cost("A100", Precision.INT1)
        assert cost.ops_per_second > 3 * peta

    def test_a100_over_10_tops_per_joule_int1(self):
        cost = _tuned_cost("A100", Precision.INT1)
        assert cost.ops_per_joule > 10 * tera


class TestUltrasoundClaims:
    def test_three_orders_of_magnitude_vs_octave(self):
        # "The TCBF is nearly three orders of magnitude faster" (§V-A).
        from repro.bench.fig6 import (
            OCTAVE_OPENCL_EFFICIENCY,
            RECORDED_K,
            RECORDED_M,
            RECORDED_N,
        )
        from repro.apps.ultrasound.imaging import UltrasoundBeamformer
        from repro.ccglib.precision import complex_ops

        gh200 = Device("GH200", ExecutionMode.DRY_RUN)
        bf = UltrasoundBeamformer(
            gh200, n_voxels=RECORDED_M, k=RECORDED_K, n_frames=RECORDED_N,
            precision=Precision.INT1,
        )
        tcbf_s = bf.reconstruct().time_s
        ops = complex_ops(1, RECORDED_M, RECORDED_N, RECORDED_K)
        octave_s = ops / (get_spec("A100").fp32_peak_ops() * OCTAVE_OPENCL_EFFICIENCY)
        assert 300 < octave_s / tcbf_s < 3000

    def test_recorded_dataset_inside_realtime_budget(self):
        # Paper: 1.2 s, "significantly shorter than the real-time
        # requirement of 8 s, leaving room for e.g. Doppler processing".
        from repro.bench.fig6 import RECORDED_K, RECORDED_M, RECORDED_N
        from repro.apps.ultrasound.imaging import UltrasoundBeamformer

        gh200 = Device("GH200", ExecutionMode.DRY_RUN)
        t = UltrasoundBeamformer(
            gh200, n_voxels=RECORDED_M, k=RECORDED_K, n_frames=RECORDED_N,
            precision=Precision.INT1,
        ).reconstruct().time_s
        assert t < 8.0 / 2  # comfortably inside, as the paper stresses


class TestRadioAstronomyClaims:
    def test_2_to_20x_faster_than_reference(self):
        # Conclusions: "The radio-astronomical TCBF is 2-20 times faster
        # than the existing beamformer."
        dev = Device("A100", ExecutionMode.DRY_RUN)
        ratios = []
        for k in (16, 48, 128, 512):
            t = LOFARBeamformer(dev, 1024, k, 1024, 256).predict_cost()
            r = ReferenceBeamformer(dev, 1024, k, 1024, 256).predict_cost()
            ratios.append(t.ops_per_second / r.ops_per_second)
        assert ratios == sorted(ratios)  # monotone in receiver count
        assert ratios[0] > 1.5
        assert 10 < ratios[-1] < 25

    def test_order_of_magnitude_energy_advantage(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        t = LOFARBeamformer(dev, 1024, 512, 1024, 256).predict_cost()
        r = ReferenceBeamformer(dev, 1024, 512, 1024, 256).predict_cost()
        assert t.ops_per_joule / r.ops_per_joule > 8.0


class TestTableIStructure:
    def test_gh200_fastest_int1_a100_most_efficient(self):
        # Paper §IV-A: "The GH200 is the fastest in int1, although the A100
        # is more energy efficient."
        gh = _tuned_cost("GH200", Precision.INT1)
        a100 = _tuned_cost("A100", Precision.INT1)
        assert gh.ops_per_second > a100.ops_per_second
        assert a100.ops_per_joule > gh.ops_per_joule

    def test_mi300x_fastest_and_most_efficient_fp16(self):
        # "In float16, the MI300X is both the fastest and most
        # energy-efficient GPU."
        costs = {
            gpu: _tuned_cost(gpu, Precision.FLOAT16)
            for gpu in ("AD4000", "A100", "GH200", "W7700", "MI300X", "MI300A")
        }
        best_perf = max(costs, key=lambda g: costs[g].ops_per_second)
        assert best_perf == "MI300X"
        # MI210's PMT readings make it an efficiency outlier in the paper
        # too (1.3 TOPs/J); excluding it, MI300X leads.
        assert costs["MI300X"].ops_per_joule == max(
            c.ops_per_joule for g, c in costs.items()
        )
