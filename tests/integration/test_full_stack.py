"""Cross-module integration: GEMM + energy + placement + applications together."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.ultrasound.imaging import service_workload as ultrasound_workload
from repro.ccglib.gemm import Gemm, gemm_once
from repro.ccglib.precision import Precision
from repro.gpusim.device import Device, ExecutionMode
from repro.gpusim.specs import GPU_CATALOG, INT1_GPUS
from repro.serve import FleetDispatcher
from repro.tcbf import BeamformerPlan
from tests.conftest import random_complex, random_pm1_complex


class TestAllDevicesFloat16:
    @pytest.mark.parametrize("gpu", list(GPU_CATALOG))
    def test_gemm_runs_and_agrees(self, gpu, rng):
        """Every catalog GPU computes the same float16 result."""
        a = random_complex(rng, (1, 16, 24))
        b = random_complex(rng, (1, 24, 8))
        result = gemm_once(Device(gpu), Precision.FLOAT16, a, b)
        ref = a.astype(np.complex128) @ b.astype(np.complex128)
        assert np.abs(result.output - ref).max() / np.abs(ref).max() < 5e-3

    def test_device_numerics_identical_across_vendors(self, rng):
        # The library promise: CUDA/HIP differences are hidden; results are
        # bit-identical between devices (same fragment arithmetic).
        a = random_complex(rng, (1, 8, 16))
        b = random_complex(rng, (1, 16, 8))
        outputs = [
            gemm_once(Device(gpu), Precision.FLOAT16, a, b).output
            for gpu in ("A100", "MI300X", "W7700")
        ]
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[0], outputs[2])


class TestInt1AcrossNvidia:
    @pytest.mark.parametrize("gpu", list(INT1_GPUS))
    def test_exact_on_every_nvidia_gpu(self, gpu, rng):
        a = random_pm1_complex(rng, (1, 9, 70))
        b = random_pm1_complex(rng, (1, 70, 5))
        result = gemm_once(Device(gpu), Precision.INT1, a, b)
        ref = a.astype(np.complex128) @ b.astype(np.complex128)
        assert np.array_equal(result.output, ref.astype(np.complex64))

    def test_xor_and_devices_agree(self, rng):
        # A100 (XOR) and GH200 (AND) must produce identical integers.
        a = random_pm1_complex(rng, (1, 6, 131))
        b = random_pm1_complex(rng, (1, 131, 6))
        out_xor = gemm_once(Device("A100"), Precision.INT1, a, b).output
        out_and = gemm_once(Device("GH200"), Precision.INT1, a, b).output
        assert np.array_equal(out_xor, out_and)


class TestEnergyIntegration:
    def test_block_energy_is_the_sum_of_its_kernels(self, rng):
        """A block's time and energy are the sums over the kernels it ran."""
        plan = BeamformerPlan(
            Device("A100"), n_beams=16, n_receivers=64, n_samples=32, batch=2,
            precision=Precision.INT1,
        )
        result = plan.execute(random_complex(rng, (2, 16, 64)), random_complex(rng, (2, 64, 32)))
        assert [c.name for c in result.costs][:2] == ["transpose", "pack_bits"]
        assert result.total.energy_j == pytest.approx(sum(c.energy_j for c in result.costs))
        assert result.total.time_s == pytest.approx(sum(c.time_s for c in result.costs))

    def test_paper_energy_metric_from_kernel_cost(self):
        """Reproduce a Table III energy number from the GEMM's cost record."""
        dev = Device("A100", ExecutionMode.DRY_RUN)
        result = Gemm(dev, Precision.FLOAT16, 1, 8192, 8192, 8192).run()
        tops_per_joule = result.cost.ops_per_joule / 1e12
        assert tops_per_joule == pytest.approx(0.8, rel=0.05)  # paper: 0.8


class TestMemoryIntegration:
    @pytest.mark.parametrize("gpu", list(GPU_CATALOG))
    def test_dry_run_capacity_guard_at_paper_scale(self, gpu):
        # The full 128^3 1-bit model matrix (~137 GB packed) does not fit
        # any catalog GPU except MI300X (192 GB).
        model = ultrasound_workload(n_voxels=128**3, k=262144, n_frames=1).kernel
        fleet = FleetDispatcher([Device(gpu, ExecutionMode.DRY_RUN)])
        assert fleet.placer.fits(fleet.workers[0], model) == (gpu == "MI300X")


class TestCrossApplication:
    def test_same_gemm_backend_serves_both_domains(self, rng):
        """The domain wrappers are thin: both reduce to ccglib GEMM calls."""
        from repro.apps.radioastronomy import LOFARBeamformer
        from repro.apps.ultrasound.imaging import UltrasoundBeamformer

        dev = Device("A100", ExecutionMode.DRY_RUN)
        lofar = LOFARBeamformer(dev, 64, 16, 128, 4)
        us = UltrasoundBeamformer(dev, n_voxels=4096, k=8192, n_frames=128)
        costs = lofar.form_beams().costs + us.reconstruct().costs
        names = [c.name for c in costs]
        assert sum(n.startswith("gemm_") for n in names) == 2
        assert "pack_bits" in names and "transpose" in names
