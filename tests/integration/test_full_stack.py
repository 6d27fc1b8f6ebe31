"""Cross-module integration: GEMM + PMT + memory + applications together."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccglib.gemm import Gemm, gemm_once
from repro.ccglib.precision import Precision
from repro.errors import MemoryError_
from repro.gpusim.device import Device, ExecutionMode
from repro.gpusim.specs import GPU_CATALOG, INT1_GPUS
from repro.pmt.meter import PowerMeter
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


class TestPmtIntegration:
    def test_meter_covers_full_pipeline(self, rng):
        """PMT energy over a multi-kernel run equals the kernel-cost sum."""
        dev = Device("A100")
        meter = PowerMeter(dev)
        begin = meter.read()
        a = random_complex(rng, (2, 32, 64))
        b = random_complex(rng, (2, 64, 16))
        plan = Gemm(dev, Precision.FLOAT16, 2, 32, 16, 64)
        costs = [plan.run(a, b).cost, plan.run(a, b).cost]
        end = meter.read()
        assert PowerMeter.joules(begin, end) == pytest.approx(sum(c.energy_j for c in costs))
        assert PowerMeter.seconds(begin, end) == pytest.approx(sum(c.time_s for c in costs))

    def test_paper_energy_metric_via_pmt(self):
        """Reproduce a Table III energy number through the PMT code path."""
        dev = Device("A100", ExecutionMode.DRY_RUN)
        meter = PowerMeter(dev)
        begin = meter.read()
        plan = Gemm(dev, Precision.FLOAT16, 1, 8192, 8192, 8192)
        result = plan.run()
        end = meter.read()
        tops_per_joule = PowerMeter.ops_per_joule(result.cost.useful_ops, begin, end) / 1e12
        assert tops_per_joule == pytest.approx(0.8, rel=0.05)  # paper: 0.8


class TestMemoryIntegration:
    def test_upload_compute_free_cycle(self, rng):
        dev = Device("AD4000")
        a_host = random_complex(rng, (1, 16, 32))
        buf = dev.upload(a_host, label="A")
        pool = dev.memory
        with pytest.raises(MemoryError_):
            pool.allocate((pool.capacity_bytes - a_host.nbytes + 1,), np.uint8, materialize=False)
        dev.free(buf)
        pool.allocate((pool.capacity_bytes,), np.uint8, materialize=False)  # all free again

    def test_dry_run_capacity_guard_at_paper_scale(self):
        # The full 128^3 1-bit model matrix (~137 GB packed) does not fit
        # any catalog GPU except MI300X (192 GB).
        packed_shape = (2, 128**3, 262144 // 32)
        fits = {}
        for gpu in ("A100", "GH200", "MI300X"):
            dev = Device(gpu, ExecutionMode.DRY_RUN)
            try:
                dev.allocate(packed_shape, np.uint32)
                fits[gpu] = True
            except Exception:
                fits[gpu] = False
        assert fits == {"A100": False, "GH200": False, "MI300X": True}


class TestCrossApplication:
    def test_same_gemm_backend_serves_both_domains(self, rng):
        """The domain wrappers are thin: both reduce to ccglib GEMM calls."""
        from repro.apps.radioastronomy import LOFARBeamformer
        from repro.apps.ultrasound.imaging import UltrasoundBeamformer

        dev = Device("A100", ExecutionMode.DRY_RUN)
        lofar = LOFARBeamformer(dev, 64, 16, 128, 4)
        lofar.form_beams()
        us = UltrasoundBeamformer(dev, n_voxels=4096, k=8192, n_frames=128)
        us.reconstruct()
        names = [e.cost.name for e in dev.timeline]
        assert sum(n.startswith("gemm_") for n in names) == 2
        assert "pack_bits" in names and "transpose" in names
