"""Regression: the domain apps are thin TCBF adapters with unchanged behavior.

``LOFARBeamformer.form_beams`` and ``UltrasoundBeamformer.reconstruct`` must
produce outputs and recorded ``KernelCost`` totals identical to the direct
ccglib composition they previously hand-rolled (with the corrected RMS
operand normalization), while delegating to :mod:`repro.tcbf`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.radioastronomy import BeamformOutput, LOFARBeamformer
from repro.apps.ultrasound import ReconstructionResult, UltrasoundBeamformer
from repro.apps.ultrasound.array_geometry import TransducerArray, VoxelGrid
from repro.apps.ultrasound.measurement import EnsembleConfig, simulate_frames
from repro.apps.ultrasound.model_matrix import ImagingConfig, build_model_matrix
from repro.apps.ultrasound.phantom import make_phantom
from repro.backend import available_backends, get_backend
from repro.ccglib.bit_gemm import bit_gemm_reference
from repro.ccglib.gemm import Gemm
from repro.ccglib.packing import packing_cost
from repro.ccglib.precision import Precision, traits
from repro.ccglib.transpose import transpose_cost
from repro.gpusim.device import Device, ExecutionMode
from repro.tcbf import BeamformerPlan, BeamformResult
from tests.conftest import GenericNumpyBackend, random_complex


@pytest.fixture(scope="module")
def ultrasound_setup():
    cfg = ImagingConfig(
        array=TransducerArray(4, 4),
        grid=VoxelGrid(shape=(8, 8, 6)),
        n_frequencies=10,
        n_transmissions=5,
    )
    model = build_model_matrix(cfg)
    phantom = make_phantom(cfg.grid, n_generations=3)
    frames = simulate_frames(model, phantom, EnsembleConfig(n_frames=32))
    return model, frames


class TestSharedResultType:
    def test_dataclasses_deduplicated(self):
        # The per-app result types are the one shared TCBF record now.
        assert BeamformOutput is BeamformResult
        assert ReconstructionResult is BeamformResult

    def test_apps_delegate_to_tcbf(self):
        lofar = LOFARBeamformer(Device("A100", ExecutionMode.DRY_RUN), 16, 8, 32, 2)
        us = UltrasoundBeamformer(
            Device("A100", ExecutionMode.DRY_RUN), n_voxels=1024, k=2048, n_frames=64
        )
        assert isinstance(lofar.plan, BeamformerPlan)
        assert isinstance(us.plan, BeamformerPlan)


class TestLOFARRegression:
    def test_output_and_cost_match_direct_ccglib(self, rng):
        batch, m, k, n = 4, 9, 16, 128
        weights = random_complex(rng, (batch, m, k))
        data = random_complex(rng, (batch, k, n), scale=3.0)

        out = LOFARBeamformer(Device("A100"), m, k, n, batch).form_beams(weights, data)

        # The hand-rolled path the app used before the refactor, with the
        # corrected unit-RMS operand normalization.
        ref_dev = Device("A100")
        plan = Gemm(ref_dev, Precision.FLOAT16, batch=batch, m=m, n=n, k=k)
        scale = float(np.sqrt(np.mean(np.abs(data) ** 2)))
        ref = plan.run(weights.astype(np.complex64), (data / scale).astype(np.complex64))
        assert np.array_equal(out.beams, ref.output * scale)
        assert out.cost == ref.cost  # full KernelCost equality, field by field

    def test_gemm_is_the_only_recorded_kernel(self, rng):
        # LOFAR accounting is GEMM-only: data are already GPU-resident.
        bf = LOFARBeamformer(Device("A100"), 9, 16, 128, 4)
        result = bf.form_beams(random_complex(rng, (4, 9, 16)), random_complex(rng, (4, 16, 128)))
        assert [c.name for c in result.costs] == ["gemm_float16"]

    def test_predict_cost_unchanged(self):
        dev = Device("GH200", ExecutionMode.DRY_RUN)
        bf = LOFARBeamformer(dev, 1024, 48, 1024, 256)
        ref = Gemm(dev, Precision.FLOAT16, batch=256, m=1024, n=1024, k=48)
        assert bf.predict_cost() == ref.predict_cost()


class TestUltrasoundRegression:
    def test_output_and_cost_match_direct_ccglib(self, ultrasound_setup):
        model, frames = ultrasound_setup
        bf = UltrasoundBeamformer(Device("A100"), model, n_frames=32, precision=Precision.INT1)
        result = bf.reconstruct(frames)

        ref_dev = Device("A100")
        plan = Gemm(
            ref_dev, Precision.INT1, batch=1, m=model.n_voxels, n=32, k=model.k,
            params=bf.params,
        )
        scale = float(np.sqrt(np.mean(np.abs(frames) ** 2)))
        ref = plan.run(
            model.matched_filter()[None, ...].astype(np.complex64),
            (frames / scale)[None, ...].astype(np.complex64),
        )
        assert np.array_equal(result.frames, ref.output[0])

        # Cost totals: per-frame transpose + 1-bit packing + GEMM.
        n_values = 2 * model.k * 32
        t = transpose_cost(ref_dev, n_values, traits(Precision.INT1).input_bytes)
        p = packing_cost(ref_dev, n_values, 4.0)
        assert [c.name for c in result.costs] == ["transpose", "pack_bits", ref.cost.name]
        assert result.total.time_s == pytest.approx(
            t.time_s + p.time_s + ref.cost.time_s, rel=1e-12
        )
        assert result.total.energy_j == pytest.approx(
            t.energy_j + p.energy_j + ref.cost.energy_j, rel=1e-12
        )
        assert result.total.dram_bytes == pytest.approx(
            t.dram_bytes + p.dram_bytes + ref.cost.dram_bytes
        )

    def test_model_prep_cost_matches_direct_composition(self, ultrasound_setup):
        model, _ = ultrasound_setup
        bf = UltrasoundBeamformer(Device("A100"), model, n_frames=32, precision=Precision.INT1)
        bf.prepare_model()
        ref_dev = Device("A100")
        n_values = 2 * model.n_voxels * model.k
        t = transpose_cost(ref_dev, n_values, traits(Precision.INT1).input_bytes)
        p = packing_cost(ref_dev, n_values, 4.0)
        assert bf.model_prep_cost.time_s == pytest.approx(t.time_s + p.time_s, rel=1e-12)
        assert bf.model_prep_cost.name == "model_prep"

    def test_scale_invariance_of_image(self, ultrasound_setup):
        # The RMS normalization makes the reconstruction scale-free: int1
        # sign quantization ignores positive scale entirely.
        model, frames = ultrasound_setup
        a = UltrasoundBeamformer(
            Device("A100"), model, n_frames=32, precision=Precision.INT1
        ).reconstruct(frames)
        b = UltrasoundBeamformer(
            Device("A100"), model, n_frames=32, precision=Precision.INT1
        ).reconstruct(frames * 1e4)
        assert np.array_equal(a.frames, b.frames)


@pytest.mark.parametrize(
    "backend", [*available_backends(), GenericNumpyBackend()], ids=lambda b: getattr(b, "name", b)
)
def test_int1_reconstruction_is_the_bit_gemm_on_every_backend(ultrasound_setup, backend):
    """``prepare_model`` + ``reconstruct`` equals the scalar 1-bit reference
    on the sign bits, exactly, on every available backend."""
    model, frames = ultrasound_setup
    be = get_backend(backend)
    bf = UltrasoundBeamformer(
        Device("A100"), model, n_frames=32, precision=Precision.INT1, backend=be
    )
    bf.prepare_model()
    filt = model.matched_filter()
    a_bits = np.stack([filt.real >= 0, filt.imag >= 0]).astype(np.uint8)
    for y in (frames, -frames[:, ::-1].copy()):
        got = be.to_numpy(bf.reconstruct(y).frames)
        b_bits = np.stack([y.real.T >= 0, y.imag.T >= 0]).astype(np.uint8)
        ref = bit_gemm_reference(a_bits, b_bits)
        assert np.array_equal(got.real, ref[0]) and np.array_equal(got.imag, ref[1])
