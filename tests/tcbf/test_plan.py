"""BeamformerPlan: end-to-end cost accounting, scaling, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.radioastronomy import LOFARBeamformer
from repro.apps.ultrasound import UltrasoundBeamformer
from repro.apps.ultrasound.array_geometry import TransducerArray, VoxelGrid
from repro.apps.ultrasound.model_matrix import ImagingConfig, build_model_matrix
from repro.ccglib import complex_mma
from repro.ccglib import gemm as ccglib_gemm
from repro.ccglib.gemm import Gemm
from repro.ccglib.precision import Precision
from repro.ccglib.transpose import transpose_cost
from repro.errors import ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.tcbf import BeamformerPlan, BeamformResult, rms

from tests.conftest import random_complex


class TestRmsScaling:
    def test_rms_of_constant_magnitude(self):
        # |3+4j| = 5 everywhere: the RMS is 5, while np.abs(x).std() — the
        # statistic both apps previously used — is 0 (fell back to 1.0).
        x = np.full((8, 8), 3 + 4j, dtype=np.complex64)
        assert rms(x) == pytest.approx(5.0)
        assert float(np.abs(x).std()) == 0.0

    def test_rms_nonzero_mean_exceeds_magnitude_std(self, rng):
        # For a shifted signal the std of magnitudes under-estimates energy.
        x = (rng.normal(size=512) + 10.0) + 1j * rng.normal(size=512)
        assert rms(x) > float(np.abs(x).std())
        assert rms(x) == pytest.approx(np.sqrt(np.mean(np.abs(x) ** 2)))

    def test_zero_input_falls_back_to_one(self):
        assert rms(np.zeros(16, dtype=np.complex64)) == 1.0
        assert rms(np.array([])) == 1.0


class TestCostAccounting:
    @pytest.mark.parametrize("predict", [
        "predict_gemm_cost", "stage_in_cost", "predict_block_cost", "predict_weight_prep_cost",
    ])
    def test_predictions_are_pure(self, predict, kernel_runs):
        # Placement prices candidate devices through these: nothing runs,
        # and asking twice gives the same cost.
        plan = BeamformerPlan(
            Device("A100"), n_beams=8, n_receivers=64, n_samples=16, precision=Precision.INT1,
        )
        assert getattr(plan, predict)() == getattr(plan, predict)()
        assert kernel_runs == []
        assert plan.weight_prep_cost is None

    def test_int1_block_cost_is_end_to_end(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        plan = BeamformerPlan(
            dev, n_beams=4096, n_receivers=8192, n_samples=512,
            precision=Precision.INT1,
        )
        total = plan.predict_block_cost()
        gemm = plan.predict_gemm_cost()
        stage_in = plan.stage_in_cost()
        assert stage_in is not None
        assert total.time_s == pytest.approx(stage_in.time_s + gemm.time_s)
        assert total.time_s > gemm.time_s  # GEMM-only accounting would miss this

    def test_gemm_only_when_stages_disabled(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        plan = BeamformerPlan(
            dev, n_beams=1024, n_receivers=48, n_samples=1024, batch=64,
            include_transpose=False,
        )
        assert plan.stage_in_cost() is None
        assert plan.predict_block_cost() == plan.predict_gemm_cost()

    def test_float16_has_no_packing_stage(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        plan = BeamformerPlan(dev, n_beams=256, n_receivers=128, n_samples=256)
        result = plan.execute()
        assert [c.name for c in result.costs] == ["transpose", "gemm_float16"]

    def test_int1_stage_order(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        plan = BeamformerPlan(
            dev, n_beams=256, n_receivers=512, n_samples=256,
            precision=Precision.INT1,
        )
        names = [c.name for c in plan.execute().costs]
        assert names[0] == "transpose"
        assert names[1] == "pack_bits"
        assert names[2].startswith("gemm_int1")

    def test_prepare_weights_excluded_from_block(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        plan = BeamformerPlan(
            dev, n_beams=64, n_receivers=256, n_samples=64,
            precision=Precision.INT1,
        )
        prep = plan.prepare_weights()
        assert prep is plan.weight_prep_cost
        assert prep.time_s > 0
        # weight prep = transpose + pack; the per-block cost is unchanged.
        assert prep.detail["n_kernels"] == 2
        assert plan.predict_block_cost().time_s == pytest.approx(
            plan.stage_in_cost().time_s + plan.predict_gemm_cost().time_s
        )

    def test_prepare_weights_float16_transpose_only(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        plan = BeamformerPlan(dev, n_beams=64, n_receivers=256, n_samples=64)
        prep = plan.prepare_weights()
        assert prep.detail["n_kernels"] == 1
        # float16 weights: 2 real values per complex, 2 bytes each.
        assert prep.time_s == transpose_cost(dev, 2 * 64 * 256, 2.0).time_s


class TestFunctionalExecution:
    def test_matches_direct_gemm(self, rng):
        w = random_complex(rng, (2, 8, 32))
        d = random_complex(rng, (2, 32, 16))
        plan = BeamformerPlan(
            Device("A100"), n_beams=8, n_receivers=32, n_samples=16, batch=2,
            include_transpose=False,
            restore_output_scale=True,
        )
        out = plan.execute(w, d).output
        assert np.allclose(out, w @ d, atol=0.05)

    def test_scale_restoration(self, rng):
        # With restore_output_scale the result is in input units regardless
        # of the operand magnitude.
        w = random_complex(rng, (1, 8, 32))
        d = random_complex(rng, (1, 32, 16), scale=500.0)
        plan = BeamformerPlan(
            Device("A100"), n_beams=8, n_receivers=32, n_samples=16,
            include_transpose=False, restore_output_scale=True,
        )
        out = plan.execute(w, d).output
        assert np.allclose(out, w @ d, rtol=5e-3, atol=0.5)

    @pytest.mark.parametrize("scale", [1.0, 2.5, None])
    def test_in_place_scale_restore_matches_out_of_place(self, rng, scale):
        w = random_complex(rng, (2, 8, 32))
        d = random_complex(rng, (2, 32, 16), scale=3.0)
        w0, d0 = w.copy(), d.copy()
        kw = dict(n_beams=8, n_receivers=32, n_samples=16, batch=2, include_transpose=False)
        restoring = BeamformerPlan(Device("A100"), restore_output_scale=True, **kw)
        plain = BeamformerPlan(Device("A100"), **kw)

        got = restoring.execute(w, d, scale=scale).output
        raw = plain.execute(w, d, scale=scale).output
        applied = rms(d) if scale is None else scale
        want = raw if applied == 1.0 else raw * applied
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # The caller's operands are never written.
        assert w.tobytes() == w0.tobytes() and d.tobytes() == d0.tobytes()
        assert not np.shares_memory(got, w) and not np.shares_memory(got, d)

    def test_unbatched_operands_accepted(self, rng):
        w = random_complex(rng, (8, 32))
        d = random_complex(rng, (32, 16))
        plan = BeamformerPlan(
            Device("A100"), n_beams=8, n_receivers=32, n_samples=16,
            include_transpose=False,
        )
        assert plan.execute(w, d).output.shape == (1, 8, 16)

    def test_missing_operands_raise(self):
        plan = BeamformerPlan(Device("A100"), n_beams=8, n_receivers=32, n_samples=16)
        with pytest.raises(ShapeError):
            plan.execute()
        with pytest.raises(ShapeError):
            plan.execute(np.ones((8, 32), dtype=np.complex64), None)

    def test_shape_mismatch_raises_before_running(self, rng, kernel_runs):
        plan = BeamformerPlan(Device("A100"), n_beams=8, n_receivers=32, n_samples=16)
        with pytest.raises(ShapeError):
            plan.execute(random_complex(rng, (8, 32)), random_complex(rng, (31, 16)))
        # No kernel runs for a rejected block.
        assert [what for what, _ in kernel_runs] == ["BeamformerPlan.execute"]

    def test_dry_run_ignores_operands(self):
        plan = BeamformerPlan(
            Device("A100", ExecutionMode.DRY_RUN),
            n_beams=8, n_receivers=32, n_samples=16,
        )
        result = plan.execute()
        assert result.output is None
        assert result.total.time_s > 0

    def test_in_place_weight_updates_honored(self, rng):
        # A calibration update applied in place between blocks must take
        # effect: the plan re-reads the weights array on every execution.
        plan = BeamformerPlan(
            Device("A100"), n_beams=4, n_receivers=32, n_samples=8,
            include_transpose=False,
        )
        weights = random_complex(rng, (4, 32))
        block = random_complex(rng, (32, 8))
        first = plan.execute(weights, block)
        assert np.abs(first.output).max() > 0
        weights *= 0.0
        second = plan.execute(weights, block)
        assert np.abs(second.output).max() == 0.0

    def test_consecutive_blocks_keep_their_data(self, rng):
        # One plan serves a sequence of blocks; each comes back beamformed
        # with its own data, nothing carried over from the block before.
        plan = BeamformerPlan(
            Device("A100"), n_beams=4, n_receivers=32, n_samples=8,
            include_transpose=False, restore_output_scale=True,
        )
        weights = random_complex(rng, (4, 32))
        blocks = [random_complex(rng, (32, 8)) for _ in range(5)]
        results = [plan.execute(weights, block) for block in blocks]
        for block, result in zip(blocks, results):
            assert np.allclose(result.output[0], weights @ block, atol=0.05)


class TestPreparedWeights:
    """``prepare_weights(weights)`` once, then ``execute(None, data)``."""

    KW = dict(n_beams=8, n_receivers=45, n_samples=16, batch=2)

    @pytest.mark.parametrize("precision", [Precision.INT1, Precision.FLOAT16], ids=lambda p: p.value)
    @pytest.mark.parametrize("restore", [False, True])
    def test_kept_operand_matches_per_call_weights(self, rng, precision, restore):
        w = random_complex(rng, (2, 8, 45))
        plan = BeamformerPlan(
            Device("A100"), precision=precision, restore_output_scale=restore, **self.KW
        )
        plan.prepare_weights(w)
        for _ in range(3):
            d = random_complex(rng, (2, 45, 16), scale=3.0)
            kept = plan.execute(None, d)
            per_call = plan.execute(w, d)
            assert kept.output.tobytes() == per_call.output.tobytes()
            assert [c.name for c in kept.costs] == [c.name for c in per_call.costs]

    def test_records_the_same_costs_as_cost_only_preparation(self, rng):
        with_weights, cost_only = Device("A100"), Device("A100")
        kw = dict(precision=Precision.INT1, **self.KW)
        a = BeamformerPlan(with_weights, **kw).prepare_weights(random_complex(rng, (2, 8, 45)))
        b = BeamformerPlan(cost_only, **kw).prepare_weights()
        assert a == b
        assert a.detail["n_kernels"] == 2  # transpose + pack_bits

    def test_execute_without_weights_or_prepared_operand_runs_nothing(self, rng, kernel_runs):
        plan = BeamformerPlan(Device("A100"), precision=Precision.INT1, **self.KW)
        with pytest.raises(ShapeError, match="prepare_weights"):
            plan.execute(None, random_complex(rng, (2, 45, 16)))
        plan.prepare_weights()  # cost only: still nothing to execute with
        with pytest.raises(ShapeError):
            plan.execute(None, random_complex(rng, (2, 45, 16)))
        # No kernel runs for a rejected block.
        assert [what for what, _ in kernel_runs] == ["BeamformerPlan.execute"] * 2
        assert plan.weight_prep_cost is not None

    def test_malformed_weights_rejected_before_charging(self, rng):
        plan = BeamformerPlan(Device("A100"), precision=Precision.INT1, **self.KW)
        with pytest.raises(ShapeError):
            plan.prepare_weights(random_complex(rng, (2, 8, 44)))
        assert plan.weight_prep_cost is None

    def test_kept_operand_is_a_snapshot(self, rng):
        w = random_complex(rng, (2, 8, 45))
        d = random_complex(rng, (2, 45, 16))
        plan = BeamformerPlan(Device("A100"), precision=Precision.INT1, **self.KW)
        plan.prepare_weights(w)
        before = plan.execute(None, d).output
        w *= -1  # per-call weights honour in-place updates; the snapshot does not
        assert plan.execute(None, d).output.tobytes() == before.tobytes()
        assert np.array_equal(plan.execute(w, d).output, -before)
        plan.prepare_weights(w)
        assert np.array_equal(plan.execute(None, d).output, -before)

    def test_dry_run_ignores_weights(self, rng):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        plan = BeamformerPlan(dev, precision=Precision.INT1, **self.KW)
        plan.prepare_weights(random_complex(rng, (2, 8, 45)))
        assert plan.execute().output is None


@pytest.fixture
def counts(monkeypatch):
    """Counts calls of ``Gemm``'s planar conversion and 1-bit pack."""
    counts = {"pack_sign_planar": 0, "to_planar": 0}
    for name in counts:
        original = getattr(ccglib_gemm, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ccglib_gemm, name, counted)
    return counts


class TestUltrasoundPreparesTheModelOnce:
    """Call counts at the names ``Gemm`` looks its layout and pack stages up by."""

    N_CALLS = 5

    @pytest.fixture(scope="class")
    def model(self):
        cfg = ImagingConfig(
            array=TransducerArray(4, 4),
            grid=VoxelGrid(shape=(6, 6, 6)),
            n_frequencies=8,
            n_transmissions=4,
        )
        return build_model_matrix(cfg)

    def _reconstruct(self, bf, model, rng):
        for _ in range(self.N_CALLS):
            bf.reconstruct(random_complex(rng, (model.k, 16)))

    def test_after_prepare_model_only_the_measurement_is_prepared(self, model, counts, rng):
        bf = UltrasoundBeamformer(Device("A100"), model, n_frames=16)
        bf.prepare_model()
        assert counts == {"pack_sign_planar": 1, "to_planar": 1}
        counts.update(pack_sign_planar=0, to_planar=0)
        self._reconstruct(bf, model, rng)
        # One pack and one planar conversion per block: the measurement's.
        assert counts == {"pack_sign_planar": self.N_CALLS, "to_planar": self.N_CALLS}

    def test_without_prepare_model_the_model_is_prepared_once(self, model, counts, rng):
        bf = UltrasoundBeamformer(Device("A100"), model, n_frames=16)
        self._reconstruct(bf, model, rng)
        assert counts == {"pack_sign_planar": 1 + self.N_CALLS, "to_planar": 1 + self.N_CALLS}
        assert bf.model_prep_cost is not None and bf.model_prep_cost.name == "model_prep"
        assert bf.model_prep_cost.detail["n_kernels"] == 2  # transpose + pack_bits


class TestLofarPreparesTheWeightsOnce:
    """``LOFARBeamformer.prepare_weights`` rounds the weight set once."""

    N_CALLS = 5
    SHAPE = dict(n_beams=9, n_stations=24, n_samples=32, n_channels=3, n_polarizations=2)

    @pytest.fixture
    def rounded(self, monkeypatch):
        """Shapes of the planes the NumPy float16 rounding writes, per call."""
        shapes = []
        original = complex_mma._round_f16_into

        def counted(values, out):
            shapes.append(out.shape[-3:])
            return original(values, out)

        monkeypatch.setattr(complex_mma, "_round_f16_into", counted)
        return shapes

    def test_after_prepare_weights_only_the_data_is_rounded(self, counts, rounded, rng):
        w = random_complex(rng, (6, 9, 24))
        blocks = [random_complex(rng, (6, 24, 32), scale=3.0) for _ in range(self.N_CALLS)]
        a_planes, b_planes = (2, 9, 24), (2, 24, 32)
        per_call = LOFARBeamformer(Device("A100"), **self.SHAPE)
        want = [per_call.form_beams(w, d).beams.tobytes() for d in blocks]
        # The per-call weights are rounded on every block.
        assert rounded.count(a_planes) == rounded.count(b_planes) >= self.N_CALLS
        rounded.clear()
        bf = LOFARBeamformer(Device("A100"), **self.SHAPE)
        bf.prepare_weights(w)
        assert rounded == [a_planes]
        got = [bf.form_beams(None, d).beams.tobytes() for d in blocks]
        # Every later rounding is the data's; no planar conversion anywhere.
        assert rounded.count(a_planes) == 1 and len(rounded) > self.N_CALLS
        assert counts == {"pack_sign_planar": 0, "to_planar": 0}
        assert got == want


class TestBeamformResult:
    def _result(self) -> BeamformResult:
        plan = BeamformerPlan(
            Device("A100", ExecutionMode.DRY_RUN),
            n_beams=1024, n_receivers=48, n_samples=1024, batch=256,
            include_transpose=False,
        )
        return plan.execute()

    def test_domain_aliases(self):
        r = self._result()
        assert r.beams is r.output
        assert r.frames is r.output
        assert r.cost is r.total

    def test_throughput_accessors(self):
        r = self._result()
        assert r.tflops == pytest.approx(r.total.ops_per_second / 1e12)
        assert r.tops == r.tflops
        assert r.fps == pytest.approx(1024 / r.total.time_s)
        assert r.time_s == r.total.time_s

    def test_fps_requires_frame_count(self):
        r = self._result()
        r.n_frames = None
        with pytest.raises(ValueError):
            _ = r.fps

    def test_useful_ops_match_complex_gemm_count(self):
        r = self._result()
        assert r.total.useful_ops == pytest.approx(8 * 256 * 1024 * 1024 * 48)

    def test_tflops_excludes_helper_kernel_element_moves(self):
        # transpose/pack report element moves in useful_ops; the TFLOPs
        # metric must count the GEMM's FLOPs only (over end-to-end time).
        plan = BeamformerPlan(
            Device("A100", ExecutionMode.DRY_RUN),
            n_beams=256, n_receivers=512, n_samples=256,
            precision=Precision.INT1,
        )
        r = plan.execute()
        gemm = r.costs[-1]
        assert r.tflops == pytest.approx(gemm.useful_ops / r.total.time_s / 1e12)
        assert r.total.useful_ops > gemm.useful_ops  # the mix-up this guards


class TestPlanIntrospection:
    def test_shape_and_padding(self):
        plan = BeamformerPlan(
            Device("A100"), n_beams=9, n_receivers=50, n_samples=100, batch=3,
        )
        assert plan.shape == (3, 9, 50, 100)
        assert plan.padded_k % 16 == 0
        assert plan.padded_k >= 50

    def test_params_resolved_from_gemm(self):
        plan = BeamformerPlan(Device("A100"), n_beams=16, n_receivers=64, n_samples=16)
        ref = Gemm(Device("A100"), Precision.FLOAT16, batch=1, m=16, n=16, k=64)
        assert plan._gemm.params == ref.params
