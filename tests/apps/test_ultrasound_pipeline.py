"""Ultrasound measurement, Doppler filtering, imaging, real-time analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.ultrasound import (
    ClutterFilter,
    EnsembleConfig,
    ImagingConfig,
    TransducerArray,
    UltrasoundBeamformer,
    VoxelGrid,
    apply_clutter_filter,
    build_model_matrix,
    contrast_db,
    doppler_rate,
    make_phantom,
    max_intensity_projections,
    max_realtime_voxels,
    power_doppler,
    remove_mean,
    render_ascii,
    simulate_frames,
    svd_filter,
    frames_per_second,
    FULL_VOLUME_VOXELS,
    THREE_PLANES_VOXELS,
    REQUIRED_FPS,
)
from repro.ccglib.precision import Precision
from repro.errors import ShapeError
from repro.gpusim.device import Device
from repro.gpusim.specs import get_spec

PROJ_AXIS = {"axial": 0, "coronal": 1, "sagittal": 2}


@pytest.fixture(scope="module")
def small_setup():
    cfg = ImagingConfig(
        array=TransducerArray(4, 4),
        grid=VoxelGrid(shape=(10, 10, 8)),
        n_frequencies=12,
        n_transmissions=6,
    )
    model = build_model_matrix(cfg)
    phantom = make_phantom(cfg.grid, n_generations=3)
    frames = simulate_frames(model, phantom, EnsembleConfig(n_frames=48))
    return cfg, model, phantom, frames


class TestMeasurement:
    def test_shape(self, small_setup):
        cfg, model, phantom, frames = small_setup
        assert frames.shape == (model.k, 48)

    def test_tissue_component_stationary(self, small_setup):
        # Without noise+blood, frames would be identical; with them the
        # frame-to-frame correlation must still be dominated by clutter.
        cfg, model, phantom, frames = small_setup
        c = np.abs(np.vdot(frames[:, 0], frames[:, 1])) / (
            np.linalg.norm(frames[:, 0]) * np.linalg.norm(frames[:, 1])
        )
        assert c > 0.95

    def test_doppler_rate_scaling(self):
        rate = doppler_rate(np.array([1e-2]), 5e6, 1000.0)
        # 2 * v/c * 2*pi*f0 / fr = 2 * (0.01/1540) * 2*pi*5e6 / 1000
        assert rate[0] == pytest.approx(2 * 0.01 / 1540 * 2 * np.pi * 5e6 / 1000)

    def test_phantom_model_mismatch(self, small_setup):
        cfg, model, phantom, _ = small_setup
        other = make_phantom(VoxelGrid(shape=(3, 3, 3)))
        with pytest.raises(ShapeError):
            simulate_frames(model, other, EnsembleConfig(n_frames=4))


class TestClutterFilters:
    def test_mean_removal_exact_dc(self, rng):
        y = (rng.normal(size=(20, 16)) + 1j * rng.normal(size=(20, 16))).astype(np.complex64)
        y += 100.0  # huge DC clutter
        filtered = remove_mean(y)
        assert np.abs(filtered.mean(axis=1)).max() < 1e-4

    def test_svd_removes_dominant_component(self, rng):
        # rank-1 clutter + small noise: one component removal must reduce
        # total power by orders of magnitude.
        u = rng.normal(size=(30, 1))
        v = rng.normal(size=(1, 16))
        clutter = (u @ v).astype(np.complex64) * 100
        noise = rng.normal(size=(30, 16)).astype(np.complex64)
        filtered = svd_filter(clutter + noise, n_components=1)
        assert np.linalg.norm(filtered) < 0.01 * np.linalg.norm(clutter + noise)

    def test_svd_zero_components_identity(self, rng):
        y = rng.normal(size=(5, 4)).astype(np.complex64)
        assert np.array_equal(svd_filter(y, 0), y)

    def test_dispatch(self, small_setup):
        _, _, _, frames = small_setup
        assert np.array_equal(apply_clutter_filter(frames, ClutterFilter.NONE), frames)
        assert not np.array_equal(apply_clutter_filter(frames, ClutterFilter.MEAN), frames)

    def test_power_doppler_shape(self, rng):
        frames = rng.normal(size=(10, 7)).astype(np.complex64)
        assert power_doppler(frames).shape == (10,)


class TestImaging:
    def test_vessels_visible_with_filter(self, small_setup):
        cfg, model, phantom, frames = small_setup
        filtered = apply_clutter_filter(frames, ClutterFilter.SVD, 2)
        bf = UltrasoundBeamformer(Device("A100"), model, n_frames=48, precision=Precision.INT1)
        img = power_doppler(bf.reconstruct(filtered).frames)
        mips = max_intensity_projections(cfg.grid.to_volume(img))
        mask = phantom.blood_mask_volume()
        for name, mip in mips.items():
            assert contrast_db(mip, mask.max(axis=PROJ_AXIS[name])) > 4.0

    def test_paper_ordering_claim(self, small_setup):
        # Sign extraction before Doppler processing loses the signal.
        cfg, model, phantom, frames = small_setup
        bf = UltrasoundBeamformer(Device("A100"), model, n_frames=48, precision=Precision.INT1)
        img_raw = power_doppler(bf.reconstruct(frames).frames)
        mips = max_intensity_projections(cfg.grid.to_volume(img_raw))
        mask = phantom.blood_mask_volume()
        assert contrast_db(mips["axial"], mask.max(axis=0)) < 2.0

    def test_int1_close_to_float16(self, small_setup):
        cfg, model, phantom, frames = small_setup
        filtered = apply_clutter_filter(frames, ClutterFilter.SVD, 2)
        dev = Device("A100")
        img1 = power_doppler(
            UltrasoundBeamformer(dev, model, n_frames=48, precision=Precision.INT1)
            .reconstruct(filtered).frames
        )
        img16 = power_doppler(
            UltrasoundBeamformer(dev, model, n_frames=48, precision=Precision.FLOAT16)
            .reconstruct(filtered).frames
        )
        assert np.corrcoef(img1, img16)[0, 1] > 0.8

    def test_cost_accounting_includes_pack_and_transpose(self, small_setup):
        cfg, model, _, frames = small_setup
        bf = UltrasoundBeamformer(Device("A100"), model, n_frames=48, precision=Precision.INT1)
        result = bf.reconstruct(apply_clutter_filter(frames, ClutterFilter.MEAN))
        names = [c.name for c in result.costs]
        assert names[0] == "transpose"
        assert names[1] == "pack_bits"
        assert names[2].startswith("gemm_int1")

    def test_float16_skips_packing(self, small_setup):
        cfg, model, _, frames = small_setup
        bf = UltrasoundBeamformer(Device("A100"), model, n_frames=48, precision=Precision.FLOAT16)
        result = bf.reconstruct(frames)
        assert [c.name for c in result.costs] == ["transpose", "gemm_float16"]

    def test_measurement_shape_checked(self, small_setup):
        _, model, _, _ = small_setup
        bf = UltrasoundBeamformer(Device("A100"), model, n_frames=48)
        with pytest.raises(ShapeError):
            bf.reconstruct(np.zeros((3, 3), dtype=np.complex64))

    def test_needs_model_or_shapes(self):
        with pytest.raises(ShapeError):
            UltrasoundBeamformer(Device("A100"))

    def test_prepare_model_records_offline_cost(self, small_setup):
        _, model, _, _ = small_setup
        bf = UltrasoundBeamformer(Device("A100"), model, n_frames=48, precision=Precision.INT1)
        bf.prepare_model()
        assert bf.model_prep_cost is not None
        assert bf.model_prep_cost.time_s > 0


class TestMips:
    def test_projection_shapes(self):
        vol = np.zeros((3, 4, 5))
        mips = max_intensity_projections(vol)
        assert mips["axial"].shape == (4, 5)
        assert mips["coronal"].shape == (3, 5)
        assert mips["sagittal"].shape == (3, 4)

    def test_ascii_render(self):
        img = np.random.default_rng(0).random((16, 16))
        art = render_ascii(img, width=20)
        assert len(art.splitlines()) >= 1

    def test_ascii_empty(self):
        assert "empty" in render_ascii(np.zeros((4, 4)))

    def test_contrast_errors(self):
        with pytest.raises(ShapeError):
            contrast_db(np.ones((2, 2)), np.ones((3, 3), dtype=bool))
        with pytest.raises(ShapeError):
            contrast_db(np.ones((2, 2)), np.ones((2, 2), dtype=bool))  # no background


class TestRealTime:
    def test_constants(self):
        assert REQUIRED_FPS == 1000.0
        assert THREE_PLANES_VOXELS == 3 * 128 * 128
        assert FULL_VOLUME_VOXELS == 128**3

    @pytest.mark.parametrize("gpu", ["GH200", "A100", "AD4000"])
    def test_three_planes_real_time(self, gpu):
        point = frames_per_second(get_spec(gpu), THREE_PLANES_VOXELS)
        assert point.real_time
        assert point.fps > 5 * REQUIRED_FPS  # "easily sustain"

    @pytest.mark.parametrize("gpu", ["GH200", "A100", "AD4000"])
    def test_full_volume_not_real_time(self, gpu):
        assert not frames_per_second(get_spec(gpu), FULL_VOLUME_VOXELS).real_time

    def test_gh200_fraction_near_paper(self):
        frac = max_realtime_voxels(get_spec("GH200")) / FULL_VOLUME_VOXELS
        assert 0.75 <= frac <= 0.95  # paper: ~85%

    def test_ordering_gh200_a100_ad4000(self):
        fps = {
            gpu: frames_per_second(get_spec(gpu), FULL_VOLUME_VOXELS).fps
            for gpu in ("GH200", "A100", "AD4000")
        }
        assert fps["GH200"] > fps["A100"] > fps["AD4000"]

    def test_fps_decreases_with_voxels(self):
        spec = get_spec("A100")
        fps = [frames_per_second(spec, v).fps for v in (10**5, 10**6, 2 * 10**6)]
        assert fps == sorted(fps, reverse=True)

    def test_half_frequencies_enable_full_volume(self):
        from repro.apps.ultrasound.realtime import PAPER_REALTIME_K

        for gpu, expected in [("GH200", True), ("A100", True), ("AD4000", False)]:
            point = frames_per_second(get_spec(gpu), FULL_VOLUME_VOXELS, k=PAPER_REALTIME_K // 2)
            assert point.real_time is expected
