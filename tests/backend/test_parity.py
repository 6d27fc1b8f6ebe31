"""Cross-backend parity: every importable backend vs the NumPy reference.

Parameterized over :func:`repro.backend.available_backends`, so on a plain
CI host this pins the NumPy backend against itself (exercising the backend
code paths), and on the optional-backends job (``jax[cpu]`` installed) the
same tests become genuine cross-library parity checks — pack -> transpose
-> GEMM round trips, and the LOFAR beamformer end to end, within the
per-precision tolerances of :data:`repro.ccglib.precision.PARITY_TOLERANCES`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.radioastronomy import (
    LOFARBeamformer,
    Observation,
    PointSource,
    ReferenceBeamformer,
    beam_grid,
    generate_station_data,
    lofar_like_layout,
    steering_weights,
)
from repro.backend import available_backends, get_backend, numpy_backend
from repro.backend.conformance import check_backend
from repro.ccglib.bit_gemm import bit_gemm_reference, complex_bit_gemm
from repro.ccglib.complex_mma import (
    _chunk_items,
    complex_mma_f16_batched,
    complex_mma_tf32_batched,
)
from repro.ccglib.gemm import gemm_once
from repro.ccglib.layouts import to_planar
from repro.ccglib.packing import pack_sign_planar, unpack_sign_planar
from repro.ccglib.precision import PARITY_TOLERANCES, Precision, parity_tolerance
from repro.ccglib.transpose import planar_to_kmajor
from repro.gpusim.device import Device
from tests.conftest import GenericNumpyBackend

BACKENDS = list(available_backends())

per_backend = pytest.mark.parametrize("backend_name", BACKENDS)


def _pad32(k: int) -> int:
    return -(-k // 32) * 32


@st.composite
def _problem(draw):
    batch = draw(st.integers(1, 3))
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 70))
    seed = draw(st.integers(0, 2**31))
    return batch, m, n, k, seed


def _operands(batch, m, n, k, seed):
    rng = np.random.default_rng(seed)
    a = (rng.normal(size=(batch, m, k)) + 1j * rng.normal(size=(batch, m, k)))
    b = (rng.normal(size=(batch, k, n)) + 1j * rng.normal(size=(batch, k, n)))
    return a.astype(np.complex64), b.astype(np.complex64)


@per_backend
class TestConformance:
    def test_backend_is_conformant(self, backend_name):
        assert check_backend(get_backend(backend_name)) == []


@per_backend
class TestPackRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(case=_problem())
    def test_pack_unpack_matches_numpy_bitwise(self, backend_name, case):
        batch, m, _, k, seed = case
        be = get_backend(backend_name)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(batch, 2, m, k)).astype(np.float32)
        values[values == 0] = 1.0

        words = be.to_numpy(pack_sign_planar(values, k_pad_to=_pad32(k), backend=be))
        words_ref = np.asarray(pack_sign_planar(values, k_pad_to=_pad32(k)))
        assert words.dtype == np.uint32
        assert np.array_equal(words, words_ref)

        signs = be.to_numpy(unpack_sign_planar(be.asarray(words), k, backend=be))
        assert np.array_equal(signs, np.where(values >= 0, 1, -1).astype(np.int8))

    def test_transpose_is_exact(self, backend_name):
        be = get_backend(backend_name)
        rng = np.random.default_rng(11)
        planar = rng.normal(size=(3, 2, 17, 9)).astype(np.float32)
        got = be.to_numpy(planar_to_kmajor(be.asarray(planar), backend=be))
        assert np.array_equal(got, np.asarray(planar_to_kmajor(planar)))


@per_backend
class TestGemmParity:
    @settings(max_examples=15, deadline=None)
    @given(case=_problem())
    def test_int1_pipeline_exact(self, backend_name, case):
        batch, m, n, k, seed = case
        be = get_backend(backend_name)
        a, b = _operands(batch, m, n, k, seed)
        a_planar = np.asarray(to_planar(a))
        b_km = planar_to_kmajor(np.asarray(to_planar(b)))

        aw = pack_sign_planar(a_planar, k_pad_to=_pad32(k), backend=be)
        bw = pack_sign_planar(b_km, k_pad_to=_pad32(k), backend=be)
        got = be.to_numpy(complex_bit_gemm(aw, bw, k_valid=k, backend=be))

        aw_ref = pack_sign_planar(a_planar, k_pad_to=_pad32(k))
        bw_ref = pack_sign_planar(b_km, k_pad_to=_pad32(k))
        want = np.asarray(complex_bit_gemm(aw_ref, bw_ref, k_valid=k))
        tol = parity_tolerance(Precision.INT1)
        assert tol.rtol == tol.atol == 0.0
        assert np.array_equal(got, want)
        # ... and both equal the unpacked oracle on the sign bits.
        a_bits = (a_planar >= 0).astype(np.uint8)
        b_bits = (b_km >= 0).astype(np.uint8)
        oracle = np.stack([bit_gemm_reference(x, y) for x, y in zip(a_bits, b_bits)])
        assert np.array_equal(got, oracle)

    @settings(max_examples=15, deadline=None)
    @given(case=_problem())
    def test_f16_within_tolerance(self, backend_name, case):
        batch, m, n, k, seed = case
        be = get_backend(backend_name)
        ref = numpy_backend()
        a, b = _operands(batch, m, n, k, seed)
        a_planar, b_planar = np.asarray(to_planar(a)), np.asarray(to_planar(b))
        got = be.to_numpy(complex_mma_f16_batched(a_planar, b_planar, backend=be))
        want = np.asarray(complex_mma_f16_batched(a_planar, b_planar, backend=ref))
        tol = parity_tolerance(Precision.FLOAT16)
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(
            got / scale, want / scale, rtol=tol.rtol, atol=tol.atol
        )

    @settings(max_examples=15, deadline=None)
    @given(case=_problem())
    def test_tf32_within_tolerance(self, backend_name, case):
        batch, m, n, k, seed = case
        be = get_backend(backend_name)
        ref = numpy_backend()
        a, b = _operands(batch, m, n, k, seed)
        a_planar, b_planar = np.asarray(to_planar(a)), np.asarray(to_planar(b))
        got = be.to_numpy(complex_mma_tf32_batched(a_planar, b_planar, backend=be))
        want = np.asarray(complex_mma_tf32_batched(a_planar, b_planar, backend=ref))
        tol = parity_tolerance(Precision.TF32)
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(
            got / scale, want / scale, rtol=tol.rtol, atol=tol.atol
        )


@per_backend
class TestEndToEnd:
    @pytest.mark.parametrize("precision", [Precision.FLOAT16, Precision.INT1])
    def test_gemm_entry_point_matches_numpy(self, backend_name, precision):
        be = get_backend(backend_name)
        device = Device("A100")
        a, b = _operands(2, 8, 6, 33, seed=42)
        got_res = gemm_once(device, precision, a, b, backend=be)
        want_res = gemm_once(Device("A100"), precision, a, b)
        got = be.to_numpy(got_res.output)
        want = np.asarray(want_res.output)
        tol = parity_tolerance(precision)
        if tol.rtol == tol.atol == 0.0:
            assert np.array_equal(got, want)
        else:
            scale = max(1.0, float(np.max(np.abs(want))))
            np.testing.assert_allclose(
                got / scale, want / scale, rtol=tol.rtol, atol=tol.atol
            )


class TestLofarParity:
    """``LOFARBeamformer.form_beams`` on every backend against the NumPy
    plan, at a channel batch spanning several chunks of the NumPy MMA."""

    #: beams, stations, samples, channels (the batch).
    DIMS = (64, 24, 256, 16)

    @pytest.fixture(scope="class")
    def observation(self):
        n_beams, n_stations, n_samples, n_channels = self.DIMS
        layout = lofar_like_layout(n_stations)
        obs = Observation(layout=layout, n_channels=n_channels, n_samples=n_samples)
        data = generate_station_data(obs, [PointSource(dir_l=0.004, dir_m=-0.006, flux=4.0)])
        dirs = beam_grid(n_beams, fov_radius=0.012)
        weights = steering_weights(layout, obs.channel_frequencies(), dirs)
        numpy_beams = LOFARBeamformer(Device("A100"), *self.DIMS).form_beams(weights, data).beams
        return weights, data, numpy_beams

    def test_batch_spans_several_chunks(self):
        n_beams, n_stations, n_samples, n_channels = self.DIMS
        step = _chunk_items(n_channels, n_beams, n_stations, n_samples)
        assert -(-n_channels // step) >= 3

    def test_numpy_matches_the_reference_beamformer(self, observation):
        weights, data, numpy_beams = observation
        ref, _ = ReferenceBeamformer(Device("A100"), *self.DIMS).form_beams(weights, data)
        assert np.abs(numpy_beams - ref).max() / np.abs(ref).max() < 2e-3

    @pytest.mark.parametrize(
        "backend", [*BACKENDS, GenericNumpyBackend()], ids=lambda b: getattr(b, "name", b)
    )
    def test_form_beams_matches_numpy(self, observation, backend):
        weights, data, numpy_beams = observation
        be = get_backend(backend)
        bf = LOFARBeamformer(Device("A100"), *self.DIMS, backend=be)
        got = be.to_numpy(bf.form_beams(weights, data).beams)
        tol = PARITY_TOLERANCES[Precision.FLOAT16]
        scale = max(1.0, float(np.max(np.abs(numpy_beams))))
        assert got.shape == numpy_beams.shape
        np.testing.assert_allclose(
            got / scale, numpy_beams / scale, rtol=tol.rtol, atol=tol.atol
        )
