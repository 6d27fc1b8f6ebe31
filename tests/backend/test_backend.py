"""Backend registry, protocol defaults, and the NumPy reference backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    ArrayBackend,
    NumpyBackend,
    available_backends,
    backend_versions,
    get_backend,
    numpy_backend,
)
from repro.backend.conformance import check_backend
from repro.errors import BackendError


class TestRegistry:
    def test_numpy_always_available_and_first(self):
        names = available_backends()
        assert names[0] == "numpy"

    def test_get_backend_none_is_numpy_reference(self):
        assert get_backend(None) is numpy_backend()
        assert get_backend("numpy") is numpy_backend()

    def test_get_backend_passes_instances_through(self):
        be = numpy_backend()
        assert get_backend(be) is be

    def test_unknown_backend_lists_available(self):
        with pytest.raises(BackendError, match="available: numpy"):
            get_backend("tensorflow")

    def test_known_but_absent_backend_is_a_clean_error(self):
        # cupy is registered but (in CI) not importable: either outcome is a
        # BackendError naming the available set, never an ImportError.
        if "cupy" in available_backends():
            pytest.skip("cupy importable here; absence path not reachable")
        with pytest.raises(BackendError, match="not available"):
            get_backend("cupy")

    def test_versions_cover_exactly_the_available_set(self):
        versions = backend_versions()
        assert set(versions) == set(available_backends())
        assert all(isinstance(v, str) and v for v in versions.values())

    def test_a_registered_factory_is_probed_once_and_served(self):
        from repro import backend as _pkg

        class _Fake(NumpyBackend):
            name = "fake-be"

        try:
            _pkg._FACTORIES["fake-be"] = _Fake
            assert "fake-be" in available_backends()
            assert isinstance(get_backend("fake-be"), _Fake)
            assert get_backend("fake-be") is get_backend("fake-be")
        finally:
            _pkg._FACTORIES.pop("fake-be", None)
            _pkg._INSTANCES.pop("fake-be", None)

    def test_failing_factory_reported_not_raised(self):
        from repro import backend as _pkg

        def _broken() -> ArrayBackend:
            raise BackendError("deliberately unusable")

        try:
            _pkg._FACTORIES["broken-be"] = _broken
            assert "broken-be" not in available_backends()
            with pytest.raises(BackendError, match="deliberately unusable"):
                get_backend("broken-be")
        finally:
            _pkg._FACTORIES.pop("broken-be", None)
            _pkg._PROBE_FAILURES.pop("broken-be", None)


class TestNumpyBackend:
    def test_conformant(self):
        assert check_backend(numpy_backend()) == []

    def test_roundtrip_is_zero_copy_for_ndarrays(self):
        be = numpy_backend()
        host = np.arange(4, dtype=np.float32)
        assert be.asarray(host) is host  # np.asarray no-op
        assert np.shares_memory(be.astype(host, np.float32), host)

    def test_popcount_matches_swar_default(self):
        # The reference delegates to util.bits; the protocol default is the
        # SWAR reduction — both must agree everywhere.
        from repro.backend import _popcount_swar

        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**32, size=257, dtype=np.uint32)
        be = numpy_backend()
        assert np.array_equal(be.popcount(words), _popcount_swar(words, np))

    def test_bitcast_is_a_view(self):
        be = numpy_backend()
        f = np.array([1.5, -0.0], dtype=np.float32)
        bits = be.bitcast(f, np.uint32)
        assert bits.dtype == np.uint32
        assert np.shares_memory(bits, f)
        assert np.array_equal(be.bitcast(bits, np.float32), f)

    def test_synchronize_is_a_noop(self):
        assert numpy_backend().synchronize() is None

    def test_identity_strings(self):
        be = numpy_backend()
        assert be.name == "numpy"
        assert be.version == np.__version__
        assert be.device_kind == "cpu"
        assert be.device_of(np.zeros(1)) == "cpu"
        assert be.dtype_of(np.zeros(1, dtype=np.complex64)) == np.complex64


class TestConformance:
    def test_broken_backend_is_caught(self):
        class _Broken(NumpyBackend):
            name = "broken"

            def popcount(self, words):
                return super().popcount(words) + 1  # off-by-one everywhere

        problems = check_backend(_Broken())
        assert any("popcount" in p for p in problems)

    def test_bad_identity_is_caught(self):
        class _NoVersion(NumpyBackend):
            name = "noversion"

            @property
            def version(self):
                return ""

        assert any("version" in p for p in check_backend(_NoVersion()))

    def test_wrong_matmul_is_caught(self):
        class _Scaled(NumpyBackend):
            name = "scaled"

            def matmul(self, a, b):
                return 2.0 * np.matmul(a, b)

        assert any("matmul" in p for p in check_backend(_Scaled()))
