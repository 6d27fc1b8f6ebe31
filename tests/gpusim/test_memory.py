"""Device memory pool: accounting, capacity, functional vs dry-run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MemoryError_
from repro.gpusim.memory import MemoryPool
from repro.gpusim.specs import get_spec


@pytest.fixture
def pool():
    return MemoryPool(get_spec("A100"))


class TestAllocation:
    def test_accounting(self, pool):
        buf = pool.allocate((1024,), np.float32, materialize=True)
        assert buf.nbytes == 4096
        with pytest.raises(MemoryError_):
            pool.allocate((pool.capacity_bytes - 4095,), np.uint8, materialize=False)
        pool.free(buf)
        pool.allocate((pool.capacity_bytes,), np.uint8, materialize=False)

    def test_capacity_enforced(self, pool):
        with pytest.raises(MemoryError_, match="exceeds device memory"):
            pool.allocate((pool.capacity_bytes + 1,), np.uint8, materialize=False)

    def test_dry_run_tracks_paper_scale_without_ram(self, pool):
        # 38880 x 524288 complex64 would be ~152 GiB materialized... the
        # A100 has 40 GiB, so this must fail on capacity, not on host RAM.
        with pytest.raises(MemoryError_):
            pool.allocate((38880, 524288), np.complex64, materialize=False)

    def test_dry_run_buffer_not_materialized(self, pool):
        buf = pool.allocate((16,), np.float32, materialize=False)
        assert buf.data is None

    def test_free_idempotent(self, pool):
        buf = pool.allocate((4,), np.int32, materialize=True)
        pool.free(buf)
        pool.free(buf)
        # Freed once: exactly the full capacity is available again.
        pool.allocate((pool.capacity_bytes,), np.uint8, materialize=False)
        with pytest.raises(MemoryError_):
            pool.allocate((1,), np.uint8, materialize=False)

    def test_fill_value(self, pool):
        buf = pool.allocate((8,), np.float32, materialize=True, fill=2.5)
        assert np.all(buf.data == 2.5)


class TestUpload:
    def test_functional_copy(self, pool):
        host = np.arange(10, dtype=np.int64)
        buf = pool.upload(host, materialize=True)
        host[0] = 99  # device copy must be independent
        assert buf.data[0] == 0

    def test_dry_upload_metadata_only(self, pool):
        buf = pool.upload(np.zeros((3, 4), dtype=np.float16), materialize=False)
        assert buf.shape == (3, 4)
        assert buf.nbytes == 24
        assert buf.data is None
