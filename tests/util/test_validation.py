"""Argument validation helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.util.validation import ceil_div, require_positive_int, round_up


class TestPositiveInt:
    def test_accepts(self):
        assert require_positive_int(3, "x") == 3

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "3"])
    def test_rejects(self, bad):
        with pytest.raises(ShapeError):
            require_positive_int(bad, "x")


class TestIntegerRounding:
    @given(st.integers(1, 10**6), st.integers(1, 10**4))
    def test_ceil_div_definition(self, a, b):
        q = ceil_div(a, b)
        assert (q - 1) * b < a <= q * b

    @given(st.integers(1, 10**6), st.integers(1, 10**4))
    def test_round_up_properties(self, a, b):
        r = round_up(a, b)
        assert r >= a
        assert r % b == 0
        assert r - a < b
