"""Unit tests for validation helpers."""

from __future__ import annotations

import math

import pytest

from repro.utils.validation import (
    check_integer,
    check_non_negative,
    check_positive,
    check_probability,
    check_real,
)


class TestCheckProbability:
    def test_accepts_bounds_by_default(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        assert check_probability("p", 0.5) == 0.5

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_probability("p", 0.0, allow_zero=False)
        with pytest.raises(ValueError):
            check_probability("p", 1.0, allow_one=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_probability("p", -0.01)
        with pytest.raises(ValueError):
            check_probability("p", 1.01)

    def test_error_message_names_parameter(self):
        with pytest.raises(ValueError, match="my_param"):
            check_probability("my_param", 2.0)


class TestCheckReal:
    def test_accepts_int_and_float(self):
        assert check_real("x", 3) == 3.0
        assert check_real("x", 2.5) == 2.5

    def test_rejects_bool_and_str(self):
        with pytest.raises(TypeError):
            check_real("x", True)
        with pytest.raises(TypeError):
            check_real("x", "1.0")

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            check_real("x", math.nan)
        with pytest.raises(ValueError):
            check_real("x", math.inf)


class TestCheckPositiveAndNonNegative:
    def test_positive(self):
        assert check_positive("x", 0.1) == 0.1
        with pytest.raises(ValueError):
            check_positive("x", 0.0)

    def test_non_negative(self):
        assert check_non_negative("x", 0.0) == 0.0
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)


class TestCheckInteger:
    def test_bounds(self):
        assert check_integer("k", 3, minimum=0, maximum=5) == 3
        with pytest.raises(ValueError):
            check_integer("k", -1, minimum=0)
        with pytest.raises(ValueError):
            check_integer("k", 6, maximum=5)

    def test_type_errors(self):
        with pytest.raises(TypeError):
            check_integer("k", 2.0)
        with pytest.raises(TypeError):
            check_integer("k", True)

    def test_numpy_integers_accepted(self):
        import numpy as np

        assert check_integer("k", np.int64(4)) == 4
