"""Validation tests for the shared data carriers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from fracfocus.grids import DepthMap, FocalStack, FocusVolume, finite_min


class TestFiniteMin:
    # +-1e308 catch a shortcut that overflows, such as testing min + max.
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64,
                  array_shapes(min_dims=1, max_dims=3, min_side=0,
                               max_side=5),
                  elements=st.sampled_from([0.0, -2.5, 1e308, -1e308,
                                            np.nan, np.inf, -np.inf])))
    def test_is_none_exactly_when_a_value_is_not_finite(self, x):
        lowest = finite_min(x)
        assert (lowest is not None) == bool(np.isfinite(x).all())
        if lowest is not None and x.size:
            assert lowest == x.min()

    def test_empty_array_passes(self):
        assert finite_min(np.zeros((0, 4))) == np.inf


class TestFocalStack:
    def test_slide_geometry(self):
        stack = FocalStack(np.zeros((5, 4, 6)), z_min=1.0, z_max=3.0, h=0.5)
        assert stack.n_slides == 5
        assert stack.delta_z == 0.5

    def test_rejects_too_few_slides(self):
        with pytest.raises(ValueError):
            FocalStack(np.zeros((2, 4, 4)), z_min=0.0, z_max=1.0)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            FocalStack(np.zeros((3, 4, 4)), z_min=1.0, z_max=1.0)

    def test_rejects_non_finite(self):
        data = np.zeros((3, 4, 4))
        data[1, 2, 2] = np.inf
        with pytest.raises(ValueError):
            FocalStack(data, z_min=0.0, z_max=1.0)

    @pytest.mark.parametrize("field, value", [
        ("z_min", -np.inf), ("z_max", np.inf), ("h", np.inf),
        ("z_min", np.nan), ("h", np.nan)])
    def test_rejects_non_finite_geometry(self, field, value):
        geometry = {"z_min": 0.0, "z_max": 1.0, "h": 0.1, field: value}
        with pytest.raises(ValueError, match="finite"):
            FocalStack(np.zeros((3, 4, 4)), **geometry)

    def test_finite_check_allocates_no_array_sized_temporary(self):
        data = np.zeros((16, 256, 256))  # 8 MiB; a boolean mask is 1 MiB
        tracemalloc.start()
        try:
            FocalStack(data, 0.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestFocusVolume:
    def test_layer_access(self):
        volume = FocusVolume(np.ones((3, 5, 5)), q=2, z_min=0.0, z_max=1.0, h=0.3)
        assert volume.data[1].shape == (5, 5)
        assert volume.h == 0.3
        assert volume.delta_z == 0.5

    def test_rejects_negative_measure(self):
        data = np.ones((3, 4, 4))
        data[0, 0, 0] = -1e-9
        with pytest.raises(ValueError):
            FocusVolume(data, q=1, z_min=0.0, z_max=1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_measure(self, bad):
        data = np.ones((3, 4, 4))
        data[1, 2, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            FocusVolume(data, q=1, z_min=0.0, z_max=1.0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            FocusVolume(np.ones((3, 4, 4)), q=0, z_min=0.0, z_max=1.0)


class TestDepthMap:
    def test_method_classification(self):
        values = np.zeros((2, 2))
        valid = np.ones((2, 2), bool)
        truth = DepthMap(values, valid)
        local = DepthMap(values, valid, q=2)
        nonlocal_ = DepthMap(values, valid, q=2, alpha=1.5, zeta=4)
        assert truth.method == "truth"
        assert local.method == "local"
        assert nonlocal_.method == "nonlocal"

    def test_nan_allowed_only_at_invalid_pixels(self):
        values = np.array([[0.5, np.nan]])
        valid = np.array([[True, False]])
        depth = DepthMap(values, valid)
        assert depth.valid.tolist() == [[True, False]]
        with pytest.raises(ValueError):
            DepthMap(values, np.array([[True, True]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            DepthMap(np.zeros((2, 2)), np.ones((2, 3), bool))
