"""Validation tests for the shared data carriers."""

import numpy as np
import pytest

from fracfocus.grids import DepthMap, FocalStack, FocusVolume, ScalarField


class TestScalarField:
    def test_coerces_to_float_array(self):
        field = ScalarField([[1, 2], [3, 4]], h=0.5)
        assert field.values.dtype == np.float64
        assert (field.height, field.width) == (2, 2)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            ScalarField(np.zeros(5))
        with pytest.raises(ValueError):
            ScalarField(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ScalarField(np.array([[1.0, np.nan]]))

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            ScalarField(np.ones((2, 2)), h=0.0)


class TestFocalStack:
    def test_slide_geometry(self):
        stack = FocalStack(np.zeros((5, 4, 6)), z_min=1.0, z_max=3.0, h=0.5)
        assert stack.n_slides == 5
        assert (stack.height, stack.width) == (4, 6)
        assert stack.delta_z == 0.5
        assert np.array_equal(stack.z_values, [1.0, 1.5, 2.0, 2.5, 3.0])

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

    def test_with_metadata_returns_updated_copy(self):
        depth = DepthMap(np.zeros((2, 2)), np.ones((2, 2), bool), q=1)
        updated = depth.with_metadata(alpha=1.0, zeta=2)
        assert updated.method == "nonlocal"
        assert depth.method == "local"
        assert np.array_equal(updated.values, depth.values)
