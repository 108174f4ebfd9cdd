"""Tests for the local modified Laplacian and its nonlocal extension."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracfocus import kernel2d
from fracfocus.focus import (
    focus_layers,
    local_focus_volume,
    nonlocalize_volume,
    nyquist_hint,
)
from fracfocus.grids import FocalStack, FocusVolume
from fracfocus.io import StackHeader
from fracfocus.kernel2d import build_kernel, correlate_layers


def _index_grid(height, width):
    jj, ii = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    return ii.astype(float), jj.astype(float)


def _random_stack(rng, n_slides=5, height=24, width=24, h=1.0):
    data = rng.random((n_slides, height, width))
    return FocalStack(data, z_min=0.0, z_max=1.0, h=h)


def _measure(slides, q, h=1.0):
    """Layers of ``local_focus_volume`` on a stack of three slides:
    ``slides`` itself, or three copies of one 2D slide."""
    slides = np.broadcast_to(slides, (3,) + np.shape(slides)[-2:])
    return local_focus_volume(FocalStack(slides, 0.0, 1.0, h), q).data


class TestLocalModifiedLaplacian:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_quadratic_field_gives_constant_four(self, q):
        # f = x^2 + y^2 in pixel units: each strided second difference is
        # exactly 2 q^2, and the 1/q^2 scale returns 2 per axis.
        ii, jj = _index_grid(20, 20)
        out = _measure(ii * ii + jj * jj, q)
        interior = out[:, q:-q, q:-q]
        assert np.allclose(interior, 4.0, rtol=1e-13, atol=0)

    def test_linear_ramp_gives_exact_zero(self):
        ii, jj = _index_grid(16, 16)
        out = _measure(3.0 * ii - 7.0 * jj, 2)
        assert np.array_equal(out, np.zeros((3, 16, 16)))

    @pytest.mark.parametrize("q", [1, 3])
    def test_zero_frame_of_width_q(self, q):
        rng = np.random.default_rng(0)
        out = _measure(rng.random((3, 19, 23)), q, h=0.5)
        assert np.all(out[:, :q, :] == 0.0)
        assert np.all(out[:, -q:, :] == 0.0)
        assert np.all(out[:, :, :q] == 0.0)
        assert np.all(out[:, :, -q:] == 0.0)
        # Generic random slides leave no interior zeros.
        assert np.all(out[:, q:-q, q:-q] > 0.0)

    def test_spacing_enters_squared(self):
        ii, jj = _index_grid(14, 14)
        values = ii * ii + 2.0 * jj
        fine = _measure(values, 1, h=1.0)
        coarse = _measure(values, 1, h=2.0)
        assert np.allclose(coarse, fine / 4.0, rtol=1e-13, atol=0)

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        out = _measure(rng.standard_normal((3, 20, 20)), 2)
        assert np.all(out >= 0.0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            _measure(np.zeros((8, 8)), 0)

    @pytest.mark.parametrize("shape", [(8, 4), (4, 8), (4, 4)])
    def test_rejects_slide_smaller_than_stencil(self, shape):
        # The stencil needs at least one interior pixel: both dimensions
        # must exceed 2q.
        with pytest.raises(ValueError):
            _measure(np.zeros(shape), 2)

    def test_accepts_minimal_viable_slide(self):
        assert _measure(np.ones((5, 5)), 2).shape == (3, 5, 5)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2)
        base = rng.random((3, 30, 30))
        shifted = np.roll(base, 3, axis=2)
        q = 2
        out_base = _measure(base, q)
        out_shift = _measure(shifted, q)
        # Compare away from both the frame and the wrap-around columns.
        assert np.array_equal(out_shift[:, q:-q, q + 3:-q],
                              out_base[:, q:-q, q:-q - 3])


class TestLocalFocusVolume:
    def test_layers_match_per_slide_measure(self):
        rng = np.random.default_rng(3)
        stack = _random_stack(rng, h=0.25)
        volume = local_focus_volume(stack, 2)
        assert volume.data.shape == (5, 24, 24)
        # The stride-q stencil written out, in the same rounding order.
        f, q = stack.data, 2
        centre = f[:, q:-q, q:-q]
        d2x = f[:, q:-q, 2 * q:] - 2.0 * centre + f[:, q:-q, :-2 * q]
        d2y = f[:, 2 * q:, q:-q] - 2.0 * centre + f[:, :-2 * q, q:-q]
        expected = np.zeros(f.shape)
        expected[:, q:-q, q:-q] = ((np.abs(d2x) + np.abs(d2y))
                                   * (1.0 / (q * stack.h) ** 2))
        assert np.array_equal(volume.data, expected)

    def test_metadata(self):
        rng = np.random.default_rng(4)
        stack = _random_stack(rng, h=0.5)
        volume = local_focus_volume(stack, 3)
        assert volume.q == 3
        assert volume.alpha is None and volume.zeta is None
        assert (volume.z_min, volume.z_max, volume.h) == (0.0, 1.0, 0.5)

    def test_scale_covariance_dyadic(self):
        rng = np.random.default_rng(5)
        stack = _random_stack(rng)
        base = local_focus_volume(stack, 2)
        scaled = local_focus_volume(
            FocalStack(stack.data * 4.0, z_min=0.0, z_max=1.0, h=stack.h), 2
        )
        # A power-of-two gain commutes with every operation exactly.
        assert np.array_equal(scaled.data, base.data * 4.0)


class TestNonlocalization:
    @pytest.mark.parametrize("zeta", [1, 4, 8])
    def test_order_zero_reduces_to_local(self, zeta):
        rng = np.random.default_rng(6)
        stack = _random_stack(rng, height=26, width=26)
        local = local_focus_volume(stack, 2)
        nonlocal_ = nonlocalize_volume(local_focus_volume(stack, 2),
                                       build_kernel(0.0, zeta))
        assert np.array_equal(nonlocal_.data, local.data)
        assert nonlocal_.alpha == 0.0 and nonlocal_.zeta == zeta

    def test_rejects_double_nonlocalization(self):
        rng = np.random.default_rng(8)
        stack = _random_stack(rng)
        once = nonlocalize_volume(local_focus_volume(stack, 2),
                                  build_kernel(1.0, 2))
        with pytest.raises(ValueError):
            nonlocalize_volume(once, build_kernel(1.0, 2))

    def test_zero_frame_survives_kernel_pass(self):
        rng = np.random.default_rng(9)
        stack = _random_stack(rng)
        q = 2
        volume = nonlocalize_volume(local_focus_volume(stack, q),
                                    build_kernel(1.5, 3))
        for k in range(volume.n_slides):
            layer = volume.data[k]
            assert np.all(layer[:q, :] == 0.0)
            assert np.all(layer[-q:, :] == 0.0)
            assert np.all(layer[:, :q] == 0.0)
            assert np.all(layer[:, -q:] == 0.0)

    def test_uniform_kernel_sums_neighbourhood_in_deep_interior(self):
        # With f = x^2 + y^2 the local measure is exactly 4 everywhere
        # inside the frame, so the all-ones 3x3 kernel returns 9 * 4 at
        # pixels whose whole neighbourhood is interior.
        ii, jj = _index_grid(16, 16)
        data = np.stack([ii * ii + jj * jj] * 3)
        stack = FocalStack(data, z_min=0.0, z_max=1.0, h=1.0)
        volume = nonlocalize_volume(local_focus_volume(stack, 1),
                                    build_kernel(2.0, 1))
        deep = volume.data[:, 2:-2, 2:-2]
        assert np.allclose(deep, 36.0, rtol=1e-12, atol=0)

    def test_non_negative(self):
        rng = np.random.default_rng(10)
        stack = _random_stack(rng)
        volume = nonlocalize_volume(local_focus_volume(stack, 2),
                                    build_kernel(1.5, 2))
        assert np.all(volume.data >= 0.0)

    def test_pooling_smooths_layers(self):
        # The kernel pass is a weighted average over a neighbourhood, so
        # interior variation of each layer can only shrink.
        rng = np.random.default_rng(11)
        stack = _random_stack(rng, height=30, width=30)
        q = 2
        local = local_focus_volume(stack, q)
        pooled = nonlocalize_volume(local, build_kernel(2.0, 2))
        for k in range(stack.n_slides):
            a = local.data[k][q + 2:-q - 2, q + 2:-q - 2]
            b = pooled.data[k][q + 2:-q - 2, q + 2:-q - 2]
            assert np.std(b / 25.0) < np.std(a)


@functools.lru_cache(maxsize=None)
def _cached_kernel(alpha, zeta):
    return build_kernel(alpha, zeta)


@st.composite
def _volumes(draw, max_slides=4):
    """A small local-style focus volume (zero q-frame) and a kernel."""
    q = draw(st.integers(1, 3))
    n_slides = draw(st.integers(1, max_slides))
    height = draw(st.integers(2 * q + 1, 2 * q + 9))
    width = draw(st.integers(2 * q + 1, 2 * q + 9))
    data = draw(arrays(np.float64, (n_slides, height, width),
                       elements=st.floats(0.0, 1e6)))
    data[:, :q, :] = data[:, -q:, :] = 0.0
    data[:, :, :q] = data[:, :, -q:] = 0.0
    volume = FocusVolume(data, q=q, z_min=0.0, z_max=1.0)
    # Reaches up to 16 also cover axes shorter than a quarter of zeta.
    kernel = _cached_kernel(draw(st.sampled_from([0.0, 0.5, 1.5, 2.0])),
                            draw(st.integers(1, 16)))
    return volume, kernel


class TestWholeVolumePass:
    @settings(max_examples=60, deadline=None)
    @given(_volumes())
    def test_equals_per_layer_correlate_layers(self, case):
        volume, kernel = case
        q = volume.q
        got = nonlocalize_volume(volume, kernel).data
        for k in range(volume.n_slides):
            expected = correlate_layers(kernel, volume.data[k])
            expected[:q, :] = expected[-q:, :] = 0.0
            expected[:, :q] = expected[:, -q:] = 0.0
            assert np.array_equal(got[k], expected)

    @settings(max_examples=60, deadline=None)
    @given(_volumes())
    def test_equal_layers_stay_bitwise_equal(self, case):
        # Exact slide ties decide the peak search (first maximum wins), so
        # the pass must not let rounding depend on the layer index.
        volume, kernel = case
        tied = np.concatenate([volume.data, volume.data[-1:]])
        tied_volume = FocusVolume(tied, q=volume.q, z_min=0.0, z_max=1.0)
        out = nonlocalize_volume(tied_volume, kernel).data
        assert np.array_equal(out[-1], out[-2])

    @settings(max_examples=60, deadline=None)
    @given(_volumes(max_slides=7), st.integers(2, 4), st.booleans())
    def test_bits_do_not_depend_on_worker_count(self, case, workers, tied):
        volume, kernel = case
        if tied:
            data = np.repeat(volume.data[:1], volume.n_slides, axis=0)
            volume = FocusVolume(data, q=volume.q, z_min=0.0, z_max=1.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel2d, "_usable_cpus", lambda: 1)
            expected = nonlocalize_volume(volume, kernel).data
            mp.setattr(kernel2d, "_usable_cpus", lambda: workers)
            got = nonlocalize_volume(volume, kernel).data
        assert np.array_equal(got, expected)
        if tied:
            assert all(np.array_equal(layer, got[0]) for layer in got)


class TestFocusLayers:
    @pytest.mark.parametrize("q", [0, 6])
    def test_step_is_checked_when_called(self, tmp_path, q):
        # No slide file exists: a check made on the first next() would
        # report the missing slide instead.
        header = StackHeader(directory=tmp_path, n_slides=3, height=12,
                             width=12, z_min=0.0, z_max=1.0, h=1.0,
                             lossless=True)
        with pytest.raises(ValueError, match="step|too small"):
            focus_layers(header, q, build_kernel(1.0, 2))


class TestNonFiniteMeasure:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_local_volume_rejects_overflow(self):
        # Finite +-1e308 stripes whose second differences overflow to inf.
        stripes = np.where(np.arange(12) % 2 == 0, 1e308, -1e308)
        stack = FocalStack(np.broadcast_to(stripes, (3, 12, 12)),
                           z_min=0.0, z_max=1.0)
        with pytest.raises(ValueError, match="finite"):
            local_focus_volume(stack, 1)


class TestNyquistHint:
    def test_matched_sampling_gives_unit_step(self):
        assert nyquist_hint(0.5, 1.0) == 1

    def test_published_arithmetic_examples(self):
        assert nyquist_hint(2.0, 1.0) == 4
        assert nyquist_hint(1.0 / 0.3, 1.0) == 7

    def test_half_up_rounding(self):
        # 2 * 1.25 / 1.0 = 2.5 rounds up, not to even.
        assert nyquist_hint(1.25, 1.0) == 3

    def test_clamped_to_one(self):
        assert nyquist_hint(1e-6, 1.0) == 1

    def test_rejects_bad_arguments(self):
        # The function's own error, not numpy's NaN-to-integer ValueError.
        for wavelength, h in [(0.0, 1.0), (1.0, 0.0), (math.inf, 1.0),
                              (math.nan, 1.0), (1.0, math.nan),
                              (1.0, math.inf)]:
            with pytest.raises(ValueError, match="finite and positive"):
                nyquist_hint(wavelength, h)
