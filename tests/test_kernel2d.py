"""Tests for the 2D nonlocalization kernel, its application and its spectrum."""

import functools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracfocus import kernel2d
from fracfocus.kernel2d import (
    Kernel,
    build_kernel,
    correlate_layers,
    kernel_frequency_response,
)

from kernel_reference import REFERENCE_QUADRANTS, adaptive_kernel_weights


@pytest.fixture(scope="module")
def kernels_zeta4():
    return {a: build_kernel(a, 4) for a in (0.0, 0.5, 1.0, 1.5, 2.0)}


class TestReferenceWeights:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_quadrant_values(self, kernels_zeta4, alpha):
        kernel = kernels_zeta4[alpha]
        for (i, j), expected in REFERENCE_QUADRANTS[alpha].items():
            assert kernel.at(i, j) == pytest.approx(expected, abs=5e-6), (i, j)

    def test_alpha_zero_is_exact_delta(self, kernels_zeta4):
        weights = kernels_zeta4[0.0].weights
        expected = np.zeros((9, 9))
        expected[4, 4] = 1.0
        assert np.array_equal(weights, expected)

    def test_alpha_two_is_exact_ones(self, kernels_zeta4):
        assert np.array_equal(kernels_zeta4[2.0].weights, np.ones((9, 9)))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_center_is_exactly_one(self, kernels_zeta4, alpha):
        assert kernels_zeta4[alpha].at(0, 0) == 1.0

    def test_weights_increase_with_order_at_fixed_offset(self, kernels_zeta4):
        for offset in [(0, 1), (1, 1), (2, 3), (4, 4)]:
            values = [kernels_zeta4[a].at(*offset) for a in (0.0, 0.5, 1.0, 1.5, 2.0)]
            assert values == sorted(values)
            assert len(set(values)) == len(values)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("zeta", [2, 4, 8])
    def test_axis_weights_decrease_with_radius(self, alpha, zeta):
        kernel = build_kernel(alpha, zeta)
        axis = [kernel.at(0, j) for j in range(zeta + 1)]
        diagonal = [kernel.at(j, j) for j in range(zeta + 1)]
        for row in (axis, diagonal):
            assert all(a > b for a, b in zip(row, row[1:]))

    def test_build_is_deterministic(self):
        a = build_kernel(1.5, 3)
        b = build_kernel(1.5, 3)
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310, 1e-300])
    def test_tiny_order_builds_a_valid_kernel(self, alpha):
        # The center integral's 1/alpha overflows here; the build must not.
        kernel = build_kernel(alpha, 2)
        off_center = np.delete(kernel.weights.ravel(), kernel.weights.size // 2)
        assert kernel.at(0, 0) == 1.0
        assert np.all(off_center <= alpha)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
       st.integers(1, 16))
@example(1e-310, 3)
@example(1.9999, 16)
def test_build_matches_adaptive_quadrature(alpha, zeta):
    got = build_kernel(alpha, zeta).weights
    assert np.max(np.abs(got - adaptive_kernel_weights(alpha, zeta))) <= 1e-14


class TestKernelValidation:
    def test_at_matches_array_layout(self, kernels_zeta4):
        kernel = kernels_zeta4[1.0]
        assert kernel.at(-2, 3) == kernel.weights[2, 7]

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            Kernel(alpha=1.0, zeta=2, weights=np.ones((3, 3)))

    def test_rejects_center_not_one(self):
        weights = np.full((3, 3), 0.5)
        with pytest.raises(ValueError):
            Kernel(alpha=1.0, zeta=1, weights=weights)

    def test_rejects_asymmetric_weights(self):
        weights = np.full((3, 3), 0.5)
        weights[1, 1] = 1.0
        weights[0, 1] = 0.9
        with pytest.raises(ValueError):
            Kernel(alpha=1.0, zeta=1, weights=weights)

    def test_rejects_out_of_range_entries(self):
        weights = np.zeros((3, 3))
        weights[1, 1] = 1.0
        weights[0, 0] = weights[0, 2] = weights[2, 0] = weights[2, 2] = -0.1
        with pytest.raises(ValueError):
            Kernel(alpha=1.0, zeta=1, weights=weights)

    @pytest.mark.parametrize("alpha", [-0.5, 2.5])
    def test_build_rejects_order_outside_range(self, alpha):
        with pytest.raises(ValueError):
            build_kernel(alpha, 2)

    def test_build_rejects_bad_cutoff(self):
        for zeta in (0, 2.7, math.nan, math.inf):
            with pytest.raises(ValueError):
                build_kernel(1.0, zeta)

    @pytest.mark.parametrize("zeta", [4, np.int64(4), 4.0])
    def test_build_accepts_integral_cutoff(self, zeta):
        kernel = build_kernel(1.0, zeta)
        assert kernel.zeta == 4 and type(kernel.zeta) is int


def _brute_force_apply(kernel, values):
    """Exact reference for a 2D array: explicit mirror indexing, and each
    window's rounded products summed without further rounding error by
    ``math.fsum``."""

    def reflect(idx, n):
        while not 0 <= idx < n:
            idx = -idx - 1 if idx < 0 else 2 * n - 1 - idx
        return idx

    height, width = values.shape
    out = np.zeros_like(values)
    zeta = kernel.zeta
    for y in range(height):
        for x in range(width):
            out[y, x] = math.fsum(
                kernel.weights[zeta + di, zeta + dj]
                * values[reflect(y + di, height), reflect(x + dj, width)]
                for di in range(-zeta, zeta + 1)
                for dj in range(-zeta, zeta + 1))
    return out


class TestApplyKernel:
    def test_delta_kernel_is_identity(self, kernels_zeta4):
        rng = np.random.default_rng(5)
        values = rng.random((12, 17))
        out = correlate_layers(kernels_zeta4[0.0], values)
        assert np.array_equal(out, values)
        # The identity must still be a copy, not a view.
        out[0, 0] += 1.0
        assert values[0, 0] != out[0, 0]

    def test_constant_field_scales_by_weight_sum(self, kernels_zeta4):
        out = correlate_layers(kernels_zeta4[2.0], np.ones((10, 10)))
        # All-ones 9x9 kernel and mirror padding: every output is 81.
        assert np.allclose(out, 81.0, rtol=0, atol=1e-12)

    def test_matches_brute_force_on_random_field(self):
        rng = np.random.default_rng(42)
        kernel = build_kernel(1.0, 2)
        values = rng.random((16, 16))
        expected = _brute_force_apply(kernel, values)
        got = correlate_layers(kernel, values)
        assert np.allclose(got, expected, rtol=0, atol=1e-12)

    def test_non_square_field(self):
        rng = np.random.default_rng(7)
        kernel = build_kernel(1.5, 3)
        values = rng.random((9, 21))
        expected = _brute_force_apply(kernel, values)
        got = correlate_layers(kernel, values)
        assert got.shape == (9, 21)
        assert np.allclose(got, expected, rtol=0, atol=1e-12)

    def test_preserves_non_negativity(self, kernels_zeta4):
        rng = np.random.default_rng(3)
        out = correlate_layers(kernels_zeta4[1.5], rng.random((20, 20)))
        assert np.all(out >= 0.0)

    def test_repeat_application_is_bit_stable(self, kernels_zeta4):
        rng = np.random.default_rng(9)
        values = rng.random((15, 15))
        first = correlate_layers(kernels_zeta4[1.0], values)
        second = correlate_layers(kernels_zeta4[1.0], values)
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("shape,zeta", [((1, 2), 8), ((2, 2), 8),
                                            ((3, 1), 12), ((2, 9), 16)])
    def test_reach_far_beyond_a_short_axis(self, shape, zeta):
        # Mirror padding must reflect back and forth across an axis that is
        # many times shorter than the kernel reach.
        rng = np.random.default_rng(13)
        kernel = build_kernel(1.5, zeta)
        values = rng.random(shape)
        expected = _brute_force_apply(kernel, values)
        got = correlate_layers(kernel, values)
        assert np.allclose(got, expected, rtol=0, atol=1e-12)


@functools.lru_cache(maxsize=None)
def _cached_kernel(alpha, zeta):
    return build_kernel(alpha, zeta)


@st.composite
def _fields(draw, max_side=10):
    height = draw(st.integers(1, max_side))
    width = draw(st.integers(1, max_side))
    return draw(arrays(np.float64, (height, width),
                       elements=st.floats(0.0, 1.0)))


@settings(max_examples=60, deadline=None)
@given(_fields(), st.integers(1, 16), st.sampled_from([0.0, 0.5, 1.5, 2.0]))
# The widest window of values near 1: 1089 terms summing to about 1089.
@example(np.random.default_rng(0).uniform(0.99, 1.0, (6, 6)), 16, 2.0)
def test_correlate_layers_matches_brute_force(values, zeta, alpha):
    kernel = _cached_kernel(alpha, zeta)
    expected = _brute_force_apply(kernel, values)
    got = correlate_layers(kernel, values)
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12), st.integers(2, 6),
       st.integers(1, 4), st.sampled_from([0.5, 1.5, 2.0]),
       st.integers(1, 48), st.integers(0, 2**32 - 1))
@example(3, 5, 8, 2, 1.5, 20, 0)
def test_equal_windows_give_equal_bits_across_strips(
        period, width, repeats, zeta, alpha, strip_samples, seed):
    # A vertically periodic field, taller than one strip, so that equal
    # mirrored windows recur in different strips of the pass.
    rng = np.random.default_rng(seed)
    tile = rng.choice([0.0, 0.1, 0.3, 0.7, 1.0], size=(period, width))
    values = np.tile(tile, (repeats, 1))
    kernel = _cached_kernel(alpha, zeta)
    whole = correlate_layers(kernel, values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel2d, "_STRIP_SAMPLES", strip_samples)
        got = correlate_layers(kernel, values)
    assert np.array_equal(got, whole)
    size = 2 * zeta + 1
    windows = np.lib.stride_tricks.sliding_window_view(
        np.pad(values, zeta, mode="symmetric"), (size, size))
    _, group = np.unique(windows.reshape(values.size, -1), axis=0,
                         return_inverse=True)
    group = group.ravel()
    representative = np.empty(group.max() + 1)
    representative[group] = got.ravel()
    assert np.array_equal(got.ravel(), representative[group])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(1, 10), st.integers(1, 10),
       st.integers(1, 16), st.sampled_from([0.0, 0.5, 1.5, 2.0]),
       st.integers(2, 4), st.booleans(), st.integers(0, 2**32 - 1))
# Both axes many times shorter than the kernel reach.
@example(7, 2, 3, 16, 1.5, 3, False, 0)
@example(5, 1, 2, 8, 0.5, 4, True, 1)
def test_correlate_layers_bits_do_not_depend_on_worker_count(
        n_slides, height, width, zeta, alpha, workers, tied, seed):
    rng = np.random.default_rng(seed)
    values = rng.random((1 if tied else n_slides, height, width))
    values = np.repeat(values, n_slides, axis=0) if tied else values
    kernel = _cached_kernel(alpha, zeta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel2d, "_usable_cpus", lambda: 1)
        expected = correlate_layers(kernel, values)
        mp.setattr(kernel2d, "_usable_cpus", lambda: workers)
        got = correlate_layers(kernel, values)
    assert np.array_equal(got, expected)
    if tied:
        # Exact ties between layers survive whichever block a layer is in.
        assert all(np.array_equal(layer, got[0]) for layer in got)


class TestFrequencyResponse:
    def test_zero_frequency_is_weight_sum(self, kernels_zeta4):
        for alpha, kernel in kernels_zeta4.items():
            got = kernel_frequency_response(kernel, 0.0, 0.0)
            assert got == pytest.approx(float(kernel.weights.sum()), abs=1e-10)

    def test_all_ones_kernel_sums_to_81_at_dc(self, kernels_zeta4):
        assert kernel_frequency_response(kernels_zeta4[2.0], 0.0, 0.0) == pytest.approx(
            81.0, abs=1e-12
        )

    def test_delta_kernel_responds_with_one_everywhere(self, kernels_zeta4):
        delta = kernels_zeta4[0.0]
        for k1, k2 in [(0.0, 0.0), (0.4, 1.1), (math.pi, math.pi / 3)]:
            assert kernel_frequency_response(delta, k1, k2) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_unit_order_response_decreases_at_octave_frequencies(self, kernels_zeta4):
        kernel = kernels_zeta4[1.0]
        r4 = kernel_frequency_response(kernel, math.pi / 4, 0.0)
        r2 = kernel_frequency_response(kernel, math.pi / 2, 0.0)
        r1 = kernel_frequency_response(kernel, math.pi, 0.0)
        assert r4 > r2 > r1

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_strictly_decreasing_on_main_lobe(self, kernels_zeta4, alpha):
        # Within the resolvable band of the truncated kernel (per-pixel
        # phase below ~1 rad for zeta = 4) the response decreases strictly
        # for every order; beyond it the sharp cutoff must ring.
        kernel = kernels_zeta4[alpha]
        grid = np.linspace(1e-3, 1.0, 200)
        values = [kernel_frequency_response(kernel, k, 0.0) for k in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_uniform_kernel_matches_closed_form(self, kernels_zeta4):
        # The all-ones kernel's axis response is a product of Dirichlet
        # kernels: R(k, 0) = 9 sin(4.5 k) / sin(0.5 k).
        kernel = kernels_zeta4[2.0]
        for k in (0.3, 0.7, 1.2, 2.5):
            expected = 9.0 * math.sin(4.5 * k) / math.sin(0.5 * k)
            got = kernel_frequency_response(kernel, k, 0.0)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_symmetric_in_frequency_sign_and_axis_swap(self, kernels_zeta4):
        kernel = kernels_zeta4[1.5]
        assert kernel_frequency_response(kernel, 0.7, 0.2) == pytest.approx(
            kernel_frequency_response(kernel, -0.7, 0.2), abs=1e-12
        )
        assert kernel_frequency_response(kernel, 0.7, 0.2) == pytest.approx(
            kernel_frequency_response(kernel, 0.2, 0.7), abs=1e-12
        )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_mirror_pad_equals_numpy_symmetric_pad(height, width, data):
    # Reaches from 1 to past the longer side: single reflections in place,
    # repeated ones through np.pad.  The workspace is reused for a second
    # slide, as a worker reuses it across slides.
    zeta = data.draw(st.integers(1, max(height, width) + 3))
    space = {}
    for seed in (0, 1):
        slide = np.random.default_rng(seed).random((height, width))
        got = kernel2d._mirror_pad(slide, zeta, space)
        assert np.array_equal(got, np.pad(slide, zeta, mode="symmetric"))


def _numbering_work(k, out, space):
    out[...] = k


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("ring", [1, 2, 4, 25])
def test_slide_pool_yields_in_order_from_its_ring(monkeypatch, workers, ring):
    monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: workers)
    buffers = np.full((ring, 2, 3), -1.0)
    spaces = set()

    def work(k, out, space):
        spaces.add(id(space))
        _numbering_work(k, out, space)

    seen = []
    for k, out in enumerate(kernel2d._slide_pool(25, work, buffers)):
        assert np.shares_memory(out, buffers[k % ring])
        seen.append(out[0, 0])
    assert seen == list(range(25))
    # One workspace per worker, kept across its slides.
    assert len(spaces) <= min(workers, max(ring - 1, 1))
    if ring >= 25:
        assert list(buffers[:, 0, 0]) == list(range(25))


def test_slide_pool_never_hands_out_a_buffer_in_use(monkeypatch):
    # More workers than cores and a short switch interval: if a worker
    # wrote into a buffer the consumer still held, or two workers shared
    # one, a yielded slide would not be all its own number.
    monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work(k, out, space):
            for row in out:
                np.copyto(row, k)

        seen = []
        for out in kernel2d._slide_pool(200, work, np.empty((9, 64, 256))):
            assert np.all(out == out[0, 0])
            seen.append(int(out[0, 0]))
            out[...] = -1.0
    finally:
        sys.setswitchinterval(interval)
    assert seen == list(range(200))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_slide_pool_raises_the_first_failing_slide(monkeypatch, workers):
    monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: workers)
    threads = threading.active_count()

    def work(k, out, space):
        if k in (3, 4):
            raise ValueError(f"slide {k} failed")
        out[...] = k

    seen = []
    with pytest.raises(ValueError, match="slide 3 failed"):
        for out in kernel2d._slide_pool(9, work, np.zeros((workers + 1, 1))):
            seen.append(int(out[0]))
    assert seen == [0, 1, 2]
    assert threading.active_count() == threads


def test_abandoned_slide_pool_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 3)
    threads = threading.active_count()
    stream = kernel2d._slide_pool(9, _numbering_work, np.zeros((4, 1)))
    next(stream)
    stream.close()
    assert threading.active_count() == threads
