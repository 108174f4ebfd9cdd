"""Tests for the 2D nonlocalization kernel, its application and its spectrum."""

import functools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracfocus import kernel2d
from fracfocus.focus import _IDENTITY
from fracfocus.kernel2d import Kernel, build_kernel, kernel_frequency_response

from kernel_reference import REFERENCE_QUADRANTS, adaptive_kernel_weights
from pass_reference import reference_correlate_slide


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
        # The rule's offset weights carry a factor alpha: +0.0, never -0.0,
        # so the bytes are those of the delta.
        kernels = {4: kernels_zeta4[0.0]}
        kernels.update((zeta, build_kernel(0, zeta)) for zeta in (1, 2, 8, 16))
        for zeta, kernel in kernels.items():
            expected = np.zeros((2 * zeta + 1, 2 * zeta + 1))
            expected[zeta, zeta] = 1.0
            assert kernel.weights.tobytes() == expected.tobytes(), zeta
            assert not np.any(np.signbit(kernel.weights)), zeta
            assert type(kernel.alpha) is float and kernel.alpha == 0.0

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


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 2.0),
       st.lists(st.integers(1, 20), min_size=2, max_size=2,
                unique=True).map(sorted))
@example(1.9, [4, 12])
@example(0.5, [1, 20])
@example(1e-310, [2, 3])
def test_kernels_of_one_order_nest(alpha, cutoffs):
    # Every cell integral is reduced one cell at a time, so the quadrant of
    # a smaller cutoff is the top-left block of a larger one's, bit for bit:
    # one pass at the largest cutoff serves them all.
    small, large = cutoffs
    inner = build_kernel(alpha, small).weights[small:, small:]
    outer = build_kernel(alpha, large).weights[large:, large:]
    assert inner.tobytes() == outer[:small + 1, :small + 1].tobytes()


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


def _pass(weights, slide, out, space):
    """Write ``slide`` into the input of the pass with the kernel quadrant
    ``weights`` and run that pass into ``out``, on the workspace
    ``space``."""
    kernel2d._pass_input(slide.shape, weights.shape[0] - 1, space)[...] = slide
    kernel2d._pass_into(weights, out, space)


def _correlate(kernel, slide):
    """The pass of ``kernel`` over one 2D slide, into a fresh output and
    with a fresh workspace."""
    out = np.empty(slide.shape)
    _pass(kernel.weights[kernel.zeta:, kernel.zeta:], slide, out, {})
    return out


class TestApplyKernel:
    def test_delta_kernel_is_identity(self, kernels_zeta4):
        rng = np.random.default_rng(5)
        values = rng.random((12, 17))
        out = _correlate(kernels_zeta4[0.0], values)
        assert np.array_equal(out, values)

    def test_delta_kernel_copies_every_value_bit_for_bit(self, kernels_zeta4):
        # A quadrant with 1 at the centre and 0 elsewhere is answered by a
        # copy, not a sum that starts from +0.0, so -0.0, infinities and
        # NaN come out unchanged: the delta kernel, the 1 x 1 identity of
        # the local measure and a kernel whose off-centre weights underflow.
        values = np.array([[-0.0, 0.0, np.inf, -np.inf],
                           [np.nan, 5e-324, -1.5, 1.7e308]])
        with np.errstate(invalid="ignore", over="ignore"):
            out = _correlate(kernels_zeta4[0.0], values)
        assert np.array_equal(out.view(np.uint64), values.view(np.uint64))
        underflowing = build_kernel(5e-324, 4)
        assert np.array_equal(underflowing.weights, kernels_zeta4[0.0].weights)
        for weights in (_IDENTITY, underflowing.weights[4:, 4:]):
            out = np.full(values.shape, 7.0)
            with np.errstate(invalid="ignore", over="ignore"):
                _pass(weights, values, out, {})
            assert np.array_equal(out.view(np.uint64),
                                  values.view(np.uint64))

    def test_constant_field_scales_by_weight_sum(self, kernels_zeta4):
        out = _correlate(kernels_zeta4[2.0], np.ones((10, 10)))
        # All-ones 9x9 kernel and mirror padding: every output is 81.
        assert np.allclose(out, 81.0, rtol=0, atol=1e-12)

    def test_matches_brute_force_on_random_field(self):
        rng = np.random.default_rng(42)
        kernel = build_kernel(1.0, 2)
        values = rng.random((16, 16))
        expected = _brute_force_apply(kernel, values)
        got = _correlate(kernel, values)
        assert np.allclose(got, expected, rtol=0, atol=1e-12)

    def test_non_square_field(self):
        rng = np.random.default_rng(7)
        kernel = build_kernel(1.5, 3)
        values = rng.random((9, 21))
        expected = _brute_force_apply(kernel, values)
        got = _correlate(kernel, values)
        assert got.shape == (9, 21)
        assert np.allclose(got, expected, rtol=0, atol=1e-12)

    def test_preserves_non_negativity(self, kernels_zeta4):
        rng = np.random.default_rng(3)
        out = _correlate(kernels_zeta4[1.5], rng.random((20, 20)))
        assert np.all(out >= 0.0)

    def test_repeat_application_is_bit_stable(self, kernels_zeta4):
        rng = np.random.default_rng(9)
        values = rng.random((15, 15))
        first = _correlate(kernels_zeta4[1.0], values)
        second = _correlate(kernels_zeta4[1.0], values)
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
        got = _correlate(kernel, values)
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
def test_correlate_slide_matches_brute_force(values, zeta, alpha):
    kernel = _cached_kernel(alpha, zeta)
    expected = _brute_force_apply(kernel, values)
    got = _correlate(kernel, values)
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
    whole = _correlate(kernel, values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel2d, "_STRIP_SAMPLES", strip_samples)
        got = _correlate(kernel, values)
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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 16),
                          st.sampled_from([0.0, 0.5, 1.0, 1.5, 1.9, 2.0]),
                          st.integers(1, 40), st.integers(1, 40),
                          st.one_of(st.integers(1, 80),
                                    st.integers(1, 2**15))),
                min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
# A reach beyond both sides, then one strip per row, then one strip.
@example([(16, 1.5, 3, 5, 7), (2, 0.5, 40, 9, 1), (2, 0.5, 40, 9, 2**15)], 0)
# Strips of 16, 16 and 8 rows.
@example([(3, 1.5, 40, 9, 144)], 0)
def test_pass_matches_the_strip_loop(calls, seed):
    # One workspace across a sequence of passes, as a worker keeps it, and
    # each pass run twice so the second reuses the workspace's buffers;
    # every pass writes a fresh output.
    rng = np.random.default_rng(seed)
    space = {}
    for zeta, alpha, height, width, strip_samples in calls:
        weights = _cached_kernel(alpha, zeta).weights[zeta:, zeta:]
        for _ in range(2):
            slide = rng.choice([0.0, 0.25, 1.0, 3.0], size=(height, width))
            slide = np.where(rng.random((height, width)) < 0.5, slide,
                             rng.random((height, width)))
            expected = np.full((height, width), np.nan)
            reference_correlate_slide(weights, slide, expected, strip_samples)
            got = np.full((height, width), np.nan)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernel2d, "_STRIP_SAMPLES", strip_samples)
                _pass(weights, slide, got, space)
            assert np.array_equal(got.view(np.uint64),
                                  expected.view(np.uint64))
        # One buffer per role, sized for this pass: no scratch of an
        # earlier pass stays alive.
        assert sorted(space) == ["padded", "pairs", "row_sum", "term"]
        assert space["padded"].shape == (height + 2 * zeta,
                                         width + 2 * zeta)
        assert space["pairs"].shape[0] == zeta + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.sampled_from([0.0, 0.5, 1.5, 2.0]),
       st.integers(1, 40), st.integers(1, 40),
       st.one_of(st.integers(1, 80), st.integers(1, 2**15)),
       st.integers(0, 2**32 - 1))
# A reach beyond both sides: the mirror repeats its reflection.
@example(16, 1.5, 3, 5, 7, 0)
# Strips of 16, 16 and 8 rows.
@example(3, 1.5, 40, 9, 144, 0)
def test_pass_may_overwrite_its_input(zeta, alpha, height, width,
                                      strip_samples, seed):
    # focus._focus_layer_into passes each layer back into the buffer its
    # slide was read into: the output may be the slide that was written
    # into the pass input.
    rng = np.random.default_rng(seed)
    slide = rng.choice([0.0, 0.25, 1.0, 3.0], size=(height, width))
    slide = np.where(rng.random((height, width)) < 0.5, slide,
                     rng.random((height, width)))
    weights = _cached_kernel(alpha, zeta).weights[zeta:, zeta:]
    space = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel2d, "_STRIP_SAMPLES", strip_samples)
        expected = np.full((height, width), np.nan)
        _pass(weights, slide, expected, space)
        _pass(weights, slide, slide, space)
    assert np.array_equal(slide.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("cutoffs", [(1,), (2, 3), (1, 2, 3, 4),
                                     (2, 4, 8, 12)])
@pytest.mark.parametrize("alpha", [0.5, 1.5, 1.9, 2.0])
@settings(max_examples=8, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40),
       st.one_of(st.integers(1, 80), st.integers(1, 2**15)),
       st.integers(0, 2**32 - 1))
# 200 wide: strips of 163 and 37 rows, an uneven last strip.
@example(200, 200, 2**15, 0)
def test_pass_with_several_cutoffs_matches_one_pass_each(
        cutoffs, alpha, height, width, strip_samples, seed):
    # One pass at the largest cutoff writes one layer per cutoff, each the
    # strip loop's pass of that cutoff's own kernel, bit for bit.  Run twice
    # on one workspace, so that the second reuses its buffers.
    rng = np.random.default_rng(seed)
    zeta = cutoffs[-1]
    weights = _cached_kernel(alpha, zeta).weights[zeta:, zeta:]
    space = {}
    for _ in range(2):
        slide = rng.random((height, width)) * rng.choice([1.0, 1e-3, 1e3],
                                                         (height, width))
        expected = np.full((len(cutoffs), height, width), np.nan)
        for layer, cutoff in zip(expected, cutoffs):
            reference_correlate_slide(
                _cached_kernel(alpha, cutoff).weights[cutoff:, cutoff:],
                slide, layer, strip_samples)
        got = np.full((len(cutoffs), height, width), np.nan)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel2d, "_STRIP_SAMPLES", strip_samples)
            kernel2d._pass_input(slide.shape, zeta, space)[...] = slide
            kernel2d._pass_into(weights, got, space, cutoffs)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


# An eight-fold-symmetric quadrant with zeros inside the tap ranges of rows
# 0, 1 and 3, a row with one tap off the centre (row 2) and an empty row (4).
_GAPPED_QUADRANT = np.array([[1.0, 0.5, 0.0, 0.25, 0.0],
                             [0.5, 0.0, 0.125, 0.0, 0.0],
                             [0.0, 0.125, 0.0, 0.0, 0.0],
                             [0.25, 0.0, 0.0, 0.75, 0.0],
                             [0.0, 0.0, 0.0, 0.0, 0.0]])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30),
       st.one_of(st.integers(1, 80), st.integers(1, 2**15)),
       st.integers(0, 2**32 - 1))
# Strips of 3, 3 and 1 rows, narrower than the reach.
@example(7, 3, 9, 0)
def test_zero_weights_inside_a_row_keep_the_bits(height, width,
                                                 strip_samples, seed):
    # A row's einsum runs over every tap from its first non-zero weight to
    # its last, zeros included; on finite non-negative slides a zero product
    # adds nothing, so the bits are still those of the loop that skips it.
    # Kernel refuses weights that are not eight-fold symmetric.
    offsets = np.abs(np.arange(-4, 5))
    Kernel(alpha=1.0, zeta=4,
           weights=_GAPPED_QUADRANT[offsets[:, np.newaxis], offsets])
    rng = np.random.default_rng(seed)
    slide = rng.choice([0.0, 0.25, 1.0, 3.0], size=(height, width))
    slide = np.where(rng.random((height, width)) < 0.5, slide,
                     rng.random((height, width)) * 10.0 ** rng.integers(
                         -300, 300, (height, width)))
    expected = np.full((height, width), np.nan)
    reference_correlate_slide(_GAPPED_QUADRANT, slide, expected,
                              strip_samples)
    got = np.full((height, width), np.nan)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel2d, "_STRIP_SAMPLES", strip_samples)
        _pass(_GAPPED_QUADRANT, slide, got, {})
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class _CallCounter:
    """Stands in for numpy in kernel2d and counts its add and multiply
    calls; everything else is numpy's own."""

    def __init__(self):
        self.calls = 0

    def count(self, function):
        def counted(*args, **kwargs):
            self.calls += 1
            return function(*args, **kwargs)
        return counted

    def __getattr__(self, name):
        function = getattr(np, name)
        return self.count(function) if name in ("add", "multiply") else function


@pytest.mark.parametrize("zeta,alpha",
                         [(zeta, alpha) for zeta in (1, 2, 8, 12)
                          for alpha in (0.5, 1.5, 2.0)]
                         + [(1, 0.0), (8, 0.0)])
def test_strip_takes_4_zeta_plus_2_calls(alpha, zeta, monkeypatch):
    # The copy of C_0, zeta column pair sums, one einsum per kernel row and
    # two adds per row a > 0: 34 calls a strip at zeta = 8.  Three strips
    # at 200 wide: 163, 163 and 74 rows.  The delta kernel of alpha = 0 is
    # answered by a copy of the slide, with no call at all.
    weights = _cached_kernel(alpha, zeta).weights[zeta:, zeta:]
    slide = np.random.default_rng(4).random((400, 200))
    expected = np.empty_like(slide)
    _pass(weights, slide, expected, {})
    counter = _CallCounter()
    monkeypatch.setattr(kernel2d, "np", counter)
    monkeypatch.setattr(kernel2d, "_weighted_rows",
                        counter.count(kernel2d._weighted_rows))
    got = np.empty_like(slide)
    _pass(weights, slide, got, {})
    assert counter.calls == (3 * (4 * zeta + 2) if alpha else 0)
    assert got.tobytes() == expected.tobytes()


def test_warm_pass_allocates_no_strip_copies():
    # Every operand of a pass is a view into the workspace or into out, so
    # a pass with warm buffers allocates less than one copy of a strip
    # would: 256 KiB for the 64 rows of a strip at 512 x 512 and zeta = 8.
    weights = _cached_kernel(1.5, 8).weights[8:, 8:]
    slide = np.random.default_rng(3).random((512, 512))
    out = np.empty_like(slide)
    space = {}
    _pass(weights, slide, out, space)
    expected = out.copy()
    tracemalloc.start()
    try:
        _pass(weights, slide, out, space)
        held = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < 256 * 1024
    assert out.tobytes() == expected.tobytes()


def test_pass_refuses_an_output_that_is_not_c_contiguous():
    # D_0 is written through a flat view of out's rows; on a transposed
    # out that view would be a copy, and the result would be lost.
    weights = _cached_kernel(1.5, 2).weights[2:, 2:]
    slide = np.random.default_rng(5).random((12, 12))
    out = np.full((12, 12), np.nan).T
    with pytest.raises(ValueError, match="C-contiguous"):
        _pass(weights, slide, out, {})
    assert np.isnan(out).all()


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
    # Reaches from 1 to past three times the longer side, so that both axes
    # repeat their reflection, all in place: np.pad is the reference only.
    # The buffer is reused for a second slide, as a worker reuses its
    # workspace across slides.
    zeta = data.draw(st.integers(1, 3 * max(height, width) + 3))
    padded = np.full((height + 2 * zeta, width + 2 * zeta), np.nan)
    for seed in (0, 1):
        slide = np.random.default_rng(seed).random((height, width))
        expected = np.pad(slide, zeta, mode="symmetric")
        padded[zeta:zeta + height, zeta:zeta + width] = slide
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "pad", _no_pad)
            kernel2d._mirror_margins(padded, zeta)
        assert np.array_equal(padded, expected)


def _no_pad(*args, **kwargs):
    raise AssertionError("the mirror pad called np.pad")


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


def test_slide_pool_queues_every_item_that_has_a_free_buffer(monkeypatch):
    # With a buffer per item, every item is queued at once: item 0 cannot
    # finish until the last item has started, which a window of workers + 1
    # items would only queue once item 0 had been yielded.
    monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 2)
    n = 6
    last_started = threading.Event()

    def work(k, out, space):
        if k == n - 1:
            last_started.set()
        if k == 0:
            assert last_started.wait(timeout=5.0), "item n-1 never started"
        out[...] = k

    seen = [int(out[0]) for out in kernel2d._slide_pool(n, work,
                                                        np.zeros((n, 1)))]
    assert seen == list(range(n))


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


def test_one_worker_pool_starts_no_thread(monkeypatch):
    # With one usable CPU the calling thread runs every item: no thread is
    # started, results come in order, and the lowest failing item raises.
    monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 1)
    threads = threading.active_count()
    runners = set()

    def work(k, out, space):
        runners.add(threading.get_ident())
        assert threading.active_count() == threads
        if k in (5, 6):
            raise ValueError(f"slide {k} failed")
        out[...] = k

    for ring in (2, 9):
        seen = []
        with pytest.raises(ValueError, match="slide 5 failed"):
            for out in kernel2d._slide_pool(9, work, np.zeros((ring, 1))):
                assert threading.active_count() == threads
                seen.append(int(out[0]))
        assert seen == [0, 1, 2, 3, 4]
    assert runners == {threading.get_ident()}
    assert threading.active_count() == threads


def test_abandoned_slide_pool_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 3)
    threads = threading.active_count()
    stream = kernel2d._slide_pool(9, _numbering_work, np.zeros((4, 1)))
    next(stream)
    stream.close()
    assert threading.active_count() == threads
