"""Tests for the local modified Laplacian and its nonlocal extension."""

import functools
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fracfocus import kernel2d
from fracfocus.focus import (
    _focus_layer_into,
    _modified_laplacian_into,
    _zero_frame,
    focus_layers,
    focus_volume,
)
from fracfocus.grids import FocalStack, FocusVolume
from fracfocus.io import StackHeader, read_stack_header, write_stack_dir
from fracfocus.kernel2d import build_kernel

from laplacian_reference import reference_modified_laplacian_into
from pass_reference import reference_correlate_slide


def _index_grid(height, width):
    jj, ii = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    return ii.astype(float), jj.astype(float)


def _random_stack(rng, n_slides=5, height=24, width=24, h=1.0):
    data = rng.random((n_slides, height, width))
    return FocalStack(data, z_min=0.0, z_max=1.0, h=h)


def _measure(slides, q, h=1.0):
    """Layers of the local ``focus_volume`` on a stack of three slides:
    ``slides`` itself, or three copies of one 2D slide."""
    slides = np.broadcast_to(slides, (3,) + np.shape(slides)[-2:])
    return focus_volume(FocalStack(slides, 0.0, 1.0, h), q).data


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


@st.composite
def _laplacian_case(draw):
    """A slide, a step q up to its limit (one interior row or column) and a
    strip size from one-row strips to more rows than the slide has."""
    q = draw(st.integers(1, 4))
    height = draw(st.integers(2 * q + 1, 2 * q + 40))
    width = draw(st.integers(2 * q + 1, 2 * q + 12))
    slide = draw(arrays(np.float64, (height, width),
                        elements=st.floats(-1e3, 1e3) | st.sampled_from(
                            [0.0, 0.25, 1.0])))
    strip_samples = draw(st.integers(1, 2 * height * width))
    h = draw(st.sampled_from([1.0, 0.25, 0.0937]))
    return slide, q, h, strip_samples


@settings(max_examples=150, deadline=None)
@given(_laplacian_case())
def test_strips_match_whole_slide_measure(case):
    """The row strips of the local measure give the whole-slide bits for
    any strip height: uneven last strips, one-row strips and a one-row
    interior (q at its limit) included.  A workspace used on another
    shape first must not leak into the result."""
    slide, q, h, strip_samples = case
    want = np.full(slide.shape, np.nan)
    reference_modified_laplacian_into(want, slide, q, h)
    space = {}
    got = np.full(slide.shape, np.nan)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel2d, "_STRIP_SAMPLES", strip_samples)
        _modified_laplacian_into(np.empty((9, 9)), np.ones((9, 9)), 1, 1.0,
                                 space)
        _modified_laplacian_into(got, slide, q, h, space)
    assert np.array_equal(got, want)
    rows = max(1, strip_samples // slide.shape[1])
    assert space["d2x"].shape == (min(rows, slide.shape[0] - 2 * q),
                                  slide.shape[1] - 2 * q)


class TestLocalFocusVolume:
    def test_layers_match_per_slide_measure(self):
        rng = np.random.default_rng(3)
        stack = _random_stack(rng, h=0.25)
        volume = focus_volume(stack, 2)
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
        volume = focus_volume(stack, 3)
        assert volume.q == 3
        assert volume.alpha is None and volume.zeta is None
        assert (volume.z_min, volume.z_max, volume.h) == (0.0, 1.0, 0.5)

    def test_scale_covariance_dyadic(self):
        rng = np.random.default_rng(5)
        stack = _random_stack(rng)
        base = focus_volume(stack, 2)
        scaled = focus_volume(
            FocalStack(stack.data * 4.0, z_min=0.0, z_max=1.0, h=stack.h), 2
        )
        # A power-of-two gain commutes with every operation exactly.
        assert np.array_equal(scaled.data, base.data * 4.0)


class TestNonlocalization:
    @pytest.mark.parametrize("zeta", [1, 4, 8])
    def test_order_zero_reduces_to_local(self, zeta):
        rng = np.random.default_rng(6)
        stack = _random_stack(rng, height=26, width=26)
        local = focus_volume(stack, 2)
        nonlocal_ = focus_volume(stack, 2, build_kernel(0.0, zeta))
        assert np.array_equal(nonlocal_.data, local.data)
        assert nonlocal_.alpha == 0.0 and nonlocal_.zeta == zeta

    def test_zero_frame_survives_kernel_pass(self):
        rng = np.random.default_rng(9)
        stack = _random_stack(rng)
        q = 2
        volume = focus_volume(stack, q, build_kernel(1.5, 3))
        for k in range(len(volume.data)):
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
        volume = focus_volume(stack, 1, build_kernel(2.0, 1))
        deep = volume.data[:, 2:-2, 2:-2]
        assert np.allclose(deep, 36.0, rtol=1e-12, atol=0)

    def test_non_negative(self):
        rng = np.random.default_rng(10)
        stack = _random_stack(rng)
        volume = focus_volume(stack, 2, build_kernel(1.5, 2))
        assert np.all(volume.data >= 0.0)

    def test_pooling_smooths_layers(self):
        # The kernel pass is a weighted average over a neighbourhood, so
        # interior variation of each layer can only shrink.
        rng = np.random.default_rng(11)
        stack = _random_stack(rng, height=30, width=30)
        q = 2
        local = focus_volume(stack, q)
        pooled = focus_volume(stack, q, build_kernel(2.0, 2))
        for k in range(len(stack.data)):
            a = local.data[k][q + 2:-q - 2, q + 2:-q - 2]
            b = pooled.data[k][q + 2:-q - 2, q + 2:-q - 2]
            assert np.std(b / 25.0) < np.std(a)


@functools.lru_cache(maxsize=None)
def _cached_kernel(alpha, zeta):
    return build_kernel(alpha, zeta)


@st.composite
def _volumes(draw, max_slides=4):
    """A small local-style focus volume (zero q-frame) and a kernel; at
    least 3 layers, so that its layers also make a FocalStack."""
    q = draw(st.integers(1, 3))
    n_slides = draw(st.integers(3, max_slides))
    height = draw(st.integers(2 * q + 1, 2 * q + 9))
    width = draw(st.integers(2 * q + 1, 2 * q + 9))
    data = draw(arrays(np.float64, (n_slides, height, width),
                       elements=st.floats(0.0, 1e6)))
    _zero_frame(data, q)
    volume = FocusVolume(data, q=q, z_min=0.0, z_max=1.0)
    # Reaches up to 16 also cover axes shorter than a quarter of zeta.
    kernel = _cached_kernel(draw(st.sampled_from([0.0, 0.5, 1.5, 2.0])),
                            draw(st.integers(1, 16)))
    return volume, kernel


def _pass_layers(volume, kernel):
    """The kernel pass of each layer of ``volume``, zero frame re-imposed,
    written into the pass input and passed on one workspace, as a worker
    of ``focus_volume`` does after the local measure."""
    out = np.full(volume.data.shape, np.nan)
    space = {}
    for layer, passed in zip(volume.data, out):
        kernel2d._pass_input(layer.shape, kernel.zeta, space)[...] = layer
        kernel2d._pass_into(kernel.weights[kernel.zeta:, kernel.zeta:],
                            passed, space)
    _zero_frame(out, volume.q)
    return out


def _slides(volume):
    """A stack whose slides are the layers of ``volume``."""
    return FocalStack(volume.data, z_min=0.0, z_max=1.0)


class TestWholeVolumePass:
    @settings(max_examples=60, deadline=None)
    @given(_volumes())
    def test_equals_per_layer_reference_pass(self, case):
        # On any layers, and on the local layers of focus_volume.
        volume, kernel = case
        q, weights = volume.q, kernel.weights[kernel.zeta:, kernel.zeta:]
        local = focus_volume(_slides(volume), q)
        for layers, got in (
                (volume, _pass_layers(volume, kernel)),
                (local, focus_volume(_slides(volume), q, kernel).data)):
            for k in range(len(layers.data)):
                expected = np.empty(layers.data.shape[1:])
                reference_correlate_slide(weights, layers.data[k], expected,
                                          kernel2d._STRIP_SAMPLES)
                _zero_frame(expected, q)
                assert np.array_equal(got[k], expected)

    @settings(max_examples=60, deadline=None)
    @given(_volumes())
    def test_equal_layers_stay_bitwise_equal(self, case):
        # Exact slide ties decide the peak search (first maximum wins), so
        # the pass must not let rounding depend on the layer index.
        volume, kernel = case
        tied = np.concatenate([volume.data, volume.data[-1:]])
        tied_volume = FocusVolume(tied, q=volume.q, z_min=0.0, z_max=1.0)
        for out in (_pass_layers(tied_volume, kernel),
                    focus_volume(_slides(tied_volume), volume.q,
                                 kernel).data):
            assert np.array_equal(out[-1], out[-2])

    @settings(max_examples=60, deadline=None)
    @given(_volumes(max_slides=7), st.integers(2, 4), st.booleans())
    def test_bits_do_not_depend_on_worker_count(self, case, workers, tied):
        volume, kernel = case
        if tied:
            data = np.repeat(volume.data[:1], len(volume.data), axis=0)
            volume = FocusVolume(data, q=volume.q, z_min=0.0, z_max=1.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel2d, "_usable_cpus", lambda: 1)
            expected = focus_volume(_slides(volume), volume.q, kernel).data
            mp.setattr(kernel2d, "_usable_cpus", lambda: workers)
            got = focus_volume(_slides(volume), volume.q, kernel).data
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

    @pytest.mark.parametrize("kernel, cutoffs", [
        (None, (1,)), (build_kernel(1.0, 4), ()),
        (build_kernel(1.0, 4), (0, 2)), (build_kernel(1.0, 4), (2, 2)),
        (build_kernel(1.0, 4), (3, 1)), (build_kernel(1.0, 4), (2, 5))])
    def test_cutoffs_are_checked_when_called(self, tmp_path, kernel,
                                             cutoffs):
        header = StackHeader(directory=tmp_path, n_slides=3, height=12,
                             width=12, z_min=0.0, z_max=1.0, h=1.0,
                             lossless=True)
        with pytest.raises(ValueError, match="cutoffs"):
            focus_layers(header, 1, kernel, cutoffs)

    @pytest.mark.parametrize("cutoffs", [(1, 3), (2,), (1, 2, 4)])
    def test_several_cutoffs_give_each_cutoffs_layers(self, monkeypatch,
                                                      cutoffs):
        # One pass a slide at the kernel's reach of 4 gives, for each
        # cutoff, the layers of the stream with that cutoff's own kernel.
        monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 2)
        stack = _random_stack(np.random.default_rng(5), n_slides=5,
                              height=30, width=27)
        got = np.array([stacked.copy() for stacked in
                        focus_layers(stack, 2, build_kernel(1.9, 4),
                                     cutoffs)])
        for i, cutoff in enumerate(cutoffs):
            want = [layer.copy() for layer in
                    focus_layers(stack, 2, build_kernel(1.9, cutoff))]
            assert got[:, i].tobytes() == np.array(want).tobytes()

    def test_workers_keep_their_own_workspaces(self, tmp_path, monkeypatch):
        # More workers than cores, switching threads as often as the
        # interpreter allows, on slides of several strips: a scratch buffer
        # shared between workers would mix their slides.
        rng = np.random.default_rng(21)
        write_stack_dir(tmp_path, _random_stack(rng, n_slides=32, height=128,
                                                width=96), lossless=True)
        header = read_stack_header(tmp_path)
        kernel = build_kernel(1.5, 3)
        monkeypatch.setattr(kernel2d, "_STRIP_SAMPLES", 8 * header.width)
        monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 1)
        expected = [layer.copy() for layer in focus_layers(header, 2, kernel)]
        monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [layer.copy() for layer in focus_layers(header, 2, kernel)]
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == len(expected)
        for layer, reference in zip(got, expected):
            assert np.array_equal(layer, reference)

    def test_workers_read_npy_headers_one_at_a_time(self, tmp_path,
                                                    monkeypatch):
        # numpy parses a .npy header with ast.literal_eval, which is not
        # thread-safe in CPython 3.11: workers must take turns at headers.
        rng = np.random.default_rng(23)
        write_stack_dir(tmp_path, _random_stack(rng, n_slides=16, height=16,
                                                width=16), lossless=True)
        header = read_stack_header(tmp_path)
        original = np.lib.format.read_array_header_1_0
        count = threading.Lock()
        inside, peak = [0], [0]

        def probe(*args, **kwargs):
            with count:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            try:
                time.sleep(0.002)
                return original(*args, **kwargs)
            finally:
                with count:
                    inside[0] -= 1

        monkeypatch.setattr(np.lib.format, "read_array_header_1_0", probe)
        monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 4)
        assert len(list(focus_layers(header, 2))) == 16
        assert peak[0] == 1

    def test_worker_keeps_one_buffer_per_role(self, tmp_path, monkeypatch):
        # With one worker and zeta = 4, a 256 x 256 stream peaks at about
        # 9.4 slides' worth of buffers: the ring of two, which also takes the
        # slide read, the two differences of the measure and the pass's
        # padded, pairs (five slabs of 136 rows), row_sum and term.  A
        # separate local layer and a 2 f temporary would add two slides more.
        rng = np.random.default_rng(24)
        write_stack_dir(tmp_path, _random_stack(rng, n_slides=8, height=256,
                                                width=256), lossless=True)
        header = read_stack_header(tmp_path)
        kernel = build_kernel(1.5, 4)
        monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 1)
        tracemalloc.start()
        try:
            for _ in focus_layers(header, 2, kernel):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 * 256 * 256 * 8

    def test_worker_holds_two_slide_sized_buffers(self, monkeypatch):
        """A worker of the read-measure-pass chain holds its ring buffer
        and the pass's padded input, not a third buffer for the slide it
        reads, with a kernel and without one (the local measure passes
        with the 1 x 1 identity, whose padded input is one slide).  One
        worker, as in ``test_cli``'s memory tests, and strips of 8 rows, so
        that the strip scratch stays near a fifth of a slide: the traced
        peak is at most the ring of two, the padded input and half a slide,
        where a slide read buffer of its own would add a whole one."""
        height = width = 512
        monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(kernel2d, "_STRIP_SAMPLES", 8 * width)
        stack = _random_stack(np.random.default_rng(26), n_slides=4,
                              height=height, width=width)
        slide = height * width * 8
        for zeta, kernel in [(1, build_kernel(1.5, 1)), (0, None)]:
            # Warm-up: lazy imports stay out of the peak.
            for _ in focus_layers(stack, 2, kernel):
                pass
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in focus_layers(stack, 2, kernel):
                    pass
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            padded = (height + 2 * zeta) * (width + 2 * zeta) * 8
            assert peak <= 2 * slide + padded + slide // 2, peak / slide

    def test_workspace_serves_both_chains(self):
        """One workspace runs a nonlocal layer, a local-only one and the
        same kernel again, as a table worker does; each layer is the one a
        fresh workspace gives."""
        stack = _random_stack(np.random.default_rng(27), n_slides=3,
                              height=40, width=36)
        kernel = build_kernel(1.5, 3)
        space = {}
        for k, layer_kernel in enumerate([kernel, None, kernel]):
            got = np.full((40, 36), np.nan)
            _focus_layer_into(got, stack, k, 2, space, layer_kernel)
            want = np.full((40, 36), np.nan)
            _focus_layer_into(want, stack, k, 2, {}, layer_kernel)
            assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 8), st.integers(3, 6),
       st.integers(0, 12), st.integers(0, 12),
       st.one_of(st.integers(1, 200), st.just(2**15)), st.data())
def test_local_layers_are_the_alpha_zero_pass(q, zeta, n_slides, extra_height,
                                              extra_width, strip_samples,
                                              data):
    """Without a kernel a layer passes with the 1 x 1 identity, and with
    the delta kernel of alpha = 0 it is copied as well: both give each
    slide's local measure bit for bit.  From a FocalStack and from stack
    directories of 8-bit PGM and of .npy slides, whose few levels make
    ties between slides common."""
    height, width = 2 * q + 1 + extra_height, 2 * q + 1 + extra_width
    slides = data.draw(arrays(np.float64, (n_slides, height, width),
                              elements=st.sampled_from([0.0, 0.2, 0.6, 1.0])))
    stack = FocalStack(slides, z_min=0.0, z_max=1.0, h=0.5)
    delta = _cached_kernel(0.0, zeta)
    with tempfile.TemporaryDirectory() as directory, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel2d, "_STRIP_SAMPLES", strip_samples)
        sources = [stack]
        for lossless in (False, True):
            path = Path(directory) / f"lossless_{lossless}"
            write_stack_dir(path, stack, lossless=lossless)
            sources.append(read_stack_header(path))
        for source in sources:
            local = [layer.copy() for layer in focus_layers(source, q)]
            passed = [layer.copy()
                      for layer in focus_layers(source, q, delta)]
            assert len(local) == len(passed) == n_slides
            for k in range(n_slides):
                slide = np.empty((height, width))
                source.read_slide(k, slide)
                expected = np.empty((height, width))
                _modified_laplacian_into(expected, slide, q, source.h, {})
                assert local[k].tobytes() == expected.tobytes()
                assert passed[k].tobytes() == expected.tobytes()


def test_workspace_keeps_scratch_for_one_kernel_only():
    # A workspace that measures and passes a slide through several reaches
    # must hold the scratch of the last one only: a cache per kernel would
    # pin a set per reach.
    stack = _random_stack(np.random.default_rng(22), n_slides=3, height=256,
                          width=256)
    kernels = [build_kernel(1.5, zeta) for zeta in (4, 1, 3, 2, 4)]
    out = np.empty((256, 256))
    space = {}
    tracemalloc.start()
    try:
        _focus_layer_into(out, stack, 0, 4, space, kernels[0])
        first = tracemalloc.get_traced_memory()[0]
        for kernel in kernels[1:]:
            _focus_layer_into(out, stack, 0, 4, space, kernel)
        last = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert last <= first + 64 * 1024


class TestNonFiniteMeasure:
    """An overflowing measure or pass is refused as non-finite, and numpy
    warns of nothing: the suite turns any warning into an error."""

    def test_local_volume_rejects_overflow(self):
        # Finite +-1e308 stripes whose second differences overflow to inf.
        stripes = np.where(np.arange(12) % 2 == 0, 1e308, -1e308)
        stack = FocalStack(np.broadcast_to(stripes, (3, 12, 12)),
                           z_min=0.0, z_max=1.0)
        with pytest.raises(ValueError, match="finite"):
            focus_volume(stack, 1)

    def test_huge_slide_value_is_refused_on_every_path(self):
        data = np.zeros((3, 12, 12))
        data[1, 5, 5] = 1e308
        stack = FocalStack(data, z_min=0.0, z_max=1.0)
        with pytest.raises(ValueError, match="finite"):
            focus_volume(stack, 1)
        for kernel in (None, build_kernel(1.5, 2)):
            with pytest.raises(ValueError, match="finite"):
                list(focus_layers(stack, 1, kernel))

    def test_overflowing_pass_is_refused(self):
        # Stripes a, a, -a, -a: the local measure at q = 1 is 2a = 1e308,
        # finite, and the pass's pair sums of it overflow.
        stripes = np.tile([5e307, 5e307, -5e307, -5e307], 3)
        stack = FocalStack(np.broadcast_to(stripes, (3, 12, 12)),
                           z_min=0.0, z_max=1.0)
        assert focus_volume(stack, 1).data.max() == 1e308
        kernel = build_kernel(1.5, 1)
        with pytest.raises(ValueError, match="finite"):
            focus_volume(stack, 1, kernel)
        with pytest.raises(ValueError, match="finite"):
            list(focus_layers(stack, 1, kernel))


class TestGridSpacing:
    """A spacing h whose 1/(q h)^2 is 0 or overflows is refused when the
    pipeline is called, before any slide is read."""

    # 1/(q h)^2 divides by zero, overflows in the square, or overflows in
    # the division.
    @pytest.mark.parametrize("h", [1e-199, 1e300, 1e-160])
    def test_refused_before_any_slide(self, tmp_path, h):
        # No slide file exists: a read would fail with another message.
        header = StackHeader(directory=tmp_path, n_slides=3, height=12,
                             width=12, z_min=0.0, z_max=1.0, h=h,
                             lossless=True)
        with pytest.raises(ValueError, match="spacing"):
            focus_volume(header, 1)
        with pytest.raises(ValueError, match="spacing"):
            focus_layers(header, 2, build_kernel(1.5, 2))

    def test_tiny_spacing_with_a_finite_scale_runs(self):
        # 1/(q h)^2 = 1e300 is finite: the measure of a small slide is too.
        stack = _random_stack(np.random.default_rng(30), h=1e-150)
        volume = focus_volume(stack, 1)
        assert np.isfinite(volume.data).all()
