"""Tests for the synthetic scene generator and defocus renderer."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blur_reference import reference_gather
from gather_reference import reference_level_gather
from texture_reference import reference_texture

from fracfocus import kernel2d, synth
from fracfocus.focus import focus_volume
from fracfocus.synth import (BlurSpec, SceneSpec, ground_truth, render_slides,
                             render_stack)
from fracfocus.synth import _gather, _psf_tables, _separable_blur, _texture


class TestSceneSpec:
    def test_defaults(self):
        scene = SceneSpec()
        assert scene.kind == "sphere"
        assert scene.radius == 1.0
        assert scene.texture_kind == "value-noise"
        assert scene.seed == 0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SceneSpec(kind="torus")

    def test_rejects_unknown_texture(self):
        with pytest.raises(ValueError):
            SceneSpec(texture_kind="perlin")

    def test_rejects_non_positive_sphere_radius(self):
        with pytest.raises(ValueError):
            SceneSpec(kind="sphere", radius=0.0)

    def test_rejects_non_positive_wavelength(self):
        with pytest.raises(ValueError):
            SceneSpec(texture_wavelength=-0.1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            SceneSpec(seed=-1)

    @pytest.mark.parametrize("field", ["radius", "height", "ramp_lo",
                                       "ramp_hi", "texture_wavelength"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_parameters_by_name(self, field, value):
        # Every scene kind: all of them go into stack.json.
        for kind in ("sphere", "plane", "ramp"):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SceneSpec(kind=kind, **{field: value})

    def test_rejects_radius_whose_square_overflows(self):
        # ground_truth squares the radius; the largest radius accepted
        # still gives a finite height field.
        for kind in ("sphere", "plane", "ramp"):
            with pytest.raises(ValueError, match="and so must its square"):
                SceneSpec(kind=kind, radius=1e155)
        truth = ground_truth(SceneSpec(kind="sphere", radius=1e154), 5, 5,
                             0.5)
        assert truth.valid.all()
        assert np.allclose(truth.values, 1e154, rtol=1e-15, atol=0)

    def test_rejects_ramp_whose_rise_overflows(self):
        # ground_truth scales the rise ramp_hi - ramp_lo; the widest finite
        # rise is accepted and gives a finite height field.
        for kind in ("sphere", "plane", "ramp"):
            with pytest.raises(ValueError,
                               match="and so must ramp_hi - ramp_lo"):
                SceneSpec(kind=kind, ramp_lo=-1e308, ramp_hi=1e308)
        truth = ground_truth(SceneSpec(kind="ramp", ramp_lo=-8e307,
                                       ramp_hi=8e307), 5, 5, 0.5)
        assert truth.values[0, 0] == -8e307 and truth.values[-1, 0] == 8e307


class TestBlurSpec:
    def test_defaults(self):
        blur = BlurSpec()
        assert blur.sigma0 == 3.0
        assert blur.max_radius == 16

    def test_rejects_negative_or_non_finite_sigma(self):
        with pytest.raises(ValueError):
            BlurSpec(sigma0=-0.5)
        with pytest.raises(ValueError):
            BlurSpec(sigma0=float("nan"))

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            BlurSpec(max_radius=0)


class TestGroundTruth:
    def test_sphere_apex_on_odd_grid(self):
        # A 65-pixel grid centers a pixel at (0, 0) exactly.
        truth = ground_truth(SceneSpec(kind="sphere", radius=1.0), 65, 65, 0.05)
        assert truth.values[32, 32] == 1.0
        assert truth.valid[32, 32]

    def test_sphere_equator_and_outside(self):
        # 3x3 grid with h = 1: pixel (0, 1) sits at (x, y) = (1, 0) on the
        # equator (height 0, still valid); corners lie outside.
        truth = ground_truth(SceneSpec(kind="sphere", radius=1.0), 3, 3, 1.0)
        assert truth.values[1, 2] == 0.0
        assert truth.valid[1, 2]
        assert not truth.valid[0, 0]
        assert truth.values[0, 0] == 0.0

    def test_sphere_height_decreases_with_radius(self):
        truth = ground_truth(SceneSpec(kind="sphere", radius=1.0), 33, 33, 0.05)
        row = truth.values[16, 16:]
        assert all(a >= b for a, b in zip(row, row[1:]))

    def test_plane_is_constant_and_fully_valid(self):
        truth = ground_truth(SceneSpec(kind="plane", height=0.5), 8, 6, 0.1)
        assert np.all(truth.values == 0.5)
        assert truth.valid.all()
        assert truth.method == "truth"

    def test_ramp_is_linear_in_y_and_constant_in_x(self):
        truth = ground_truth(
            SceneSpec(kind="ramp", ramp_lo=0.2, ramp_hi=0.8), 5, 9, 0.25
        )
        assert np.all(truth.values[0, :] == 0.2)
        assert np.allclose(truth.values[-1, :], 0.8, rtol=1e-14)
        assert np.allclose(np.diff(truth.values, axis=1), 0.0, atol=0)
        increments = np.diff(truth.values[:, 2])
        assert np.allclose(increments, increments[0], rtol=1e-12)

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            ground_truth(SceneSpec(), 0, 4, 0.1)
        # A non-finite spacing would go into the depth sidecar, which no
        # reader accepts.
        for h in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                ground_truth(SceneSpec(), 4, 4, h)


class TestTexture:
    def test_value_noise_is_seeded_and_bounded(self):
        scene = SceneSpec(kind="plane", texture_wavelength=0.3, seed=7)
        a = _texture(scene, 64, 64, 0.05, margin=0)
        b = _texture(scene, 64, 64, 0.05, margin=0)
        c = _texture(SceneSpec(kind="plane", texture_wavelength=0.3, seed=8),
                     64, 64, 0.05, margin=0)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert abs(a.mean() - 0.5) < 0.05

    def test_value_noise_independent_of_margin(self):
        # The texture is a function of world coordinates only, so the core
        # of a padded rendering must match the unpadded one bit for bit.
        scene = SceneSpec(kind="plane", texture_wavelength=0.3, seed=3)
        bare = _texture(scene, 32, 32, 0.1, margin=0)
        padded = _texture(scene, 32, 32, 0.1, margin=6)
        assert np.array_equal(padded[6:-6, 6:-6], bare)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["value-noise", "checker"])
    def test_strips_on_the_pool_match_the_whole_grid(self, monkeypatch,
                                                     workers, kind):
        # 37 x 23 padded by 5: 47 samples a row, 33 rows.
        scene = SceneSpec(kind="plane", texture_kind=kind,
                          texture_wavelength=0.3, seed=4)
        expected = reference_texture(scene, 37, 23, 0.05, margin=5)
        monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: workers)
        for rows in (1, 2, 7, 32, 33):
            monkeypatch.setattr(kernel2d, "_STRIP_SAMPLES", rows * 47)
            got = _texture(scene, 37, 23, 0.05, margin=5)
            assert np.array_equal(got, expected), rows

    def test_checker_blocks_and_levels(self):
        scene = SceneSpec(kind="plane", texture_kind="checker",
                          texture_wavelength=4.0)
        tex = _texture(scene, 8, 8, 1.0, margin=0)
        assert set(np.unique(tex)) <= {0.0, 1.0}
        # Half-wavelength cells are 2x2 pixels here.
        assert np.array_equal(tex[0:2, 0:2], np.full((2, 2), tex[0, 0]))
        assert tex[0, 2] == 1.0 - tex[0, 0]
        assert tex[2, 0] == 1.0 - tex[0, 0]
        assert tex[2, 2] == tex[0, 0]


class TestRenderStack:
    SMALL = dict(width=40, height=40, n_slides=5, z_min=0.0, z_max=1.0,
                 h=2.0 * 1.2 / 39)

    def _plane(self, **overrides):
        spec = dict(kind="plane", height=0.5, texture_wavelength=0.3, seed=5)
        spec.update(overrides)
        return SceneSpec(**spec)

    def test_deterministic_bit_for_bit(self):
        scene = self._plane()
        blur = BlurSpec(sigma0=2.0, max_radius=8)
        a = render_stack(scene, blur, **self.SMALL)
        b = render_stack(scene, blur, **self.SMALL)
        assert np.array_equal(a.data, b.data)

    def test_zero_blur_copies_texture_to_every_slide(self):
        stack = render_stack(self._plane(), BlurSpec(sigma0=0.0), **self.SMALL)
        for k in range(1, len(stack.data)):
            assert np.array_equal(stack.data[k], stack.data[0])
        assert stack.data[0].min() >= 0.0 and stack.data[0].max() <= 1.0

    def test_in_focus_slide_is_exact_texture_copy(self):
        # Plane height 0.5 coincides with slide 2 of five on [0, 1].
        sharp = render_stack(self._plane(), BlurSpec(sigma0=0.0), **self.SMALL)
        stack = render_stack(self._plane(), BlurSpec(sigma0=3.0), **self.SMALL)
        assert np.array_equal(stack.data[2], sharp.data[0])
        assert not np.array_equal(stack.data[0], sharp.data[0])

    def test_blur_reduces_variance_monotonically(self):
        stack = render_stack(self._plane(), BlurSpec(sigma0=3.0), **self.SMALL)
        spread = [np.var(stack.data[k]) for k in range(len(stack.data))]
        # Focus at slide 2: variance peaks there and decays outward.
        assert spread[2] > spread[1] > spread[0]
        assert spread[2] > spread[3] > spread[4]

    def test_energy_ordering_at_interior_pixels(self):
        # The in-focus slide out-sharpens the most defocused slide at the
        # overwhelming majority of interior pixels.
        stack = render_stack(self._plane(), BlurSpec(sigma0=3.0), **self.SMALL)
        q = 2
        measure = focus_volume(stack, q).data
        a = measure[2, q:-q, q:-q]
        b = measure[0, q:-q, q:-q]
        assert np.mean(a > b) >= 0.90

    def test_sphere_silhouette_pixels_are_sharp_at_z_zero(self):
        # Outside the sphere the surface height is 0, so slide 0 has
        # sigma = 0 there and must copy the texture exactly even though
        # the rest of the slide is blurred in the same gather.
        scene = SceneSpec(kind="sphere", radius=0.8, texture_wavelength=0.3,
                          seed=2)
        geometry = dict(self.SMALL)
        stack = render_stack(scene, BlurSpec(sigma0=3.0), **geometry)
        sharp = render_stack(scene, BlurSpec(sigma0=0.0), **geometry)
        truth = ground_truth(scene, geometry["width"], geometry["height"],
                             geometry["h"])
        outside = ~truth.valid
        assert outside.sum() > 50
        assert np.array_equal(stack.data[0][outside], sharp.data[0][outside])
        inside = truth.values > 0.3
        assert not np.array_equal(stack.data[0][inside], sharp.data[0][inside])

    def test_row_strips_do_not_change_a_bit(self, monkeypatch):
        # render_stack gathers each slide in strips of rows, sized by the
        # kernel pass's strip rule; 7-row strips must reproduce the
        # single-strip rendering bit for bit.
        scene = SceneSpec(kind="sphere", radius=0.8, texture_wavelength=0.3,
                          seed=2)
        blur = BlurSpec(sigma0=3.0)
        whole = render_stack(scene, blur, **self.SMALL)
        monkeypatch.setattr(kernel2d, "_STRIP_SAMPLES",
                            7 * self.SMALL["width"])
        strips = render_stack(scene, blur, **self.SMALL)
        assert np.array_equal(strips.data, whole.data)

    def test_max_radius_caps_the_psf(self):
        wide = render_stack(self._plane(), BlurSpec(sigma0=3.0, max_radius=16),
                            **self.SMALL)
        capped = render_stack(self._plane(), BlurSpec(sigma0=3.0, max_radius=2),
                              **self.SMALL)
        # The cap changes defocused slides but not the in-focus copy.
        assert np.array_equal(wide.data[2], capped.data[2])
        assert not np.array_equal(wide.data[0], capped.data[0])

    def test_stack_metadata(self):
        stack = render_stack(self._plane(), BlurSpec(sigma0=1.0), **self.SMALL)
        assert stack.data.shape[0] == 5
        assert (stack.z_min, stack.z_max) == (0.0, 1.0)
        assert stack.h == self.SMALL["h"]

    def test_rejects_too_few_slides(self):
        with pytest.raises(ValueError):
            render_stack(self._plane(), BlurSpec(), width=24, height=24,
                         n_slides=2, z_min=0.0, z_max=1.0, h=0.1)

    def test_rejects_inverted_z_range(self):
        with pytest.raises(ValueError):
            render_stack(self._plane(), BlurSpec(), width=24, height=24,
                         n_slides=5, z_min=1.0, z_max=0.0, h=0.1)

    @pytest.mark.parametrize("field, value", [
        ("z_min", -np.inf), ("z_max", np.inf), ("h", np.inf),
        ("h", np.nan),
        # Both ends finite, but not the width z_max - z_min.
        pytest.param(None, {"z_min": -1e308, "z_max": 1e308},
                     id="range-width")])
    def test_rejects_non_finite_geometry_before_rendering(self, monkeypatch,
                                                          field, value):
        def unreachable(*args):
            raise AssertionError("rendering started")

        monkeypatch.setattr(synth, "_gather", unreachable)
        monkeypatch.setattr(synth, "_separable_blur", unreachable)
        geometry = {**self.SMALL,
                    **(value if field is None else {field: value})}
        with pytest.raises(ValueError, match="finite"):
            render_stack(self._plane(), BlurSpec(), **geometry)

    def test_rejects_unresolvable_wavelength(self):
        scene = self._plane(texture_wavelength=0.05)
        with pytest.raises(ValueError):
            render_stack(scene, BlurSpec(), width=24, height=24, n_slides=5,
                         z_min=0.0, z_max=1.0, h=0.1)

    def test_rejects_plane_outside_stack_range(self):
        scene = self._plane(height=1.5)
        with pytest.raises(ValueError):
            render_stack(scene, BlurSpec(), **self.SMALL)

    @pytest.mark.parametrize("overrides, message", [
        (dict(kind="ramp", ramp_lo=5.0, ramp_hi=6.0), "outside stack range"),
        (dict(kind="ramp", ramp_lo=-2.0, ramp_hi=-1.0),
         "outside stack range"),
        (dict(kind="sphere", radius=5.0), "outside stack range"),
        (dict(kind="ramp", ramp_lo=1e308, ramp_hi=1e308),
         "outside stack range"),
        # Meets the range, but sigma0 times its defocus overflows.
        (dict(kind="ramp", ramp_lo=0.5, ramp_hi=1e308), "overflows")])
    def test_rejects_any_scene_the_range_cannot_image(self, monkeypatch,
                                                      overrides, message):
        def unreachable(*args):
            raise AssertionError("rendering started")

        monkeypatch.setattr(synth, "_gather", unreachable)
        monkeypatch.setattr(synth, "_separable_blur", unreachable)
        with pytest.raises(ValueError, match=message):
            render_slides(self._plane(**overrides), BlurSpec(), **self.SMALL)

    @pytest.mark.parametrize("overrides", [
        dict(height=0.0), dict(height=1.0),
        dict(kind="ramp", ramp_lo=-0.5, ramp_hi=0.0),
        dict(kind="ramp", ramp_lo=1.0, ramp_hi=3.0)])
    def test_scene_touching_the_range_renders(self, overrides):
        stack = render_stack(self._plane(**overrides), BlurSpec(),
                             **self.SMALL)
        assert stack.data.shape == (5, 40, 40)


class TestRenderSlides:
    SMALL = TestRenderStack.SMALL

    @pytest.mark.parametrize("kind", ["plane", "sphere"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_stream_is_the_stack_for_any_cpu_count(self, monkeypatch,
                                                   workers, kind):
        # The plane takes the separable blur, the sphere the gather.
        scene = SceneSpec(kind=kind, radius=0.8, texture_wavelength=0.3,
                          seed=2)
        blur = BlurSpec(sigma0=3.0)
        monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 1)
        whole = render_stack(scene, blur, **self.SMALL)
        monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: workers)
        slides = [slide.copy()
                  for slide in render_slides(scene, blur, **self.SMALL)]
        assert np.array_equal(np.stack(slides), whole.data)

    @pytest.mark.parametrize("overrides", [
        dict(n_slides=2), dict(z_min=1.0, z_max=0.0), dict(h=np.inf),
        dict(h=0.2)])
    def test_checks_when_called_not_when_iterated(self, monkeypatch,
                                                  overrides):
        # h = 0.2 leaves the 0.3 wavelength unresolvable.
        def unreachable(*args):
            raise AssertionError("rendering started")

        monkeypatch.setattr(synth, "_gather", unreachable)
        monkeypatch.setattr(synth, "_separable_blur", unreachable)
        scene = SceneSpec(kind="plane", texture_wavelength=0.3)
        with pytest.raises(ValueError):
            render_slides(scene, BlurSpec(), **{**self.SMALL, **overrides})

    @pytest.mark.parametrize("kind", ["plane", "ramp"])
    def test_workspace_is_allocated_once(self, monkeypatch, kind):
        """After the first slide the render workspace keeps one set of
        buffers, and later slides allocate no more than a few per-level
        arrays: strips of 60 x 160 samples (77 KB each, 36 rows last)
        would show.  The plane takes the separable blur, whose only
        strip-sized buffers are ``rows`` and ``term``, the ramp (96 levels)
        the gather.  numpy's ufunc buffers (128 KB at the
        default size, for strided operands) are numpy's, not the
        renderer's: they are shrunk to 8 KB so that they do not hide a
        strip-sized allocation."""
        monkeypatch.setattr(kernel2d, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(kernel2d, "_STRIP_SAMPLES", 60 * 160)
        spaces = []
        slide_pool = kernel2d._slide_pool

        def watched_pool(n, work, ring):
            spaces.clear()  # the texture's pool runs first

            def watched(k, out, space):
                work(k, out, space)
                spaces.append(dict(space))
            return slide_pool(n, watched, ring)

        monkeypatch.setattr(kernel2d, "_slide_pool", watched_pool)
        scene = SceneSpec(kind=kind, texture_wavelength=0.3, seed=1)
        slides = render_slides(scene, BlurSpec(sigma0=3.0), width=160,
                               height=96, n_slides=9, z_min=0.0, z_max=1.0,
                               h=2.4 / 159)
        bufsize = np.setbufsize(1024)
        tracemalloc.start()
        try:
            for k, _ in enumerate(slides):
                if k == 1:
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
            growth = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert growth < 64 * 1024, growth
        assert len(spaces) == 9
        first = spaces[0]
        if kind == "plane":
            assert first.keys() == {"rows", "term", "gauss", "den"}
        else:
            assert first.keys() == {"pairs", "ring", "group", "factors",
                                    "reach", "levels", "gauss", "den"}
        for space in spaces[1:]:
            assert space.keys() == first.keys()
            for name, buffer in first.items():
                assert space[name] is buffer, name


def _psf_radius(sigma, max_radius):
    return np.minimum(np.ceil(4.0 * sigma), max_radius).astype(int)


@st.composite
def _gather_inputs(draw):
    """Padded texture, sigma field and the PSF radius it implies."""
    height = draw(st.integers(1, 12))
    width = draw(st.integers(1, 12))
    max_radius = draw(st.integers(1, 6))
    margin = max_radius + draw(st.integers(0, 2))
    tex = draw(arrays(np.float64, (height + 2 * margin, width + 2 * margin),
                      elements=st.floats(0.0, 1.0)))
    values = st.floats(0.05, 3.0)
    kind = draw(st.sampled_from(["random", "constant", "zeros"]))
    if kind == "constant":
        sigma = np.full((height, width), draw(values))
    else:
        sigma = draw(arrays(np.float64, (height, width), elements=values))
    if kind == "zeros":
        sigma[draw(arrays(bool, (height, width)))] = 0.0
    return tex, margin, sigma, _psf_radius(sigma, max_radius), max_radius


def _one_level_per_pixel(sigma, radius):
    return sigma.ravel(), radius.ravel(), np.arange(sigma.size).reshape(
        sigma.shape)


def _gather_block(tex, margin, sigma, radius, index):
    """One gather of a whole block of rows, with the block's own tables."""
    space = {}
    gauss, den = _psf_tables(sigma, radius, margin, space)
    out = np.empty(index.shape)
    _gather(tex, margin, radius, gauss, den, index, out, space)
    return out


@settings(max_examples=60, deadline=None)
@given(_gather_inputs())
def test_gather_matches_direct_reference(inputs):
    tex, margin, sigma, radius, max_radius = inputs
    height, width = sigma.shape
    expected = reference_gather(tex, margin, sigma, radius)
    per_pixel = _gather_block(tex, margin,
                              *_one_level_per_pixel(sigma, radius))
    assert np.allclose(per_pixel, expected, rtol=0, atol=1e-12)
    # Sharing one level between the pixels of equal sigma changes no bit.
    levels, index = np.unique(sigma, return_inverse=True)
    per_level = _gather_block(tex, margin, levels,
                              _psf_radius(levels, max_radius),
                              index.reshape(sigma.shape))
    assert np.array_equal(per_level, per_pixel)
    sharp = sigma == 0.0
    core = tex[margin:margin + height, margin:margin + width]
    assert np.array_equal(per_pixel[sharp], core[sharp])


@settings(max_examples=40, deadline=None)
@given(_gather_inputs(), st.data())
def test_gather_of_any_support_matches_reference(inputs, data):
    # The radius need not follow from sigma: any square support works,
    # and sigma = 0 keeps only the center tap whatever the radius.
    tex, margin, sigma, _, _ = inputs
    radius = data.draw(arrays(np.int64, sigma.shape,
                              elements=st.integers(0, margin)))
    expected = reference_gather(tex, margin, sigma, radius)
    got = _gather_block(tex, margin, *_one_level_per_pixel(sigma, radius))
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(_gather_inputs(), st.data())
def test_gather_rows_are_independent(inputs, data):
    # Any block of rows gathered on its own, with the tables of the whole
    # slide, gives the same bits, which is what lets render_stack work in
    # strips.
    tex, margin, sigma, radius, _ = inputs
    height = sigma.shape[0]
    split = data.draw(st.integers(0, height))
    levels, radius, index = _one_level_per_pixel(sigma, radius)
    whole = _gather_block(tex, margin, levels, radius, index)
    space = {}
    gauss, den = _psf_tables(levels, radius, margin, space)
    for rows in (slice(0, split), slice(split, height)):
        if rows.start == rows.stop:
            continue
        block = np.empty((rows.stop - rows.start, sigma.shape[1]))
        _gather(tex[rows.start:rows.stop + 2 * margin], margin, radius,
                gauss, den, index[rows], block, space)
        assert np.array_equal(block, whole[rows])


@st.composite
def _slide_runs(draw):
    """A padded texture, a strip height and a run of slides over it, each
    a few sigma levels (one included) with radii from 0 to the margin."""
    height = draw(st.integers(1, 10))
    width = draw(st.integers(1, 10))
    margin = draw(st.integers(1, 5))
    tex = draw(arrays(np.float64, (height + 2 * margin, width + 2 * margin),
                      elements=st.floats(0.0, 1.0)))
    rows = draw(st.integers(1, height))
    slides = []
    for _ in range(draw(st.integers(1, 4))):
        levels = draw(st.integers(1, 4))
        sigma = draw(arrays(np.float64, levels, elements=st.one_of(
            st.just(0.0), st.floats(0.05, 3.0))))
        radius = draw(arrays(np.int64, levels,
                             elements=st.integers(0, margin)))
        index = draw(arrays(np.intp, (height, width),
                            elements=st.integers(0, levels - 1)))
        slides.append((sigma, radius, index))
    return tex, rows, margin, slides


def _banded_run(axis):
    """A run of one slide whose PSF reach varies only along ``axis``, in
    strips of 4 rows and an uneven last strip of 2.  Along the columns
    (axis 1), ring b reaches a band of columns in every row; along the
    rows (axis 0), a band of whole rows, as on a ramp."""
    height, width, margin = 6, 8, 3
    tex = np.random.default_rng(axis).random((height + 2 * margin,
                                              width + 2 * margin))
    sigma = np.array([0.0, 0.2, 0.5, 1.5])
    radius = np.array([0, 1, 2, 3])
    profile = np.array([0, 0, 1, 2, 3, 2, 1, 0])[:(height, width)[axis]]
    index = np.broadcast_to(np.expand_dims(profile, 1 - axis),
                            (height, width)).astype(np.intp)
    return tex, 4, margin, [(sigma, radius, index)]


@settings(max_examples=60, deadline=None)
@given(_slide_runs())
@example(_banded_run(axis=1))
@example(_banded_run(axis=0))
def test_workspace_gather_matches_level_reference(run):
    """One workspace through a run of slides, gathered in strips as
    render_slides does, from one row to the whole slide a strip: every
    slide is bit-equal to the level gather that builds its own tables and
    scratch.  The reference crops each ring to the bounding box of the
    pixels it reaches, the gather to whole rows, so the examples whose
    reach varies along one axis show that the rest of a row adds only
    exact zeros."""
    tex, rows, margin, slides = run
    height, width = slides[0][2].shape
    space = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel2d, "_STRIP_SAMPLES", rows * width)
        for sigma, radius, index in slides:
            expected = reference_level_gather(tex, margin, sigma, radius,
                                              index)
            gauss, den = _psf_tables(sigma, radius, margin, space)
            out = np.full((height, width), np.nan)
            for y in range(0, height, rows):
                _gather(tex[y:y + rows + 2 * margin], margin, radius, gauss,
                        den, index[y:y + rows], out[y:y + rows], space)
            assert np.array_equal(out, expected)


@st.composite
def _one_level_inputs(draw):
    """A padded texture and one PSF: sigma 0 or positive, and a square
    support of any radius up to the margin."""
    height = draw(st.integers(1, 12))
    width = draw(st.integers(1, 12))
    margin = draw(st.integers(0, 6))
    tex = draw(arrays(np.float64, (height + 2 * margin, width + 2 * margin),
                      elements=st.floats(0.0, 1.0)))
    sigma = draw(st.one_of(st.just(0.0), st.floats(0.05, 3.0)))
    radius = draw(st.integers(0, margin))
    return tex, margin, sigma, radius, (height, width)


def _one_level_tables(sigma, radius, margin, space):
    """The weight column and weight sum of one level, as render_slides
    passes them to the separable blur."""
    gauss, den = _psf_tables(np.array([sigma]), np.array([radius]), margin,
                             space)
    return gauss[:, 0], den[0]


@settings(max_examples=60, deadline=None)
@given(_one_level_inputs())
def test_separable_blur_matches_direct_reference(inputs):
    tex, margin, sigma, radius, shape = inputs
    space = {}
    out = np.full(shape, np.nan)
    _separable_blur(tex, margin, *_one_level_tables(sigma, radius, margin,
                                                    space), out, space)
    expected = reference_gather(tex, margin, np.full(shape, sigma),
                                np.full(shape, radius))
    assert np.allclose(out, expected, rtol=0, atol=1e-12)
    if sigma == 0.0 or radius == 0:
        # Only the center tap: the texture is copied bit for bit.
        height, width = shape
        core = tex[margin:margin + height, margin:margin + width]
        assert np.array_equal(out, core)


@settings(max_examples=40, deadline=None)
@given(_one_level_inputs(), st.data())
def test_separable_blur_rows_are_independent(inputs, data):
    # Any split of the rows into blocks, each blurred on its own with the
    # slide's tables in one workspace, gives the bits of the whole block,
    # which is what lets render_slides work in strips.
    tex, margin, sigma, radius, (height, width) = inputs
    cuts = (data.draw(st.sets(st.integers(1, height - 1))) if height > 1
            else set())
    space = {}
    gauss, den = _one_level_tables(sigma, radius, margin, space)
    whole = np.empty((height, width))
    _separable_blur(tex, margin, gauss, den, whole, space)
    bounds = [0, *sorted(cuts), height]
    blocks = np.full((height, width), np.nan)
    for top, bottom in zip(bounds, bounds[1:]):
        _separable_blur(tex[top:bottom + 2 * margin], margin, gauss, den,
                        blocks[top:bottom], space)
    assert np.array_equal(blocks, whole)
