"""Tests for the synthetic scene generator and defocus renderer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blur_reference import reference_gather

from fracfocus import kernel2d, synth
from fracfocus.focus import local_focus_volume
from fracfocus.synth import (BlurSpec, SceneSpec, ground_truth, render_slides,
                             render_stack)
from fracfocus.synth import _gather, _texture


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
        with pytest.raises(ValueError):
            ground_truth(SceneSpec(), 4, 4, 0.0)


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
        for k in range(1, stack.n_slides):
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
        spread = [np.var(stack.data[k]) for k in range(stack.n_slides)]
        # Focus at slide 2: variance peaks there and decays outward.
        assert spread[2] > spread[1] > spread[0]
        assert spread[2] > spread[3] > spread[4]

    def test_energy_ordering_at_interior_pixels(self):
        # The in-focus slide out-sharpens the most defocused slide at the
        # overwhelming majority of interior pixels.
        stack = render_stack(self._plane(), BlurSpec(sigma0=3.0), **self.SMALL)
        q = 2
        measure = local_focus_volume(stack, q).data
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
        # render_stack gathers each slide in strips of rows; 7-row strips
        # must reproduce the single-strip rendering bit for bit.
        scene = SceneSpec(kind="sphere", radius=0.8, texture_wavelength=0.3,
                          seed=2)
        blur = BlurSpec(sigma0=3.0)
        whole = render_stack(scene, blur, **self.SMALL)
        monkeypatch.setattr(synth, "_STRIP_PIXELS", 7 * self.SMALL["width"])
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
        assert stack.n_slides == 5
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
        ("h", np.nan)])
    def test_rejects_non_finite_geometry_before_rendering(self, monkeypatch,
                                                          field, value):
        def unreachable(*args):
            raise AssertionError("rendering started")

        monkeypatch.setattr(synth, "_gather", unreachable)
        geometry = {**self.SMALL, field: value}
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


class TestRenderSlides:
    SMALL = TestRenderStack.SMALL

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_stream_is_the_stack_for_any_cpu_count(self, monkeypatch,
                                                   workers):
        scene = SceneSpec(kind="sphere", radius=0.8, texture_wavelength=0.3,
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
        scene = SceneSpec(kind="plane", texture_wavelength=0.3)
        with pytest.raises(ValueError):
            render_slides(scene, BlurSpec(), **{**self.SMALL, **overrides})


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


@settings(max_examples=60, deadline=None)
@given(_gather_inputs())
def test_gather_matches_direct_reference(inputs):
    tex, margin, sigma, radius, max_radius = inputs
    height, width = sigma.shape
    expected = reference_gather(tex, margin, sigma, radius)
    per_pixel = _gather(tex, margin, *_one_level_per_pixel(sigma, radius))
    assert np.allclose(per_pixel, expected, rtol=0, atol=1e-12)
    # Sharing one level between the pixels of equal sigma changes no bit.
    levels, index = np.unique(sigma, return_inverse=True)
    per_level = _gather(tex, margin, levels, _psf_radius(levels, max_radius),
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
    got = _gather(tex, margin, *_one_level_per_pixel(sigma, radius))
    assert np.allclose(got, expected, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(_gather_inputs(), st.data())
def test_gather_rows_are_independent(inputs, data):
    # Any block of rows gathered on its own gives the same bits, which is
    # what lets render_stack work in strips.
    tex, margin, sigma, radius, _ = inputs
    height = sigma.shape[0]
    split = data.draw(st.integers(0, height))
    levels = _one_level_per_pixel(sigma, radius)
    whole = _gather(tex, margin, *levels)
    index = levels[2]
    for rows in (slice(0, split), slice(split, height)):
        if rows.start == rows.stop:
            continue
        block = _gather(tex[rows.start:rows.stop + 2 * margin], margin,
                        levels[0], levels[1], index[rows])
        assert np.array_equal(block, whole[rows])
