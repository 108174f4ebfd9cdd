"""Synthetic focal stacks with exact ground-truth depth maps.

Scenes are height fields Z(x, y) over a centered grid: a sphere cap
(radius r, apex at z = r), a constant-height plane, or a ramp linear in y.
A textured version of the scene is imaged at each focal distance z_k with
a normalized Gaussian point-spread function whose width grows linearly
with the defocus |z_k - Z(x, y)|.  A scene of one height (the plane) has
one blur level a slide, and its Gaussian weight g(dx) g(dy) is separable:
it is blurred in a row pass and then a column pass
(:func:`_separable_blur`).  Every other scene goes through a per-pixel
gather (:func:`_gather`) that sums the taps in eight-fold symmetric
groups, evaluates the Gaussian once per distinct height and crops each
ring of taps to the rows it reaches.  Both copy in-focus pixels through
exactly.  Everything is deterministic given the scene seed.

:func:`render_slides` renders the slides on the slide pool of
:mod:`kernel2d`, one per usable CPU, and yields them in order from a ring
of a few buffers, so ``synth`` streams them to disk and its memory does
not grow with the number of slides; :func:`render_stack` collects them.
Each worker builds a slide's per-level tables once (:func:`_psf_tables`)
and blurs the slide in row strips, straight into its output buffer,
from scratch buffers of its workspace that are sized once per call, so
no strip allocates.  The padded texture is also built in row strips on
the pool before the first slide.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import kernel2d
from .grids import DepthMap, FocalStack, check_stack_geometry
from .kernel2d import _scratch, _strip_rows

__all__ = ["BlurSpec", "SceneSpec", "ground_truth", "render_slides",
           "render_stack"]

_SCENE_KINDS = ("sphere", "plane", "ramp")
_TEXTURE_KINDS = ("checker", "value-noise")


@dataclass(frozen=True)
class SceneSpec:
    """Geometry and texture of a synthetic scene on a centered x, y grid.

    ``radius`` applies to the sphere, ``height`` to the plane and
    ``ramp_lo``/``ramp_hi`` to the ramp (heights at the low and high y
    edge).  ``texture_wavelength`` is the dominant texture period in world
    units; it must stay resolvable (at least two grid spacings) when
    rendered.
    """

    kind: str = "sphere"
    radius: float = 1.0
    height: float = 0.5
    ramp_lo: float = 0.2
    ramp_hi: float = 0.8
    texture_wavelength: float = 0.075
    texture_kind: str = "value-noise"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("radius", "height", "ramp_lo", "ramp_hi",
                     "texture_wavelength"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, "
                                 f"got {getattr(self, name)}")
        # ground_truth squares the radius.
        if not math.isfinite(self.radius * self.radius):
            raise ValueError("radius must be finite, and so must its square, "
                             f"got {self.radius}")
        # ground_truth scales the ramp's rise, ramp_hi - ramp_lo.
        if not math.isfinite(self.ramp_hi - self.ramp_lo):
            raise ValueError("ramp_lo and ramp_hi must be finite, and so must "
                             f"ramp_hi - ramp_lo, got {self.ramp_lo}, "
                             f"{self.ramp_hi}")
        if self.kind not in _SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}, "
                             f"expected one of {_SCENE_KINDS}")
        if self.texture_kind not in _TEXTURE_KINDS:
            raise ValueError(f"unknown texture kind {self.texture_kind!r}, "
                             f"expected one of {_TEXTURE_KINDS}")
        if self.kind == "sphere" and not self.radius > 0:
            raise ValueError(f"sphere radius must be positive, got {self.radius}")
        if not self.texture_wavelength > 0:
            raise ValueError("texture wavelength must be positive, "
                             f"got {self.texture_wavelength}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class BlurSpec:
    """Defocus model: Gaussian PSF with sigma = sigma0 * |z - Z| pixels.

    The PSF support is the square max(|dx|, |dy|) <= ceil(4 sigma) pixels,
    bounded by ``max_radius``, and renormalized per pixel; sigma = 0 copies
    the texture through exactly.  A slide with one sigma level (every
    plane slide) is blurred in a separable row-then-column pass, and any
    other in a symmetric-tap gather.  The summation order of either
    differs from a plain tap-by-tap loop by at most a few units in the
    last place (4e-15 on the standard 256x256x32 scenes).
    """

    sigma0: float = 3.0
    max_radius: int = 16

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma0) and self.sigma0 >= 0):
            raise ValueError(f"sigma0 must be finite and >= 0, got {self.sigma0}")
        if self.max_radius < 1:
            raise ValueError(f"max_radius must be >= 1, got {self.max_radius}")


def _grid_axes(width: int, height: int, h: float,
               margin: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """World coordinates of a centered grid, optionally with a margin ring."""
    x = (np.arange(-margin, width + margin) - (width - 1) / 2.0) * h
    y = (np.arange(-margin, height + margin) - (height - 1) / 2.0) * h
    return x, y


def ground_truth(scene: SceneSpec, width: int, height: int,
                 h: float) -> DepthMap:
    """Exact height field of a scene sampled on the centered pixel grid.

    Sphere: Z = sqrt(max(0, r^2 - x^2 - y^2)), valid inside the silhouette
    (the clamped zero height outside is kept as the surface seen by the
    defocus model).  Plane and ramp are valid everywhere.
    """
    if width < 1 or height < 1 or not (math.isfinite(h) and h > 0):
        raise ValueError("grid must have positive dimensions and a finite "
                         "positive spacing")
    x, y = _grid_axes(width, height, h)
    xx, yy = np.meshgrid(x, y)
    if scene.kind == "sphere":
        r2 = scene.radius ** 2 - xx ** 2 - yy ** 2
        values = np.sqrt(np.maximum(r2, 0.0))
        valid = r2 >= 0.0
    elif scene.kind == "plane":
        values = np.full((height, width), float(scene.height))
        valid = np.ones((height, width), dtype=bool)
    else:  # ramp
        span = y[-1] - y[0] if height > 1 else 1.0
        t = (yy - y[0]) / span
        values = scene.ramp_lo + (scene.ramp_hi - scene.ramp_lo) * t
        valid = np.ones((height, width), dtype=bool)
    return DepthMap(values=values, valid=valid, h=h)


# Number of plane waves in the value-noise superposition.  Two dozen
# random directions give a speckle pattern that is statistically isotropic
# without being expensive to evaluate.
_NOISE_WAVES = 24


def _texture(scene: SceneSpec, width: int, height: int, h: float,
             margin: int) -> np.ndarray:
    """Texture in [0, 1] on the padded grid (margin ring included).

    Checker: squares of side wavelength/2.  Value noise: a seeded sum of
    plane waves of the single spatial wavelength ``texture_wavelength``
    with random directions, phases and amplitudes.  Concentrating the
    spectrum on one wavelength ring keeps the texture band-limited and
    gives it a speckle-like amplitude that touches zero in isolated
    spots, so focus measures see strong texture almost everywhere plus a
    sparse set of genuinely weak pixels.  The value at a pixel depends
    only on its world coordinates and the seed, never on the grid or
    margin it is rendered into.

    The grid is filled in row strips (``kernel2d._strip_rows``) on the slide
    pool of :mod:`kernel2d`, one item per strip, all queued at once.  Each
    sample goes through the same elementwise operations in the same order
    whatever its strip or worker, so the bits do not depend on either.
    """
    x, y = _grid_axes(width, height, h, margin)
    y = y[:, np.newaxis]
    lam = scene.texture_wavelength
    rows = _strip_rows(x.size)
    if scene.texture_kind == "checker":
        cells_x = np.floor(2.0 * x / lam)
        cells_y = np.floor(2.0 * y / lam)

        def fill(k: int, out: np.ndarray, space: dict) -> None:
            cells = cells_x + cells_y[k * rows:k * rows + len(out)]
            out[...] = np.where(cells % 2 == 0, 1.0, 0.0)
    else:
        rng = np.random.default_rng(scene.seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, _NOISE_WAVES)
        phase = rng.uniform(0.0, 2.0 * np.pi, _NOISE_WAVES)
        amp = rng.uniform(0.5, 1.0, _NOISE_WAVES)
        wavenumber = 2.0 * np.pi / lam
        total = amp.sum()
        # Each wave's two terms, once per grid column and once per row.
        along_x = [np.cos(theta[j]) * x for j in range(_NOISE_WAVES)]
        along_y = [np.sin(theta[j]) * y for j in range(_NOISE_WAVES)]

        def fill(k: int, out: np.ndarray, space: dict) -> None:
            # carrier = sum_j amp_j cos(wavenumber (x cos theta_j
            # + y sin theta_j) + phase_j), accumulated in ``out``.
            top = k * rows
            wave = _scratch(space, "wave", (rows, x.size))[:len(out)]
            out[...] = 0.0
            for j in range(_NOISE_WAVES):
                np.add(along_x[j], along_y[j][top:top + len(out)], out=wave)
                wave *= wavenumber
                wave += phase[j]
                np.cos(wave, out=wave)
                wave *= amp[j]
                out += wave
            out *= 0.5
            out /= total
            out += 0.5

    tex = np.empty((y.size, x.size))
    strips = [tex[top:top + rows] for top in range(0, y.size, rows)]
    for _ in kernel2d._slide_pool(len(strips), fill, strips):
        pass
    return tex


def _psf_tables(sigma: np.ndarray, radius: np.ndarray, margin: int,
                space: dict) -> tuple[np.ndarray, np.ndarray]:
    """The per-level tables of one slide for :func:`_gather` and, with one
    level, for :func:`_separable_blur`.

    ``gauss[d]`` is exp(-d^2/(2 sigma^2)) for each level, 0 where the
    level's radius is below d, for d = 0 .. radius.max(); ``den`` is each
    level's weight sum over its square support, added ring by ring in the
    order :func:`_gather` adds the taps.  Both are views of the workspace
    buffers ``gauss`` and ``den`` of ``space``, sized by ``margin >=
    radius.max()`` and the number of levels.
    """
    r_max = int(radius.max())
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / (2.0 * sigma * sigma)  # inf at sigma = 0
    gauss = _scratch(space, "gauss", (margin + 1, sigma.size))[:r_max + 1]
    gauss[0] = 1.0
    for d in range(1, r_max + 1):
        np.multiply(-(d * d), inv, out=gauss[d])
        np.exp(gauss[d], out=gauss[d])
        gauss[d][radius < d] = 0.0
    den = _scratch(space, "den", (sigma.size,))
    den[...] = 1.0
    for b in range(1, r_max + 1):
        ring_den = np.full(sigma.size, 4.0)
        for a in range(1, b + 1):
            ring_den += (8.0 if a < b else 4.0) * gauss[a]
        den += gauss[b] * ring_den
    return gauss, den


def _gather(tex: np.ndarray, margin: int, radius: np.ndarray,
            gauss: np.ndarray, den: np.ndarray, index: np.ndarray,
            out: np.ndarray, space: dict) -> None:
    """Gather a block of rows with a per-pixel Gaussian PSF into ``out``.

    Output pixel p has level index[p], PSF width sigma[index[p]] pixels and
    support radius radius[index[p]].  It sums the padded texture over the
    square of offsets max(|dx|, |dy|) <= radius with weights
    exp(-(dx^2+dy^2)/(2 sigma^2)), then divides by its own weight sum.
    ``tex`` is the texture padded by ``margin >= radius.max()`` on every
    side, and ``gauss`` and ``den`` are the level tables of
    :func:`_psf_tables`.  A per-pixel sigma field is the case of one level
    per pixel.

    The taps are summed in symmetric groups.  Ring b = max(|dx|, |dy|)
    holds, for each a <= b, the up to eight taps (+-a, +-b) and (+-b, +-a),
    which share the weight gauss[a] * gauss[b]: their texture values are
    added first (from sums of +-d column pairs), multiplied by the
    a-factor once, and each ring's total by the b-factor once.  The
    factors and the weight sums are gathered from the level tables to the
    pixels.  Ring b is cropped to the span of whole rows that hold a pixel
    it reaches.  A pixel of those rows that it does not reach adds the
    ring times a b-factor of exactly 0 (gauss[b] is 0 past a level's
    radius), and since the texture is non-negative that +0 changes no
    bit.  Pixels with sigma = 0 or radius 0 keep only the center tap and
    copy the texture through exactly.  The summation order differs from a
    plain tap-by-tap loop; on the standard scenes the two agree to 4e-15.
    Every pixel's arithmetic is the same whatever block of rows it is
    gathered in.  A slide with one level is the plane's,
    which :func:`render_slides` blurs with :func:`_separable_blur`
    instead; here it takes the same path as any other, with the same bits
    as one level per pixel.

    Its scratch buffers (``pairs``, ``ring``, ``group``, ``factors``, the
    ``reach`` map and the ``levels``, the block's ``index`` as intp) are
    workspace buffers of ``space``, sized by a strip of
    ``kernel2d._strip_rows`` rows (or the block, if taller), the margin
    and the width, so a run of strips of one geometry allocates no array
    of a strip's size.
    """
    height, width = index.shape
    rows = max(height, _strip_rows(width))
    pairs = _scratch(space, "pairs", (margin, rows + 2 * margin, width))
    ring_buffer = _scratch(space, "ring", (rows, width))
    group_buffer = _scratch(space, "group", (rows, width))
    # The levels as intp once: np.take would convert a narrower index on
    # every call.
    levels = _scratch(space, "levels", (rows, width), np.intp)[:height]
    levels[...] = index
    index = levels
    reach = np.take(radius, index, mode="clip",
                    out=_scratch(space, "reach", (rows, width), int)[:height])
    row_reach = reach.max(axis=1)
    factors = _scratch(space, "factors", (margin, rows, width))
    r_max = int(row_reach.max())
    out[...] = tex[margin:margin + height, margin:margin + width]
    # columns[d][i, j] = tex(i, j + d) + tex(i, j - d) on all padded rows.
    columns = [tex[:, margin:margin + width]]
    for b in range(1, r_max + 1):
        columns.append(np.add(tex[:, margin + b:margin + b + width],
                              tex[:, margin - b:margin - b + width],
                              out=pairs[b - 1, :height + 2 * margin]))
        np.take(gauss[b], index, mode="clip", out=factors[b - 1, :height])
        ys = np.flatnonzero(row_reach >= b)
        y0, y1 = ys[0], ys[-1] + 1

        def taps(d: int, dy: int) -> np.ndarray:
            """The pair sums at (dy, +-d) for every pixel of the rows."""
            return columns[d][margin + y0 + dy:margin + y1 + dy]

        ring = ring_buffer[y0:y1]
        group = group_buffer[y0:y1]
        # a = 0: the four taps (0, +-b) and (+-b, 0), a-factor 1.
        np.add(taps(b, 0), taps(0, -b), out=ring)
        ring += taps(0, b)
        for a in range(1, b + 1):
            np.add(taps(b, -a), taps(b, a), out=group)
            if a < b:
                group += taps(a, -b)
                group += taps(a, b)
            group *= factors[a - 1, y0:y1]
            ring += group
        ring *= factors[b - 1, y0:y1]
        out[y0:y1] += ring
    # The ring buffer is spent: it takes the weight sums instead.
    out /= np.take(den, index, mode="clip", out=ring_buffer[:height])


def _separable_blur(tex: np.ndarray, margin: int, gauss: np.ndarray,
                    den: float, out: np.ndarray, space: dict) -> None:
    """Blur a block of rows with one Gaussian PSF into ``out``.

    ``gauss`` is one level's column of the :func:`_psf_tables` weight
    table, gauss[d] for d = 0 .. r, and ``den`` its weight sum; ``tex`` is
    the texture padded by ``margin >= r`` on every side.  The weight
    gauss[|dx|] * gauss[|dy|] of the square support is separable, so a row
    pass sums gauss[d] * (tex(i, j + d) + tex(i, j - d)) over d on every
    padded row the column pass reaches, and the column pass sums the same
    weights over the row pass's rows into ``out``, which is then divided
    by ``den``.  That is about 6r ufunc element-operations a pixel,
    against about 2.5r^2 for the rings of :func:`_gather`.  Radius 0
    copies the texture exactly, and so does sigma = 0 (every weight past
    the center is 0).  Every pixel's arithmetic is the same whatever
    block of rows it is blurred in.

    Its two scratch buffers, ``rows`` (the row pass) and ``term``, are
    workspace buffers of ``space`` of (strip + 2 margin) x width, where a
    strip is ``kernel2d._strip_rows`` rows (or the block, if taller).
    """
    height, width = out.shape
    r = gauss.size - 1
    shape = (max(height, _strip_rows(width)) + 2 * margin, width)
    rows = _scratch(space, "rows", shape)[:height + 2 * r]
    term = _scratch(space, "term", shape)[:height + 2 * r]
    band = tex[margin - r:margin + r + height]
    rows[...] = band[:, margin:margin + width]
    for d in range(1, r + 1):
        np.add(band[:, margin + d:margin + d + width],
               band[:, margin - d:margin - d + width], out=term)
        term *= gauss[d]
        rows += term
    term = term[:height]
    out[...] = rows[r:r + height]
    for d in range(1, r + 1):
        np.add(rows[r + d:r + d + height], rows[r - d:r - d + height],
               out=term)
        term *= gauss[d]
        out += term
    out /= den


def render_slides(scene: SceneSpec, blur: BlurSpec, width: int, height: int,
                  n_slides: int, z_min: float, z_max: float,
                  h: float) -> Iterator[np.ndarray]:
    """Yield the defocused slides of a textured scene, in order.

    Slide k focuses at z_k = z_min + k * (z_max - z_min)/(n_slides - 1);
    every pixel gathers the texture under a Gaussian PSF of width
    sigma0 * |z_k - Z(x, y)| pixels.  The texture is generated on a grid
    padded by the maximum PSF radius, so border pixels blur into real
    texture rather than into an extrapolation artifact.  The arguments are
    checked, and the texture built (:func:`_texture`), when this is called,
    before any slide is rendered: a scene whose heights miss [z_min, z_max]
    or whose largest defocus (it sets the margin) overflows is refused.
    The slides are rendered by the slide
    pool (``kernel2d._slide_pool``), one worker per usable CPU, into a ring
    of one buffer per worker plus one, so memory does not grow with
    ``n_slides``; a yielded slide may be overwritten once the next is
    requested.  A worker builds each slide's sigma levels, radii and
    :func:`_psf_tables` once, then fills the slide strip by strip, with
    :func:`_separable_blur` when the scene has one height (so each slide
    one level) and with :func:`_gather` otherwise; their scratch stays in
    the worker's workspace for the whole call.  Bit-identical for
    identical scene, blur and grid parameters, whatever the CPU count.
    """
    check_stack_geometry(n_slides, z_min, z_max, h)
    if scene.texture_wavelength < 2.0 * h:
        raise ValueError(
            f"texture wavelength {scene.texture_wavelength} not resolvable "
            f"at spacing {h} (needs >= 2 h)"
        )

    truth = ground_truth(scene, width, height, h).values
    lowest, highest = float(truth.min()), float(truth.max())
    if not (lowest <= z_max and z_min <= highest):
        raise ValueError(f"scene heights [{lowest}, {highest}] outside stack "
                         f"range [{z_min}, {z_max}]")
    # The largest defocus of any pixel on any slide, in pixels.
    sigma_cap = blur.sigma0 * max(highest - z_min, z_max - lowest)
    if not math.isfinite(4.0 * sigma_cap):
        raise ValueError(f"defocus of heights [{lowest}, {highest}] overflows")
    margin = min(blur.max_radius, int(math.ceil(4.0 * sigma_cap)))
    tex = _texture(scene, width, height, h, margin)

    # A pixel's PSF depends only on its height: one sigma level per height,
    # indexed in the narrowest unsigned type that holds every level.
    heights, index = np.unique(truth, return_inverse=True)
    index = index.reshape(truth.shape).astype(
        np.min_scalar_type(len(heights) - 1))
    delta_z = (z_max - z_min) / (n_slides - 1)
    # Each pixel's arithmetic is the same whatever strip it is in.
    strip = _strip_rows(width)

    def render(k: int, out: np.ndarray, space: dict) -> None:
        sigma = blur.sigma0 * np.abs(z_min + k * delta_z - heights)
        radius = np.minimum(np.ceil(4.0 * sigma), blur.max_radius).astype(int)
        gauss, den = _psf_tables(sigma, radius, margin, space)
        for y in range(0, height, strip):
            band = tex[y:y + strip + 2 * margin]
            if heights.size == 1:
                _separable_blur(band, margin, gauss[:, 0], den[0],
                                out[y:y + strip], space)
            else:
                _gather(band, margin, radius, gauss, den,
                        index[y:y + strip], out[y:y + strip], space)

    ring = np.empty((kernel2d._ring_length(n_slides), height, width))
    return kernel2d._slide_pool(n_slides, render, ring)


def render_stack(scene: SceneSpec, blur: BlurSpec, width: int, height: int,
                 n_slides: int, z_min: float, z_max: float,
                 h: float) -> FocalStack:
    """The slides of :func:`render_slides`, collected into a FocalStack."""
    slides = render_slides(scene, blur, width, height, n_slides, z_min,
                           z_max, h)
    data = np.empty((n_slides, height, width))
    for k, slide in enumerate(slides):
        data[k] = slide
    return FocalStack(data, z_min=z_min, z_max=z_max, h=h)
