"""Synthetic focal stacks with exact ground-truth depth maps.

Scenes are height fields Z(x, y) over a centered grid: a sphere cap
(radius r, apex at z = r), a constant-height plane, or a ramp linear in y.
A textured version of the scene is imaged at each focal distance z_k by a
per-pixel gather with a normalized Gaussian point-spread function whose
width grows linearly with the defocus |z_k - Z(x, y)|.  One gather renders
every slide, blurred or in focus, constant or varying defocus: it sums the
taps in eight-fold symmetric groups, evaluates the Gaussian once per
distinct height, crops each ring of taps to the pixels it reaches and
copies in-focus pixels through exactly.  Everything is deterministic given
the scene seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import DepthMap, FocalStack

__all__ = ["BlurSpec", "SceneSpec", "ground_truth", "render_stack"]

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
    the texture through exactly.  Every slide goes through the same
    symmetric-tap gather, whose summation order differs from a plain
    tap-by-tap loop by at most a few units in the last place (4e-15 on the
    standard 256x256x32 scenes).
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
    if width < 1 or height < 1 or h <= 0:
        raise ValueError("grid must have positive dimensions and spacing")
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
    """
    x, y = _grid_axes(width, height, h, margin)
    xx, yy = np.meshgrid(x, y)
    lam = scene.texture_wavelength
    if scene.texture_kind == "checker":
        cells = np.floor(2.0 * xx / lam) + np.floor(2.0 * yy / lam)
        return np.where(cells % 2 == 0, 1.0, 0.0)

    rng = np.random.default_rng(scene.seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, _NOISE_WAVES)
    phase = rng.uniform(0.0, 2.0 * np.pi, _NOISE_WAVES)
    amp = rng.uniform(0.5, 1.0, _NOISE_WAVES)
    wavenumber = 2.0 * np.pi / lam
    carrier = np.zeros_like(xx)
    for j in range(_NOISE_WAVES):
        carrier += amp[j] * np.cos(
            wavenumber * (np.cos(theta[j]) * xx + np.sin(theta[j]) * yy)
            + phase[j])
    return 0.5 + 0.5 * carrier / amp.sum()


# Output pixels per row strip in render_stack: 2^15 pixels is 256 KiB per
# float array, small enough for a strip's working set to stay in cache.
_STRIP_PIXELS = 1 << 15


def _gather(tex: np.ndarray, margin: int, sigma: np.ndarray,
            radius: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Gather with a per-pixel Gaussian PSF over a map of sigma levels.

    Output pixel p has level index[p], PSF width sigma[index[p]] pixels and
    support radius radius[index[p]].  It sums the padded texture over the
    square of offsets max(|dx|, |dy|) <= radius with weights
    exp(-(dx^2+dy^2)/(2 sigma^2)), then divides by its own weight sum.
    ``tex`` is the texture padded by ``margin >= radius.max()`` on every
    side.  A per-pixel sigma field is the case of one level per pixel.

    The taps are summed in symmetric groups.  Ring b = max(|dx|, |dy|)
    holds, for each a <= b, the up to eight taps (+-a, +-b) and (+-b, +-a),
    which share the weight exp(-a^2/(2 sigma^2)) * exp(-b^2/(2 sigma^2)):
    their texture values are added first (from sums of +-d column pairs),
    multiplied by the a-factor once, and each ring's total by the b-factor
    once.  The factors, and the weight sums, are evaluated once per level
    (0 past the level's radius) and gathered back to the pixels, so a
    constant sigma field costs one scalar ``exp`` per factor.  Ring b is
    cropped to the bounding box of the pixels it reaches.  Pixels with
    sigma = 0 or radius 0 keep only the center tap and copy the texture
    through exactly.  The summation order differs from a plain tap-by-tap
    loop; on the standard scenes the two agree to 4e-15.
    """
    height, width = index.shape
    reach = radius[index]
    r_max = int(reach.max())
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / (2.0 * sigma * sigma)  # inf at sigma = 0
    # gauss[d] = exp(-d^2 inv) per level, 0 where the radius is below d.
    gauss = np.ones((r_max + 1, sigma.size))
    for d in range(1, r_max + 1):
        gauss[d] = np.where(radius >= d, np.exp(-(d * d) * inv), 0.0)
    den = np.ones(sigma.size)  # weight sum per level
    num = tex[margin:margin + height, margin:margin + width].copy()
    rows = reach.max(axis=1)
    cols = reach.max(axis=0)
    # pairs[d][i, j] = tex(i, j + d) + tex(i, j - d) on all padded rows;
    # factors[d] = gauss[d] per pixel.
    pairs = [tex[:, margin:margin + width]]
    factors = [None]
    for b in range(1, r_max + 1):
        pairs.append(tex[:, margin + b:margin + b + width]
                     + tex[:, margin - b:margin - b + width])
        factors.append(gauss[b][index])
        ys = np.flatnonzero(rows >= b)
        xs = np.flatnonzero(cols >= b)
        y0, y1, x0, x1 = ys[0], ys[-1] + 1, xs[0], xs[-1] + 1
        box = np.s_[y0:y1, x0:x1]

        def taps(d: int, dy: int) -> np.ndarray:
            """The pair sums at (dy, +-d) for every pixel of the box."""
            return pairs[d][margin + y0 + dy:margin + y1 + dy, x0:x1]

        # a = 0: the four taps (0, +-b) and (+-b, 0), a-factor 1.
        ring = taps(b, 0) + taps(0, -b)
        ring += taps(0, b)
        ring_den = np.full(sigma.size, 4.0)
        group = np.empty_like(ring)
        for a in range(1, b + 1):
            np.add(taps(b, -a), taps(b, a), out=group)
            if a < b:
                group += taps(a, -b)
                group += taps(a, b)
            group *= factors[a][box]
            ring += group
            ring_den += (8.0 if a < b else 4.0) * gauss[a]
        ring *= factors[b][box]
        num[box] += ring
        den += gauss[b] * ring_den
    return num / den[index]


def render_stack(scene: SceneSpec, blur: BlurSpec, width: int, height: int,
                 n_slides: int, z_min: float, z_max: float,
                 h: float) -> FocalStack:
    """Render a defocused slide sequence of a textured scene.

    Slide k focuses at z_k = z_min + k * (z_max - z_min)/(n_slides - 1);
    every pixel gathers the texture under a Gaussian PSF of width
    sigma0 * |z_k - Z(x, y)| pixels.  The texture is generated on a grid
    padded by the maximum PSF radius, so border pixels blur into real
    texture rather than into an extrapolation artifact.  Bit-identical for
    identical scene, blur and grid parameters.
    """
    if n_slides < 3:
        raise ValueError(f"need at least 3 slides, got {n_slides}")
    if not z_max > z_min:
        raise ValueError(f"need z_max > z_min, got [{z_min}, {z_max}]")
    if h <= 0 or width < 1 or height < 1:
        raise ValueError("grid must have positive dimensions and spacing")
    if scene.texture_wavelength < 2.0 * h:
        raise ValueError(
            f"texture wavelength {scene.texture_wavelength} not resolvable "
            f"at spacing {h} (needs >= 2 h)"
        )
    if scene.kind == "plane" and not z_min <= scene.height <= z_max:
        raise ValueError(
            f"plane height {scene.height} outside stack range [{z_min}, {z_max}]"
        )

    truth = ground_truth(scene, width, height, h).values
    max_defocus = float(np.max(np.maximum(np.abs(z_min - truth),
                                          np.abs(z_max - truth))))
    sigma_cap = blur.sigma0 * max_defocus
    margin = min(blur.max_radius, int(math.ceil(4.0 * sigma_cap)))
    tex = _texture(scene, width, height, h, margin)

    # A pixel's PSF depends only on its height: one sigma level per height.
    heights, index = np.unique(truth, return_inverse=True)
    index = index.reshape(truth.shape)
    delta_z = (z_max - z_min) / (n_slides - 1)
    # Strips of rows keep a gather's pair sums and factors in cache; each
    # pixel's arithmetic is the same whatever strip it is gathered in.
    strip = max(1, _STRIP_PIXELS // width)
    slides = np.empty((n_slides, height, width))
    for k in range(n_slides):
        sigma = blur.sigma0 * np.abs(z_min + k * delta_z - heights)
        radius = np.minimum(np.ceil(4.0 * sigma), blur.max_radius).astype(int)
        for y in range(0, height, strip):
            slides[k, y:y + strip] = _gather(
                tex[y:y + strip + 2 * margin], margin, sigma, radius,
                index[y:y + strip])
    return FocalStack(slides, z_min=z_min, z_max=z_max, h=h)
