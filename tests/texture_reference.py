"""Reference for the renderer's texture: the whole padded grid at once.

Builds the full meshgrid and sums the value-noise waves over it on one
thread.  ``synth._texture``, which fills row strips on the slide pool,
must agree with it bit for bit for both texture kinds.
"""

import numpy as np

from fracfocus.synth import _NOISE_WAVES, _grid_axes


def reference_texture(scene, width: int, height: int, h: float,
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
