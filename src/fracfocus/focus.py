"""Focus measures: the local modified Laplacian and its nonlocal extension.

The local measure at step q is the sum of absolute second differences at
stride q in x and y, scaled by 1/(q h)^2, zero on a border frame of width
q.  A focus volume is one (n_slides, height, width) array: the local
measure is written into it slide by slide, and the nonlocal measure is one
kernel pass over the whole volume (``kernel2d.correlate_layers``, a
separable pair-sum pass in which equal windows give equal bits, so exact
ties between slides survive) followed by re-imposing the zero frame.  Local
and nonlocal volumes therefore share the same support, and order 0 reduces
bit-exactly to the local measure.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import FocalStack, FocusVolume, ScalarField
from .kernel2d import Kernel, build_kernel, correlate_layers

__all__ = [
    "local_focus_volume",
    "local_modified_laplacian",
    "nonlocal_focus_volume",
    "nonlocalize_volume",
    "nyquist_hint",
]


def _check_step(shape: tuple[int, ...], q: int) -> None:
    """Reject a step q < 1 or slides with no pixel inside the q-frame."""
    if q < 1:
        raise ValueError(f"step q must be >= 1, got {q}")
    height, width = shape[-2:]
    if width <= 2 * q or height <= 2 * q:
        raise ValueError(
            f"slide of shape {(height, width)} too small for step q={q}"
        )


def _modified_laplacian_into(out: np.ndarray, f: np.ndarray, q: int,
                             h: float) -> None:
    """Write the stride-q measure of slide ``f`` inside ``out``'s q-frame."""
    scale = 1.0 / (q * h) ** 2
    d2x = f[q:-q, 2 * q:] - 2.0 * f[q:-q, q:-q] + f[q:-q, :-2 * q]
    d2y = f[2 * q:, q:-q] - 2.0 * f[q:-q, q:-q] + f[:-2 * q, q:-q]
    out[q:-q, q:-q] = (np.abs(d2x) + np.abs(d2y)) * scale


def local_modified_laplacian(slide: ScalarField, q: int) -> ScalarField:
    """Modified Laplacian |d2x| + |d2y| at stride q, zero on the q-frame.

    Interior pixels get |f[j, i+q] - 2 f[j, i] + f[j, i-q]| / (q h)^2 plus
    the same expression along rows; the frame of width q where the stencil
    would leave the grid is exactly zero.
    """
    _check_step(slide.values.shape, q)
    out = np.zeros(slide.values.shape)
    _modified_laplacian_into(out, slide.values, q, slide.h)
    return ScalarField(out, slide.h)


def local_focus_volume(stack: FocalStack, q: int) -> FocusVolume:
    """Local modified-Laplacian focus measure for every slide of a stack."""
    _check_step(stack.data.shape, q)
    data = np.zeros(stack.data.shape)
    # Slide by slide: a whole-stack expression would hold several
    # volume-sized temporaries at once.
    for f, out in zip(stack.data, data):
        _modified_laplacian_into(out, f, q, stack.h)
    return FocusVolume(data, q=q, z_min=stack.z_min, z_max=stack.z_max,
                       h=stack.h)


def nonlocalize_volume(volume: FocusVolume, kernel: Kernel) -> FocusVolume:
    """Apply a nonlocalization kernel to every layer of a local focus volume.

    The zero frame of width q is re-imposed after the kernel pass so the
    nonlocal volume has exactly the support of the local one (mirror
    padding would otherwise smear measure into the masked frame).
    """
    if volume.alpha is not None:
        raise ValueError("volume has already been nonlocalized")
    data = correlate_layers(kernel, volume.data)
    q = volume.q
    data[:, :q, :] = 0.0
    data[:, -q:, :] = 0.0
    data[:, :, :q] = 0.0
    data[:, :, -q:] = 0.0
    return FocusVolume(data, q=q, z_min=volume.z_min, z_max=volume.z_max,
                       h=volume.h, alpha=kernel.alpha, zeta=kernel.zeta)


def nonlocal_focus_volume(stack: FocalStack, q: int, alpha: float,
                          zeta: int) -> FocusVolume:
    """Nonlocal focus measure: local modified Laplacian, then kernel pass.

    Equivalent to ``nonlocalize_volume(local_focus_volume(stack, q),
    build_kernel(alpha, zeta))``; alpha = 0 reproduces the local volume bit
    for bit.
    """
    kernel = build_kernel(alpha, zeta)
    return nonlocalize_volume(local_focus_volume(stack, q), kernel)


def nyquist_hint(texture_wavelength: float, h: float) -> int:
    """Suggested stride q for a texture of the given dominant wavelength.

    Evaluates q = round(2 / (omega * h)) with omega = 1 / texture_wavelength
    (half-up rounding), clamped to at least 1.  Advisory only; no operation
    overrides a caller-supplied q with this value.
    """
    if texture_wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {texture_wavelength}")
    if h <= 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    omega = 1.0 / texture_wavelength
    return max(1, int(math.floor(2.0 / (omega * h) + 0.5)))
