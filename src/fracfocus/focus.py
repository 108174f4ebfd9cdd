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

:func:`focus_layers` runs the same code over a stack directory through the
slide pool of :mod:`kernel2d`: each worker reads, measures and passes one
slide at a time in buffers it allocates once, and the layers come back in
slide order, so that ``recover`` holds O(CPUs * height * width) values
instead of O(n_slides * height * width).  Each slide's layer is bitwise the
same as in the volume, because every step acts on each slide alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from . import kernel2d
from .grids import FocalStack, FocusVolume
from .kernel2d import Kernel, _correlate_slide, _scratch, correlate_layers

if TYPE_CHECKING:
    from .io import StackHeader

__all__ = [
    "focus_layers",
    "local_focus_volume",
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
                             h: float, space: dict) -> None:
    """Write the stride-q measure of slide ``f`` inside ``out``'s q-frame.

    The temporaries are the workspace ``space``'s, allocated once.
    """
    scale = 1.0 / (q * h) ** 2
    shape = (f.shape[0] - 2 * q, f.shape[1] - 2 * q)
    d2x, d2y, twice = (_scratch(space, name, shape)
                       for name in ("d2x", "d2y", "twice"))
    # d2x = f[q:-q, 2q:] - 2 f[q:-q, q:-q] + f[q:-q, :-2q], d2y likewise,
    # and out = (|d2x| + |d2y|) * scale, one rounding step at a time.
    np.multiply(f[q:-q, q:-q], 2.0, out=twice)
    np.subtract(f[q:-q, 2 * q:], twice, out=d2x)
    np.add(d2x, f[q:-q, :-2 * q], out=d2x)
    np.subtract(f[2 * q:, q:-q], twice, out=d2y)
    np.add(d2y, f[:-2 * q, q:-q], out=d2y)
    np.abs(d2x, out=d2x)
    np.abs(d2y, out=d2y)
    np.add(d2x, d2y, out=d2x)
    np.multiply(d2x, scale, out=out[q:-q, q:-q])


def local_focus_volume(stack: FocalStack, q: int) -> FocusVolume:
    """Local modified-Laplacian focus measure for every slide of a stack.

    Each slide f gets |d2x| + |d2y| at stride q: interior pixels get
    |f[j, i+q] - 2 f[j, i] + f[j, i-q]| / (q h)^2 plus the same expression
    along rows, and the frame of width q where the stencil would leave the
    grid is exactly zero.  Raises ValueError for q < 1 or slides with no
    pixel inside the frame.
    """
    _check_step(stack.data.shape, q)
    data = np.zeros(stack.data.shape)
    # Slide by slide: a whole-stack expression would hold several
    # volume-sized temporaries at once.
    space: dict = {}
    for f, layer in zip(stack.data, data):
        _modified_laplacian_into(layer, f, q, stack.h, space)
    return FocusVolume(data, q=q, z_min=stack.z_min, z_max=stack.z_max,
                       h=stack.h)


def _zero_frame(layers: np.ndarray, q: int) -> None:
    """Zero the frame of width q of every layer (last two axes)."""
    layers[..., :q, :] = 0.0
    layers[..., -q:, :] = 0.0
    layers[..., :, :q] = 0.0
    layers[..., :, -q:] = 0.0


def focus_layers(header: StackHeader, q: int,
                 kernel: Kernel | None = None) -> Iterator[np.ndarray]:
    """Yield the focus measure of each slide of a stack directory, in order.

    The local measure at step q, then, given a kernel, the nonlocal one.
    Each slide is read, measured, passed and checked like a FocusVolume
    (finite, non-negative) by one worker of the slide pool
    (``kernel2d._slide_pool``), in buffers the worker allocates once; the
    results come out of a ring of one buffer per worker plus one, so memory
    stays O(CPUs * height * width) however many slides there are.  The step
    and the slide shape are checked when this is called, before any slide
    is read; a failing slide raises when it is due, so the lowest-numbered
    one is named.  A yielded layer is bitwise that slide's layer of
    ``local_focus_volume`` or ``nonlocalize_volume`` on the whole stack; it
    may be overwritten once the next is requested.
    """
    _check_step((header.height, header.width), q)
    shape = (header.height, header.width)
    ring = header.empty(min(kernel2d._usable_cpus() + 1, header.n_slides))
    if kernel is None:
        # The measure leaves each buffer's q-frame as it finds it.
        ring[...] = 0.0
    else:
        weights = kernel.weights[kernel.zeta:, kernel.zeta:]

    def work(k: int, out: np.ndarray, space: dict) -> None:
        slide = _scratch(space, "slide", shape)
        header.read_slide(k, slide)
        if kernel is None:
            _modified_laplacian_into(out, slide, q, header.h, space)
        else:
            local = _scratch(space, "local", shape, zero=True)
            _modified_laplacian_into(local, slide, q, header.h, space)
            _correlate_slide(weights, local, out, space)
            _zero_frame(out, q)
        FocusVolume(out[np.newaxis], q=q, z_min=header.z_min,
                    z_max=header.z_max, h=header.h)

    return kernel2d._slide_pool(header.n_slides, work, ring)


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
    _zero_frame(data, q)
    return FocusVolume(data, q=q, z_min=volume.z_min, z_max=volume.z_max,
                       h=volume.h, alpha=kernel.alpha, zeta=kernel.zeta)


def nyquist_hint(texture_wavelength: float, h: float) -> int:
    """Suggested stride q for a texture of the given dominant wavelength.

    Evaluates q = round(2 / (omega * h)) with omega = 1 / texture_wavelength
    (half-up rounding), clamped to at least 1.  Advisory only; no operation
    overrides a caller-supplied q with this value.
    """
    if not (math.isfinite(texture_wavelength) and texture_wavelength > 0):
        raise ValueError(f"wavelength must be finite and positive, "
                         f"got {texture_wavelength}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"grid spacing must be finite and positive, got {h}")
    omega = 1.0 / texture_wavelength
    return max(1, int(math.floor(2.0 / (omega * h) + 0.5)))
