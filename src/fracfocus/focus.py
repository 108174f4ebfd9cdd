"""Focus measures: the local modified Laplacian and its nonlocal extension.

The local measure at step q is the sum of absolute second differences at
stride q in x and y, scaled by 1/(q h)^2, zero on a border frame of width
q, computed in row strips with strip-sized temporaries.  Each nonlocal
layer is the kernel pass over its local layer (``kernel2d._pass_into``, a
separable pair-sum pass in which equal windows give equal bits, so exact
ties between slides survive) followed by re-imposing the zero frame.
Local and nonlocal layers therefore share the same support, and order 0
reduces bit-exactly to the local measure.

Slides come from a slide source: a :class:`~fracfocus.io.StackHeader`,
which reads each slide from its stack directory, or a
:class:`~fracfocus.grids.FocalStack`, which copies it from memory.  Both
give ``n_slides``, ``height``, ``width``, ``z_min``, ``z_max``, ``h``,
``read_slide(k, out)`` and ``empty(n)``.  The slide pool of :mod:`kernel2d`
runs one chain (:func:`_focus_layer_into`) over a source: read, local
measure into the pass's padded input, pass (a copy, for the local measure)
back into the buffer read, zero frame.  Its layers go into a volume that
:class:`~fracfocus.grids.FocusVolume` then checks once
(:func:`focus_volume`) or, checked one by one, into a ring whose layers
come back in slide order (:func:`focus_layers`): ``recover`` holds
O(CPUs * height * width) values, not O(n_slides * height * width).  Given
several cutoffs of one kernel, the chain's one pass writes a layer for
each, and ``focus_layers`` yields them as one stack a slide: each stream
of ``evaluate.comparison_table`` is such a call, and holds
O(CPUs * cutoffs * height * width) values.  Each slide's layer is bitwise
the same on both paths, because every step acts on each slide alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from . import kernel2d
from .grids import FocalStack, FocusVolume, check_focus_values
from .kernel2d import Kernel, _pass_input, _pass_into, _scratch

if TYPE_CHECKING:
    from .io import StackHeader

__all__ = [
    "focus_layers",
    "focus_volume",
]


def _has_interior(shape: tuple[int, ...], q: int) -> bool:
    """Whether slides of ``shape`` keep a pixel inside the frame of width
    q."""
    return 2 * q < min(shape[-2:])


def _check_step(shape: tuple[int, ...], q: int, h: float) -> None:
    """Reject a step q < 1, slides with no pixel inside the q-frame, or a
    grid spacing h whose scale 1/(q h)^2 is not a finite positive number."""
    if q < 1:
        raise ValueError(f"step q must be >= 1, got {q}")
    if not _has_interior(shape, q):
        raise ValueError(
            f"slide of shape {tuple(shape[-2:])} too small for step q={q}"
        )
    try:
        scale = 1.0 / (q * h) ** 2
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ValueError(f"grid spacing h={h} at step q={q} gives no finite "
                         f"positive scale 1/(q h)^2")


def _modified_laplacian_into(out: np.ndarray, f: np.ndarray, q: int,
                             h: float, space: dict) -> None:
    """Write the stride-q measure of slide ``f`` into ``out``, zero frame
    included; ``out`` must not be ``f``.

    In row strips of ``kernel2d._strip_rows(width)`` rows, as the kernel
    pass: the two temporaries are strip-sized buffers of the workspace
    ``space``, allocated once and contiguous (accumulating in ``out`` made
    each call 20-45% slower), and ``d2y`` holds 2 f until the y
    differences need it.  Every sample gets the same ufuncs in the same
    order on any strip height, so the bits do not depend on it
    (``tests/laplacian_reference.py`` is the whole-slide version).
    """
    scale = 1.0 / (q * h) ** 2
    height, width = f.shape
    rows = min(kernel2d._strip_rows(width), height - 2 * q)
    d2x, d2y = (_scratch(space, name, (rows, width - 2 * q))
                for name in ("d2x", "d2y"))
    for top in range(q, height - q, rows):
        n = min(rows, height - q - top)
        dx, dy = d2x[:n], d2y[:n]
        strip = f[top:top + n]
        # dx = f[:, 2q:] - 2 f[:, q:-q] + f[:, :-2q] on the strip's rows,
        # dy likewise q rows down and up, and out = (|dx| + |dy|) * scale,
        # one rounding step at a time.
        np.multiply(strip[:, q:-q], 2.0, out=dy)
        np.subtract(strip[:, 2 * q:], dy, out=dx)
        np.add(dx, strip[:, :-2 * q], out=dx)
        np.subtract(f[top + q:top + q + n, q:-q], dy, out=dy)
        np.add(dy, f[top - q:top - q + n, q:-q], out=dy)
        np.abs(dx, out=dx)
        np.abs(dy, out=dy)
        np.add(dx, dy, out=dx)
        np.multiply(dx, scale, out=out[top:top + n, q:-q])
    _zero_frame(out, q)


# The kernel quadrant of the local measure: its pass is an exact copy.
_IDENTITY = np.ones((1, 1))


def _focus_layer_into(out: np.ndarray, source: FocalStack | StackHeader,
                      k: int, q: int, space: dict,
                      kernel: Kernel | None = None,
                      cutoffs: Sequence[int] | None = None) -> None:
    """Read slide k of ``source`` and write its focus measure into ``out``.

    The local measure at step q, then, given a kernel, the nonlocal one;
    the caller checks it (``check_focus_values``).  The slide is read into
    ``out``, measured into the pass's padded input (``_pass_input``), and
    the pass, without a kernel with ``_IDENTITY``, writes back into ``out``:
    a worker holds two slide-sized buffers.  Given an ascending list of
    ``cutoffs`` up to ``kernel.zeta``, ``out`` holds one layer per cutoff,
    the slide is read into the first, and one pass writes them all
    (``kernel2d._pass_into``).  A measure that overflows is left as inf for
    the check to refuse, without a numpy warning.
    """
    weights = (_IDENTITY if kernel is None
               else kernel.weights[kernel.zeta:, kernel.zeta:])
    slide = out if cutoffs is None else out[0]
    source.read_slide(k, slide)
    reach = weights.shape[0] - 1 if cutoffs is None else cutoffs[-1]
    local = _pass_input(slide.shape, reach, space)
    with np.errstate(over="ignore"):
        _modified_laplacian_into(local, slide, q, source.h, space)
        _pass_into(weights, out, space, cutoffs)
    _zero_frame(out, q)


def focus_volume(source: FocalStack | StackHeader, q: int,
                 kernel: Kernel | None = None) -> FocusVolume:
    """Focus measure of every slide of a source, as one volume.

    The local measure at step q: each slide f gets |d2x| + |d2y| at stride
    q, interior pixels |f[j, i+q] - 2 f[j, i] + f[j, i-q]| / (q h)^2 plus
    the same expression along rows, and the frame of width q where the
    stencil would leave the grid is exactly zero.  Given a kernel, each
    layer is then the kernel pass over its local layer with the zero frame
    re-imposed, so the nonlocal volume has the local one's support (the
    mirror pad would otherwise smear measure into the frame).  ``source``
    is a FocalStack or a StackHeader; each slide is one item of the slide
    pool, read, measured and passed straight into its layer of the volume
    (:func:`_focus_layer_into`), which FocusVolume checks once it is full.
    Raises ValueError for q < 1, slides with no pixel inside the frame or a
    spacing with no finite 1/(q h)^2, before any slide is read; a slide
    that fails to read raises when it is due, so the lowest-numbered one is
    named.
    """
    _check_step((source.height, source.width), q, source.h)
    data = source.empty(source.n_slides)

    def work(k: int, out: np.ndarray, space: dict) -> None:
        _focus_layer_into(out, source, k, q, space, kernel)

    for _ in kernel2d._slide_pool(source.n_slides, work, data):
        pass
    return FocusVolume(data, q=q, z_min=source.z_min, z_max=source.z_max,
                       h=source.h,
                       alpha=None if kernel is None else kernel.alpha,
                       zeta=None if kernel is None else kernel.zeta)


def _zero_frame(layers: np.ndarray, q: int) -> None:
    """Zero the frame of width q of every layer (last two axes)."""
    layers[..., :q, :] = 0.0
    layers[..., -q:, :] = 0.0
    layers[..., :, :q] = 0.0
    layers[..., :, -q:] = 0.0


def focus_layers(source: FocalStack | StackHeader, q: int,
                 kernel: Kernel | None = None,
                 cutoffs: Sequence[int] | None = None,
                 ) -> Iterator[np.ndarray]:
    """Yield the focus measure of each slide of a source, in order.

    The local measure at step q, then, given a kernel, the nonlocal one.
    Each slide is read, measured, passed and checked like a FocusVolume
    (finite, non-negative) by one worker of the slide pool
    (``kernel2d._slide_pool``), in buffers the worker allocates once; the
    results come out of a ring of one buffer per worker plus one, so memory
    stays O(CPUs * height * width) however many slides there are; a
    worker's ring buffer first takes the slide it reads (see
    :func:`_focus_layer_into`).  Given a strictly ascending list of
    ``cutoffs`` from 1 to at most ``kernel.zeta``, each yield is a
    ``(len(cutoffs), height, width)`` stack whose layer i is the slide's
    layer with ``build_kernel(kernel.alpha, cutoffs[i])``, all from one
    pass, and the ring holds O(CPUs * cutoffs * height * width) values.
    The step, the slide shape, the spacing and the cutoffs are checked when
    this is called, before any slide is read; a failing slide raises when
    it is due, so the lowest-numbered one is named.  A yielded layer is
    bitwise that slide's layer of ``focus_volume(source, q, kernel)``; it
    may be overwritten once the next is requested.
    """
    _check_step((source.height, source.width), q, source.h)
    n = kernel2d._ring_length(source.n_slides)
    if cutoffs is None:
        ring = source.empty(n)
    else:
        cutoffs = tuple(cutoffs)
        if (kernel is None or not cutoffs or cutoffs[0] < 1
                or cutoffs[-1] > kernel.zeta
                or any(a >= b for a, b in zip(cutoffs, cutoffs[1:]))):
            raise ValueError(f"cutoffs {cutoffs} must ascend strictly from 1 "
                             f"to at most the kernel's zeta")
        ring = source.empty(n * len(cutoffs)).reshape(
            n, len(cutoffs), source.height, source.width)

    def work(k: int, out: np.ndarray, space: dict) -> None:
        _focus_layer_into(out, source, k, q, space, kernel, cutoffs)
        check_focus_values(out)

    return kernel2d._slide_pool(source.n_slides, work, ring)
