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
``read_slide(k, out)`` and ``empty(n)``.  :func:`focus_layers` runs one
chain (:func:`_focus_layer_into`) over a source on the slide pool of
:mod:`kernel2d`: read, local measure into the pass's padded input, one
pass back into the buffer read, zero frame.  A stream carries a list of
cutoffs of one kernel quadrant, and the pass writes a layer for each: the
local measure is the 1 x 1 identity at cutoff 0 (a copy), ``recover`` a
kernel at its own zeta, and each stream of ``evaluate.comparison_table``
every cutoff of one order.  The checked ``(len(cutoffs), height, width)``
stacks come back in slide order from a ring, so a stream holds
O(CPUs * cutoffs * height * width) values, however many slides there are,
and ``depth.recover_depth`` pushes each layer into its peak search.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from . import kernel2d
from .grids import FocalStack, check_focus_values
from .kernel2d import Kernel, _pass_input, _pass_into, _scratch

if TYPE_CHECKING:
    from .io import StackHeader

__all__ = ["focus_layers"]


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


# The local measure's kernel quadrant: its pass, at cutoff 0, is a copy.
_IDENTITY = np.ones((1, 1))


def _own_cutoffs(kernel: Kernel | None) -> tuple[int]:
    """A one-layer stream's cutoffs: the kernel's zeta, or the identity's 0."""
    return (0 if kernel is None else kernel.zeta,)


def _focus_layer_into(out: np.ndarray, source: FocalStack | StackHeader,
                      k: int, q: int, space: dict, weights: np.ndarray,
                      cutoffs: Sequence[int]) -> None:
    """Read slide k of ``source`` and write its focus layers into ``out``,
    ``(len(cutoffs), height, width)``: the local measure at step q passed
    with the leading ``cutoff + 1`` block of the kernel quadrant ``weights``
    (see :func:`focus_layers`); the caller checks them.  The slide is read
    into the first layer, measured into the pass's padded input
    (``_pass_input``), and one pass writes every layer
    (``kernel2d._pass_into``): a worker holds its ring buffer and the
    padded input.  A measure that overflows is left as inf for the check
    to refuse, without a numpy warning.
    """
    source.read_slide(k, out[0])
    local = _pass_input(out.shape[1:], cutoffs[-1], space)
    with np.errstate(over="ignore"):
        _modified_laplacian_into(local, out[0], q, source.h, space)
        _pass_into(weights, out, space, cutoffs)
    _zero_frame(out, q)


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
    """Yield the focus layers of each slide of a source, in order, as one
    ``(len(cutoffs), height, width)`` stack a slide.

    The local measure at step q: each slide f gets |d2x| + |d2y| at stride
    q, interior pixels |f[j, i+q] - 2 f[j, i] + f[j, i-q]| / (q h)^2 plus
    the same expression along rows, and the frame of width q where the
    stencil would leave the grid is exactly zero.  Given a kernel, layer i
    is then the pass of ``build_kernel(kernel.alpha, cutoffs[i])`` over
    the local layer, all from one pass, with the zero frame re-imposed, so
    the nonlocal layers have the local ones' support (the mirror pad would
    otherwise smear measure into the frame).  ``cutoffs`` ascend strictly
    from 1 to at most ``kernel.zeta``, which is the default; without a
    kernel they are ``(0,)`` and each stack holds the local layer.  Each
    slide is read, measured, passed and checked (``check_focus_values``)
    by one worker of the slide pool (``kernel2d._slide_pool``), in buffers
    the worker allocates once, and the stacks come out of a ring of one
    buffer per worker plus one (see :func:`_focus_layer_into`).  The step,
    the slide shape, the spacing and the cutoffs are checked when this is
    called, before any slide is read; a failing slide raises when it is
    due, so the lowest-numbered one is named.  A yielded stack may be
    overwritten once the next is requested; it does not depend on the
    number of workers, bit for bit, as each step acts on its slide alone.
    """
    _check_step((source.height, source.width), q, source.h)
    weights = (_IDENTITY if kernel is None
               else kernel.weights[kernel.zeta:, kernel.zeta:])
    reach = len(weights) - 1
    cutoffs = tuple(cutoffs) if cutoffs is not None else _own_cutoffs(kernel)
    # A kernel's cutoffs run from 1; the identity's one cutoff is 0.
    if (not cutoffs or cutoffs[0] < min(reach, 1) or cutoffs[-1] > reach
            or any(a >= b for a, b in zip(cutoffs, cutoffs[1:]))):
        raise ValueError(f"cutoffs {cutoffs} must ascend strictly from 1 to "
                         f"at most the kernel's zeta, or be (0,) without one")
    n = kernel2d._ring_length(source.n_slides)
    ring = source.empty(n * len(cutoffs)).reshape(
        n, len(cutoffs), source.height, source.width)

    def work(k: int, out: np.ndarray, space: dict) -> None:
        _focus_layer_into(out, source, k, q, space, weights, cutoffs)
        check_focus_values(out)

    return kernel2d._slide_pool(source.n_slides, work, ring)
