"""Discrete 2D nonlocalization kernel and its application to scalar fields.

The continuous nonlocalization operator of order ``alpha`` acts by the
radial weight (xi1^2 + xi2^2)^((alpha-2)/2).  On a pixel grid with
piecewise-constant values the operator collapses to a (2*zeta+1)^2 weight
matrix: the entry at offset (i, j) is the integral of the radial weight
over the unit cell [i-1/2, i+1/2] x [j-1/2, j+1/2] (in units of the grid
spacing), divided by the center-cell integral so the middle entry is
exactly 1.  The cutoff ``zeta`` limits which offsets participate; boundary
cells are integrated whole, which is what makes the top of the validity
range (alpha = 2, constant weight) the exact all-ones matrix.  Every cell
integral comes from one fixed 24-point Gauss-Legendre rule
(``numpy.polynomial.legendre.leggauss``): a tensor rule on the offset
cells and a 1D rule on the polar wedge of the center cell.

alpha = 0 is the delta kernel (local limit), alpha = 2 the uniform
"pinhole" limit; in between the weights fall off monotonically with radius
and the operator acts as a low-pass filter.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np
import scipy

from .grids import ScalarField

__all__ = [
    "Kernel",
    "apply_kernel",
    "build_kernel",
    "correlate_layers",
    "kernel_frequency_response",
]

# Nodes and weights of the 24-point Gauss-Legendre rule on [-1, 1].  The
# center wedge and every offset cell are analytic well beyond their
# intervals, so the rule integrates them to rounding.  Built on first use, so
# that importing this module does not load numpy.polynomial.
@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(24)


@dataclass(frozen=True)
class Kernel:
    """Center-normalized (2*zeta+1) x (2*zeta+1) nonlocalization weights.

    ``weights[zeta + i, zeta + j]`` is the weight of pixel offset (i, j);
    use :meth:`at` for offset-based indexing.  Entries are non-negative,
    bounded by 1, eight-fold symmetric, and the center entry is exactly 1.
    """

    alpha: float
    zeta: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        if self.zeta < 1:
            raise ValueError(f"cutoff zeta must be >= 1, got {self.zeta}")
        size = 2 * self.zeta + 1
        if weights.shape != (size, size):
            raise ValueError(
                f"weights must have shape ({size}, {size}), got {weights.shape}"
            )
        if weights[self.zeta, self.zeta] != 1.0:
            raise ValueError("center weight must be exactly 1")
        if np.any(weights < 0.0) or np.any(weights > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if (not np.array_equal(weights, weights.T)
                or not np.array_equal(weights, weights[::-1, :])
                or not np.array_equal(weights, weights[:, ::-1])):
            raise ValueError("weights must be eight-fold symmetric")

    @property
    def size(self) -> int:
        return 2 * self.zeta + 1

    def at(self, i: int, j: int) -> float:
        """Weight of pixel offset (i, j), each in [-zeta, zeta]."""
        return float(self.weights[self.zeta + i, self.zeta + j])


def build_kernel(alpha: float, zeta: int) -> Kernel:
    """Build the center-normalized nonlocalization kernel for order alpha.

    ``alpha`` must lie in [0, 2] (the 2D validity range) and ``zeta``, the
    pixel-offset cutoff, must be a positive integer.  alpha = 0 yields the
    exact delta kernel and alpha = 2 the exact all-ones kernel; in between
    each entry is the cell integral of r^(alpha-2) divided by the
    center-cell integral.
    """
    if not 0.0 <= alpha <= 2.0:
        raise ValueError(f"2D fractional order must lie in [0, 2], got {alpha}")
    if not (zeta >= 1 and float(zeta).is_integer()):
        raise ValueError(f"cutoff zeta must be an integer >= 1, got {zeta}")
    zeta = int(zeta)
    size = 2 * zeta + 1

    if alpha == 0.0:
        weights = np.zeros((size, size))
        weights[zeta, zeta] = 1.0
        return Kernel(alpha=0.0, zeta=zeta, weights=weights)
    if alpha == 2.0:
        return Kernel(alpha=2.0, zeta=zeta, weights=np.ones((size, size)))

    # Center cell: in polar coordinates the integrand is r^(alpha-1), and
    # the square is eight copies of the wedge 0 <= theta <= pi/4,
    # r <= 1/(2 cos theta), so the cell integral is
    # 8 * int_0^(pi/4) (0.5/cos theta)^alpha / alpha dtheta.  Its 1/alpha is
    # carried as a factor alpha on the offset cells instead, so that no
    # alpha in (0, 2) overflows.
    nodes, gauss_weights = _gauss_rule()
    theta = np.pi / 8.0 * (1.0 + nodes)
    center = np.pi * (gauss_weights @ (0.5 / np.cos(theta)) ** alpha)

    # Offset cells: r >= 1/2 on each, so the integrand is smooth there.
    # One value per cell (i, j) with i <= j, computed from (min, max) of its
    # indices, gives the eight-fold symmetry exactly.  The rule's value for
    # the singular center cell is computed too and then replaced by 1.
    lo, hi = np.triu_indices(zeta + 1)
    x = lo[:, np.newaxis, np.newaxis] + 0.5 * nodes[:, np.newaxis]
    y = hi[:, np.newaxis, np.newaxis] + 0.5 * nodes
    cells = ((x * x + y * y) ** (0.5 * alpha - 1.0) @ gauss_weights
             @ gauss_weights)
    quadrant = np.empty((zeta + 1, zeta + 1))
    quadrant[lo, hi] = quadrant[hi, lo] = 0.25 * alpha * cells / center
    quadrant[0, 0] = 1.0

    offsets = np.abs(np.arange(-zeta, zeta + 1))
    weights = quadrant[offsets[:, np.newaxis], offsets]
    return Kernel(alpha=alpha, zeta=zeta, weights=weights)


def apply_kernel(kernel: Kernel, field: ScalarField) -> ScalarField:
    """Correlate a scalar field with the kernel, mirror-padding the borders.

    Output pixel (x, y) is sum over offsets (i, j) of
    ``weights[i, j] * field[x+i, y+j]``; out-of-bounds samples are resolved
    by mirror reflection with the edge pixel included (``d c b a | a b c d |
    d c b a``), which preserves constant fields.  The kernel is deliberately
    not sum-normalized: depth recovery is invariant to the global scale of
    the focus measure.

    Every output sample sums its own window in the same row-major tap
    order, so equal windows give bitwise-equal outputs and exact ties
    between focus layers survive the pass.  One field is one
    ``scipy.ndimage.correlate`` call; a volume passed to
    :func:`correlate_layers` runs in blocks of slides on all usable CPUs,
    with bits that never depend on the CPU count.
    """
    return ScalarField(correlate_layers(kernel, field.values), field.h)


def _usable_cpus() -> int:
    """Number of CPUs this process may run on (its affinity mask if any)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def correlate_layers(kernel: Kernel, values: np.ndarray) -> np.ndarray:
    """Apply the kernel to every 2D layer (last two axes) of ``values``.

    The borders and tap order are those described in :func:`apply_kernel`;
    the delta kernel (alpha = 0) returns an exact copy.  The leading axis
    (the slides) is cut into contiguous blocks, one per usable CPU and never
    more than there are slides, and each block is one
    ``scipy.ndimage.correlate`` call, run on the calling thread or on a
    thread pool; ndimage releases the GIL while it computes.  A 2D field or
    a single slide is one direct call.  The kernel spans one slide, so each
    output sample is the same window summed in the same tap order whatever
    the blocks: the bits never depend on the CPU count, and there is no
    setting for it.
    """
    # ndimage's reflect mode stops matching np.pad(mode="symmetric") once
    # the reach zeta is at least four times an axis length of 2 or more;
    # such short axes are mirror-padded here instead.
    zeta = kernel.zeta
    pad = [(0, 0)] * (values.ndim - 2)
    pad += [(zeta, zeta) if zeta >= 4 * n else (0, 0)
            for n in values.shape[-2:]]
    weights = kernel.weights[(np.newaxis,) * (values.ndim - 2)]
    if any(before for before, _ in pad):
        values = np.pad(values, pad, mode="symmetric")
    layers = values.shape[0] if values.ndim > 2 else 1
    workers = min(_usable_cpus(), layers)
    if workers == 1:
        out = scipy.ndimage.correlate(values, weights, mode="reflect")
    else:
        # Imported here: concurrent.futures pulls in logging, which would
        # otherwise slow every CLI start.
        from concurrent.futures import ThreadPoolExecutor

        out = np.empty(values.shape, dtype=values.dtype)
        bounds = [layers * k // workers for k in range(workers + 1)]
        blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

        def correlate_block(block: slice) -> None:
            scipy.ndimage.correlate(values[block], weights,
                                    output=out[block], mode="reflect")

        # The calling thread takes the first block itself, so the pool
        # starts one thread fewer (each costs some resident memory).
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            done = pool.map(correlate_block, blocks[1:])
            correlate_block(blocks[0])
            # Reading every result re-raises a worker's exception here.
            list(done)
    return out[tuple(slice(before, n - after)
                     for (before, after), n in zip(pad, out.shape))]


def kernel_frequency_response(kernel: Kernel, k1: float, k2: float) -> float:
    """Response of the discrete operator to a separable cosine mode.

        R(k1, k2) = sum_{i,j} weights[i, j] * cos(k1 * i) * cos(k2 * j)

    with k1, k2 in radians per grid spacing.  R(0, 0) is the weight sum; for
    alpha > 0 the response decays with |k| (low-pass behaviour), and the
    delta kernel responds with 1 everywhere.
    """
    offsets = np.arange(-kernel.zeta, kernel.zeta + 1)
    ci = np.cos(k1 * offsets)
    cj = np.cos(k2 * offsets)
    return float(ci @ kernel.weights @ cj)
