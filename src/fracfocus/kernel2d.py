"""Discrete 2D nonlocalization kernel and its application to scalar fields.

The continuous nonlocalization operator of order ``alpha`` acts by the
radial weight (xi1^2 + xi2^2)^((alpha-2)/2).  On a pixel grid with
piecewise-constant values the operator collapses to a (2*zeta+1)^2 weight
matrix: the entry at offset (i, j) is the integral of the radial weight
over the unit cell [i-1/2, i+1/2] x [j-1/2, j+1/2] (in units of the grid
spacing), divided by the center-cell integral so the middle entry is
exactly 1.  The cutoff ``zeta`` limits which offsets participate; boundary
cells are integrated whole, which is what makes the top of the validity
range (alpha = 2, constant weight) the exact all-ones matrix.

alpha = 0 is the delta kernel (local limit), alpha = 2 the uniform
"pinhole" limit; in between the weights fall off monotonically with radius
and the operator acts as a low-pass filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .frac1d import QuadratureError, QuadratureSpec
from .grids import ScalarField

__all__ = [
    "Kernel",
    "apply_kernel",
    "build_kernel",
    "correlate_layers",
    "kernel_frequency_response",
]


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


def _center_cell_integral(alpha: float, quad: QuadratureSpec) -> float:
    """Integral of r^(alpha-2) over the unit square centered on the origin.

    In polar coordinates the integrand is r^(alpha-1), bounded for
    alpha > 0; by symmetry the square is eight copies of the wedge
    0 <= theta <= pi/4, r <= 1/(2 cos theta).
    """

    def wedge(theta: float) -> float:
        return (0.5 / math.cos(theta)) ** alpha / alpha

    result = scipy.integrate.quad(wedge, 0.0, math.pi / 4.0, epsabs=1e-13,
                                  epsrel=quad.rel_tol,
                                  limit=quad.max_subdivisions, full_output=1)
    if len(result) > 3:
        raise QuadratureError(f"center cell: {str(result[3]).strip()}")
    return 8.0 * result[0]


def _offset_cell_integral(i: int, j: int, alpha: float,
                          quad: QuadratureSpec) -> float:
    """Integral of r^(alpha-2) over the cell [i-1/2, i+1/2] x [j-1/2, j+1/2].

    Away from the origin the integrand is smooth (r >= 1/2 on every
    non-center cell).
    """
    exponent = 0.5 * (alpha - 2.0)

    def integrand(y: float, x: float) -> float:
        return (x * x + y * y) ** exponent

    value, abserr = scipy.integrate.dblquad(integrand, i - 0.5, i + 0.5,
                                            j - 0.5, j + 0.5, epsabs=1e-12,
                                            epsrel=quad.rel_tol)
    if not math.isfinite(value) or abserr > 1e-6:
        raise QuadratureError(f"cell ({i}, {j}): estimated error {abserr:g}")
    return value


def build_kernel(alpha: float, zeta: int,
                 quad: QuadratureSpec = QuadratureSpec()) -> Kernel:
    """Build the center-normalized nonlocalization kernel for order alpha.

    ``alpha`` must lie in [0, 2] (the 2D validity range) and ``zeta`` is the
    pixel-offset cutoff.  alpha = 0 yields the exact delta kernel and
    alpha = 2 the exact all-ones kernel; in between each entry is the cell
    integral of r^(alpha-2) divided by the center-cell integral.

    Only ``quad.rel_tol`` and ``quad.max_subdivisions`` are used here; the
    truncation is governed by zeta, not by ``quad.cutoff``.
    """
    if not 0.0 <= alpha <= 2.0:
        raise ValueError(f"2D fractional order must lie in [0, 2], got {alpha}")
    if zeta < 1:
        raise ValueError(f"cutoff zeta must be >= 1, got {zeta}")
    zeta = int(zeta)
    size = 2 * zeta + 1

    if alpha == 0.0:
        weights = np.zeros((size, size))
        weights[zeta, zeta] = 1.0
        return Kernel(alpha=0.0, zeta=zeta, weights=weights)
    if alpha == 2.0:
        return Kernel(alpha=2.0, zeta=zeta, weights=np.ones((size, size)))

    # One quadrant triangle suffices: the cell integrals inherit the full
    # eight-fold symmetry of the radial weight.
    quadrant = np.empty((zeta + 1, zeta + 1))
    quadrant[0, 0] = _center_cell_integral(alpha, quad)
    for j in range(zeta + 1):
        for i in range(j + 1):
            if i == 0 and j == 0:
                continue
            quadrant[i, j] = _offset_cell_integral(i, j, alpha, quad)
            quadrant[j, i] = quadrant[i, j]
    quadrant /= quadrant[0, 0]

    weights = np.empty((size, size))
    for i in range(-zeta, zeta + 1):
        for j in range(-zeta, zeta + 1):
            weights[zeta + i, zeta + j] = quadrant[abs(i), abs(j)]
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
    between focus layers survive the pass.
    """
    return ScalarField(correlate_layers(kernel, field.values), field.h)


def correlate_layers(kernel: Kernel, values: np.ndarray) -> np.ndarray:
    """Apply the kernel to every 2D layer (last two axes) of ``values``.

    One ``scipy.ndimage.correlate`` pass over the whole array, with the
    borders and tap order described in :func:`apply_kernel`; the delta
    kernel (alpha = 0) returns an exact copy.
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
    out = scipy.ndimage.correlate(values, weights, mode="reflect")
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
