"""Discrete 2D nonlocalization kernel and its pass over the layers of a volume.

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

Slides are independent until the peak search, so they go through one
ordered slide pool (``_slide_pool``): one worker per usable CPU, each with
a workspace of scratch buffers it allocates once, results yielded in slide
order from a ring of output buffers.  The kernel pass here, ``recover``'s
read-measure-pass chain (``focus.focus_layers``) and the renderer
(``synth.render_slides``) all run on it.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kernel",
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


def _usable_cpus() -> int:
    """Number of CPUs this process may run on (its affinity mask if any)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _scratch(space: dict, name: str, shape: tuple[int, ...],
             zero: bool = False) -> np.ndarray:
    """The workspace buffer ``name`` of ``shape``, allocated on first use.

    ``zero`` zeroes it when it is allocated, not on later calls.
    """
    buffer = space.get(name)
    if buffer is None or buffer.shape != shape:
        buffer = space[name] = np.zeros(shape) if zero else np.empty(shape)
    return buffer


def _slide_pool(n: int, work: Callable[[int, np.ndarray, dict], None],
                ring: np.ndarray) -> Iterator[np.ndarray]:
    """Run ``work(k, out, space)`` for k = 0 .. n-1 and yield each ``out``
    in order of k.

    ``out`` is ``ring[k % len(ring)]``: a ring of at least n buffers keeps
    every result; in a shorter one, a yielded buffer may be overwritten once
    the next is requested.  ``space`` is a dict the worker keeps for the
    whole call, for scratch buffers that it allocates once (see
    :func:`_scratch`).  There is one worker per usable CPU, never
    more than there are slides or than the ring leaves free: the calling
    thread and a thread pool for the rest (numpy releases the GIL in each
    ufunc).  Rather than wait for a slide, the calling thread takes the
    first slide that no pool thread has started.  A worker's exception is
    raised when its slide is due, so the lowest-numbered failing slide is
    the one reported, and no thread outlives the generator.  ``work`` must
    give each slide the same bits whichever worker runs it; then so does
    the pool.
    """
    size = len(ring)
    workers = min(_usable_cpus(), n if size >= n else size - 1)
    space: dict = {}
    if workers <= 1:
        for k in range(n):
            out = ring[k % size]
            work(k, out, space)
            yield out
        return

    # Imported here: concurrent.futures pulls in logging, which would
    # otherwise slow every CLI start.
    from concurrent.futures import Future, ThreadPoolExecutor

    local = threading.local()

    def run(k: int) -> None:
        if not hasattr(local, "space"):
            local.space = {}
        work(k, ring[k % size], local.space)

    def run_here(k: int) -> Future:
        done: Future = Future()
        try:
            work(k, ring[k % size], space)
        except Exception as exc:
            done.set_exception(exc)
        else:
            done.set_result(None)
        return done

    pool = ThreadPoolExecutor(max_workers=workers - 1)
    try:
        pending: deque = deque()
        for k in range(n):
            # Slides k .. k + workers are in flight: slide k + workers takes
            # the buffer of slide k - 1, released by asking for slide k.
            for j in range(k + len(pending), min(k + workers + 1, n)):
                pending.append(pool.submit(run, j))
            # While slide k is not done, the calling thread takes the
            # first slide that no pool thread has started.
            while not pending[0].done():
                i = next((i for i, future in enumerate(pending)
                          if future.cancel()), None)
                if i is None:
                    break
                pending[i] = run_here(k + i)
            pending.popleft().result()
            yield ring[k % size]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _mirror_pad(slide: np.ndarray, zeta: int, space: dict) -> np.ndarray:
    """``np.pad(slide, zeta, mode="symmetric")``, in the workspace ``space``.

    Filled in place with mirror slices, columns first and then whole rows
    (the corners), where one reflection reaches: zeta up to each side of
    the slide.  A larger zeta, whose reflection repeats, gets ``np.pad``.
    """
    height, width = slide.shape
    if zeta > min(height, width):
        return np.pad(slide, zeta, mode="symmetric")
    padded = _scratch(space, "padded", (height + 2 * zeta, width + 2 * zeta))
    padded[zeta:zeta + height, zeta:zeta + width] = slide
    padded[zeta:zeta + height, :zeta] = slide[:, :zeta][:, ::-1]
    padded[zeta:zeta + height, zeta + width:] = slide[:, width - zeta:][:, ::-1]
    padded[:zeta] = padded[zeta:2 * zeta][::-1]
    padded[zeta + height:] = padded[height:zeta + height][::-1]
    return padded


# Samples per row strip of the pair-sum pass: each of the strip's working
# arrays then fits in a core's L2 cache (64 rows at width 512).
_STRIP_SAMPLES = 2 ** 15


def _correlate_slide(weights: np.ndarray, slide: np.ndarray,
                     out: np.ndarray, space: dict) -> None:
    """Write the pair-sum pass of one 2D slide into ``out``.

    ``weights`` is the kernel quadrant ``w[a, b]``, a, b = 0..zeta.  In row
    strips, the column pair sums ``C_b = P[:, c+b] + P[:, c-b]`` of the
    mirror-padded slide ``P`` (``C_0 = P[:, c]``) give the row sums
    ``D_a = sum_b w[a, b] C_b``, and each output row ``r`` is
    ``D_0[r] + sum_a (D_a[r+a] + D_a[r-a])``.  Zero weights are skipped, so
    the delta kernel leaves a copy.  ``P`` (:func:`_mirror_pad`) and the
    strip buffers are the workspace ``space``'s.
    """
    zeta = weights.shape[0] - 1
    height, width = slide.shape
    padded = _mirror_pad(slide, zeta, space)
    rows = max(1, _STRIP_SAMPLES // width)
    span = min(rows, height) + 2 * zeta
    taps = [(a, np.flatnonzero(row)) for a, row in enumerate(weights)
            if row.any()]
    pairs = _scratch(space, "pairs", (zeta, span, width))
    row_sum = _scratch(space, "row_sum", (span, width))
    term = _scratch(space, "term", (span, width))
    for top in range(0, height, rows):
        n = min(rows, height - top)
        strip = padded[top:top + n + 2 * zeta]
        columns = [strip[:, zeta:zeta + width]]
        for b in range(1, zeta + 1):
            columns.append(np.add(strip[:, zeta + b:zeta + b + width],
                                  strip[:, zeta - b:zeta - b + width],
                                  out=pairs[b - 1, :n + 2 * zeta]))
        for a, (first, *rest) in taps:
            # D_a is needed on rows zeta-a .. zeta+a+n-1 of the strip only;
            # D_0 is built in the output itself.
            lo, hi = zeta - a, zeta + a + n
            acc = out[top:top + n] if a == 0 else row_sum[:hi - lo]
            tmp = term[:hi - lo]
            np.multiply(columns[first][lo:hi], weights[a, first], out=acc)
            for b in rest:
                np.multiply(columns[b][lo:hi], weights[a, b], out=tmp)
                np.add(acc, tmp, out=acc)
            if a:
                np.add(acc[:n], acc[2 * a:], out=tmp[:n])
                np.add(out[top:top + n], tmp[:n], out=out[top:top + n])


def correlate_layers(kernel: Kernel, values: np.ndarray) -> np.ndarray:
    """Correlate every 2D layer (last two axes) of ``values`` with the kernel.

    Output sample (y, x) of a layer is the sum over offsets (i, j) of
    ``weights[zeta + i, zeta + j] * layer[y + i, x + j]``.  Samples beyond
    the border are resolved by mirror reflection with the edge sample
    included (``d c b a | a b c d | d c b a``, repeated as often as the
    reach needs), which preserves constant layers.  The kernel is
    deliberately not sum-normalized: depth recovery is invariant to the
    global scale of the focus measure.

    The kernel's eight-fold symmetry makes the pass separable into pair
    sums: (zeta+1)^2 multiply-adds per sample instead of (2 zeta + 1)^2,
    built from numpy element-wise ufuncs on row strips of each slide.  Every
    sample goes through the same sequence of operations on its own window
    whatever its strip, so equal windows give bitwise-equal outputs and
    exact ties between focus layers survive the pass; the delta kernel
    (alpha = 0) returns an exact copy.  The layers go through the slide pool
    (:func:`_slide_pool`), one worker per usable CPU, each result straight
    into its place in the output.  The bits never depend on the CPU count,
    and there is no setting for it.
    """
    zeta = kernel.zeta
    weights = kernel.weights[zeta:, zeta:]
    slides = np.asarray(values, dtype=float).reshape((-1,) + values.shape[-2:])
    out = np.empty(slides.shape)

    def work(k: int, result: np.ndarray, space: dict) -> None:
        _correlate_slide(weights, slides[k], result, space)

    for _ in _slide_pool(len(slides), work, out):
        pass
    return out.reshape(values.shape)


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
