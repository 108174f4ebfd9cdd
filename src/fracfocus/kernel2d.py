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
cells and a 1D rule on the polar wedge of the center cell.  Each offset
cell is reduced on its own, by two ``np.einsum`` reductions whose rounding
does not depend on how many cells there are, so a kernel's weights do not
depend on its cutoff: the quadrant of a smaller zeta is the top-left block
of a larger one's, bit for bit.

alpha = 0 is the delta kernel (local limit), which the rule gives exactly;
alpha = 2 the uniform "pinhole" limit; in between the weights fall off
monotonically with radius and the operator acts as a low-pass filter.

Slides are independent until the peak search, so they go through one
ordered slide pool (``_slide_pool``): one worker per usable CPU (no thread
starts on one CPU), each with a workspace of scratch buffers it allocates
once, results yielded in slide order from a ring of output buffers.  An
item is queued as soon as its ring buffer is free, so the ring's length
alone bounds the look-ahead.  The whole-volume pass
(``focus.nonlocalize_volume``), ``recover``'s read-measure-pass chain
(``focus.focus_layers``, on which ``evaluate.comparison_table`` runs
each of its streams) and the renderer (``synth.render_slides``, and its
texture, whose items are row strips) all run on it.

The pass itself (``_correlate_slide``) is a plain loop over row strips.
Each kernel row's weighted sum of column pair sums is one ``np.einsum``
call, so a strip takes 4 zeta + 2 numpy calls, which release the GIL while
they compute, and the workers seldom wait for one another; the identity
(the local measure's, or alpha = 0) takes none, as its pass is a copy.
Since the weights nest, one pass can serve an ascending list of cutoffs of
one order: the mirror pad and the pair sums are built once at the largest
reach, and each row sum once, as a prefix over the taps that each
cutoff's layer takes when the prefix reaches it.  A workspace keeps the
scratch buffers of one pass; another kernel or shape replaces them.  The
pass's input is the interior of its padded buffer (``_pass_input``): a
caller that computes the slide writes it there, and the pass fills only
the mirror margins before it runs (``_pass_into``).
"""

from __future__ import annotations

import functools
import os
import threading
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Kernel",
    "build_kernel",
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


def _check_cutoff(zeta: int) -> int:
    """The cutoff ``zeta`` as an int; ValueError unless it is an integer
    >= 1."""
    if not (zeta >= 1 and float(zeta).is_integer()):
        raise ValueError(f"cutoff zeta must be an integer >= 1, got {zeta}")
    return int(zeta)


def build_kernel(alpha: float, zeta: int) -> Kernel:
    """Build the center-normalized nonlocalization kernel for order alpha.

    ``alpha`` must lie in [0, 2] (the 2D validity range) and ``zeta``, the
    pixel-offset cutoff, must be a positive integer.  alpha = 2 yields the
    exact all-ones kernel; below it each entry is the cell integral of
    r^(alpha-2) divided by the center-cell integral, which gives alpha = 0
    the exact delta kernel, +0.0 off the center.
    """
    if not 0.0 <= alpha <= 2.0:
        raise ValueError(f"2D fractional order must lie in [0, 2], got {alpha}")
    alpha, zeta = float(alpha), _check_cutoff(zeta)
    if alpha == 2.0:
        size = 2 * zeta + 1
        return Kernel(alpha=2.0, zeta=zeta, weights=np.ones((size, size)))

    # Center cell: in polar coordinates the integrand is r^(alpha-1), and
    # the square is eight copies of the wedge 0 <= theta <= pi/4,
    # r <= 1/(2 cos theta), so the cell integral is
    # 8 * int_0^(pi/4) (0.5/cos theta)^alpha / alpha dtheta.  Its 1/alpha is
    # carried as a factor alpha on the offset cells instead, so that no
    # alpha in [0, 2) overflows, and alpha = 0 gives them +0.0.
    nodes, gauss_weights = _gauss_rule()
    theta = np.pi / 8.0 * (1.0 + nodes)
    center = np.pi * (gauss_weights @ (0.5 / np.cos(theta)) ** alpha)

    # Offset cells: r >= 1/2 on each, so the integrand is smooth there.
    # One value per cell (i, j) with i <= j, computed from (min, max) of its
    # indices, gives the eight-fold symmetry exactly.  The rule's value for
    # the singular center cell is computed too and then replaced by 1.
    # Each cell is reduced on its own by einsum's sum-of-products loop; a
    # batched @ rounds by how many cells the batch holds, which made a
    # weight's bits depend on zeta.
    lo, hi = np.triu_indices(zeta + 1)
    x = lo[:, np.newaxis, np.newaxis] + 0.5 * nodes[:, np.newaxis]
    y = hi[:, np.newaxis, np.newaxis] + 0.5 * nodes
    integrand = (x * x + y * y) ** (0.5 * alpha - 1.0)
    cells = np.einsum("ki,i->k", np.einsum("kij,j->ki", integrand,
                                           gauss_weights), gauss_weights)
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


def _ring_length(n: int) -> int:
    """Buffers in a ring for :func:`_slide_pool` over n slides: one per
    usable CPU plus one, and no more than there are slides."""
    return min(_usable_cpus() + 1, n)


def _scratch(space: dict, name: str, shape: tuple[int, ...],
             dtype: type = float) -> np.ndarray:
    """The workspace buffer ``name`` of ``shape`` and ``dtype``, allocated
    on first use."""
    buffer = space.get(name)
    if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
        buffer = space[name] = np.empty(shape, dtype)
    return buffer


def _slide_pool(n: int, work: Callable[[int, object, dict], None],
                ring: Sequence) -> Iterator:
    """Run ``work(k, out, space)`` for items k = 0 .. n-1 and yield each
    ``out`` in order of k.

    An item is a slide, or a row strip of the renderer's texture.  ``out``
    is ``ring[k % len(ring)]``, a buffer ``work`` fills in place: a ring of
    at least n buffers keeps every result; in a shorter one, a yielded
    buffer may be overwritten once the next is requested.  ``space`` is a
    dict the worker keeps for the whole call, for scratch buffers that it
    allocates once (see :func:`_scratch`).  An item is queued as soon as
    its buffer is free, so a ring of at least n buffers queues every item
    at once.  There is one worker per usable CPU, never more than there are
    items or than the ring leaves free: the calling thread and a thread
    pool for the rest (numpy releases the GIL in each ufunc), or for one
    worker no pool, whose queued items are Futures no thread starts.
    Rather than wait for an item, the calling thread takes the first queued
    item that no pool thread has started.  A worker's exception is raised
    when its item is due, so the lowest-numbered failing item is the one
    reported, and no thread outlives the generator.  ``work`` must give
    each item the same bits whichever worker runs it; then so does the
    pool.  The calling thread works, rather than only consume, to save
    memory: a pool that ran every item gave the same outputs and times, but
    ``ru_maxrss`` rose 2.2-5.4 MB on ``synth`` and ``eval --table``,
    probably (not verified) from glibc's per-thread malloc arenas.
    """
    size = len(ring)
    workers = min(_usable_cpus(), n if size >= n else size - 1)
    space: dict = {}
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

    pool = ThreadPoolExecutor(max_workers=workers - 1) if workers > 1 else None
    try:
        pending: deque = deque()
        for k in range(n):
            # An item is queued as soon as its buffer is free: asking for
            # item k releases that of item k - 1, item k + size - 1's.
            for j in range(k + len(pending), min(k + size, n)):
                pending.append(pool.submit(run, j) if pool else Future())
            # While item k is not done, the calling thread takes the
            # first item that no pool thread has started.
            while not pending[0].done():
                i = next((i for i, future in enumerate(pending)
                          if future.cancel()), None)
                if i is None:
                    break
                pending[i] = run_here(k + i)
            pending.popleft().result()
            yield ring[k % size]
    finally:
        if pool:
            pool.shutdown(wait=True, cancel_futures=True)


def _mirror_margins(padded: np.ndarray, zeta: int) -> None:
    """Fill the margins of width zeta of ``padded`` by mirroring its
    interior, as ``np.pad(interior, zeta, mode="symmetric")`` would.

    In place, columns of the interior rows first, then whole rows (the
    corners).  Each side is mirrored outward from its filled edge, lo or
    hi, at most one interior length a step: every step starts on a mirror
    point, so a longer reach repeats the reflection.
    """
    for view in (padded[zeta:padded.shape[0] - zeta], padded.T):
        length = view.shape[1] - 2 * zeta
        for lo in range(zeta, 0, -length):
            n, hi = min(length, lo), view.shape[1] - lo
            view[:, lo - n:lo] = view[:, lo:lo + n][:, ::-1]
            view[:, hi:hi + n] = view[:, hi - n:hi][:, ::-1]


# Samples per row strip of the pair-sum pass and of the renderer: each of a
# strip's working arrays then fits in a core's L2 cache (64 rows at 512).
_STRIP_SAMPLES = 2 ** 15


def _strip_rows(width: int) -> int:
    """Rows in a strip of ``width`` samples: ``_STRIP_SAMPLES``, or one."""
    return max(1, _STRIP_SAMPLES // width)


# The row sum D_a = sum_b w[a, b] C_b of one kernel row in one call, over a
# stack of column pair sums flattened to (taps, samples).  Without
# ``optimize`` this is numpy's own sum-of-products loop, not BLAS: it starts
# from zero and adds each rounded product in order of b, the bits of a
# multiply and then an add per tap.
_weighted_rows = functools.partial(np.einsum, "bn,b->n")


def _pass_input(shape: tuple[int, int], zeta: int,
                space: dict) -> np.ndarray:
    """The interior of the padded slide ``P`` of a pass of reach ``zeta``
    over a slide of ``shape``: write the slide there, then run the pass with
    :func:`_pass_into`.  ``P`` is the workspace buffer ``padded``."""
    height, width = shape
    padded = _scratch(space, "padded", (height + 2 * zeta, width + 2 * zeta))
    return padded[zeta:zeta + height, zeta:zeta + width]


def _pass_into(weights: np.ndarray, out: np.ndarray, space: dict,
               cutoffs: Sequence[int] | None = None) -> None:
    """Run the pass with the kernel quadrant ``weights`` whose input
    :func:`_pass_input` returned, into ``out``.

    Without ``cutoffs``, ``out`` is one layer and the reach that of
    ``weights``.  With an ascending list of ``cutoffs``, ``out`` holds one
    layer per cutoff, ``(len(cutoffs), height, width)``, and layer i is the
    pass with the leading ``cutoffs[i] + 1`` square block of ``weights``:
    the pass of ``build_kernel(alpha, cutoffs[i])``, whose quadrant is that
    block bit for bit.  ``P`` must then have the reach of the last cutoff.

    Mirrors the margins of ``P`` from its interior (:func:`_mirror_margins`),
    then runs the calls of :func:`_correlate_slide` strip by strip, each
    strip's row sums in the workspace buffers ``pairs``, ``row_sum`` and
    ``term`` and its results straight in their rows of ``out``.  The pair
    sums serve every cutoff, and so does each row sum ``D_a``, built once
    as a prefix over the taps b: one ``np.einsum`` up to the first cutoff
    that reaches row a, then a multiply and an add per further tap, the
    rounded steps einsum takes, and each cutoff's layer takes ``D_a`` when
    the prefix reaches it.  ``out`` may be a new buffer on each call, or
    the slide that was written into ``P``; it must be C-contiguous, since
    ``D_0`` is written through a flat view of its rows.  With one cutoff a
    strip takes 4 zeta + 2 calls: the copy of ``C_0``, zeta column pair
    sums, one ``np.einsum`` per kernel row and two adds per row a > 0.  The
    identity (1 at the centre, 0 elsewhere) takes none: after the buffer
    lookups, so that the workspace keeps one buffer per role, the interior
    of ``P`` is copied into each layer, every bit kept.
    """
    if not out.flags.c_contiguous:
        raise ValueError("the kernel pass needs a C-contiguous output")
    if cutoffs is None:
        cutoffs, out = (weights.shape[0] - 1,), out[np.newaxis]
    zeta = cutoffs[-1]
    weights = weights[:zeta + 1, :zeta + 1]
    height, width = out.shape[1:]
    padded = space["padded"]
    rows = _strip_rows(width)
    span = min(rows, height) + 2 * zeta
    pairs = _scratch(space, "pairs", (zeta + 1, span, width))
    row_sum = _scratch(space, "row_sum", (span, width))
    term = _scratch(space, "term", (span, width))
    if weights[0, 0] == 1.0 and np.count_nonzero(weights) == 1:
        np.copyto(out, padded[zeta:zeta + height, zeta:zeta + width])
        return
    _mirror_margins(padded, zeta)
    for top in range(0, height, rows):
        n = min(rows, height - top)
        strip = padded[top:top + n + 2 * zeta]
        results = out[:, top:top + n]
        # C_0 joins the pair sums C_1 .. C_zeta as the slab pairs[0], so that
        # all taps of a row are one array; times 1.0 copies it exactly.
        columns = pairs[:, :n + 2 * zeta]
        np.multiply(strip[:, zeta:zeta + width], 1.0, out=columns[0])
        for b in range(1, zeta + 1):
            np.add(strip[:, zeta + b:zeta + b + width],
                   strip[:, zeta - b:zeta - b + width], out=columns[b])
        for a in range(zeta + 1):
            # D_a is needed on rows zeta-a .. zeta+a+n-1 of the strip only;
            # D_0 is built in each layer's own rows of out.
            lo, hi = zeta - a, zeta + a + n
            product, tmp, taps = term[:hi - lo], term[:n], 0
            for layer, cutoff in zip(results, cutoffs):
                if cutoff < a:
                    continue
                acc = layer if a == 0 else row_sum[:hi - lo]
                if not taps:
                    _weighted_rows(
                        columns[:cutoff + 1, lo:hi].reshape(cutoff + 1, -1),
                        weights[a, :cutoff + 1], out=acc.reshape(-1))
                else:
                    # The last cutoff's D_a, extended tap by tap as einsum
                    # would have.
                    for b in range(taps, cutoff + 1):
                        np.multiply(columns[b, lo:hi], weights[a, b],
                                    out=product)
                        np.add(prefix, product, out=acc)
                        prefix = acc
                prefix, taps = acc, cutoff + 1
                if a:
                    np.add(acc[:n], acc[2 * a:], out=tmp)
                    np.add(layer, tmp, out=layer)


def _correlate_slide(weights: np.ndarray, slide: np.ndarray,
                     out: np.ndarray, space: dict) -> None:
    """Write the pair-sum pass of one 2D slide into ``out``.

    Samples beyond the border are mirrored, edge included (``d c b a |
    a b c d | d c b a``, as often as the reach needs).  Every sample goes
    through the same operations on its own window, so equal windows give
    equal bits and exact ties between focus layers survive the pass.

    ``weights`` is the kernel quadrant ``w[a, b]``, a, b = 0..zeta.  In row
    strips, the column pair sums ``C_b = P[:, c+b] + P[:, c-b]`` of the
    mirror-padded slide ``P`` (``C_0 = P[:, c]``, copied next to them) give
    the row sums ``D_a = sum_b w[a, b] C_b``, and each output row ``r`` is
    ``D_0[r] + sum_a (D_a[r+a] + D_a[r-a])``.  Each ``D_a`` is one
    ``np.einsum`` over all zeta + 1 taps, which adds each rounded product in
    order of b (the identity is a copy).  On finite non-negative input these
    are the bits of a multiply and an add per non-zero tap, as a zero
    product adds +0.0 (``tests/pass_reference.py``).  Two results can
    differ from that loop: a -0.0 can come out +0.0, since einsum starts
    its sum from +0.0, which compares equal and which the local measure (a
    sum of absolute values) never makes; and an inf sample or pair sum under
    a zero weight of a hand-made quadrant gives NaN where the loop gave inf
    (only an order alpha so small that weights underflow gives
    :func:`build_kernel` a zero weight), both of which
    ``grids.check_focus_values`` refuses.

    The slide is copied into the interior of ``P`` (:func:`_pass_input`),
    and the pass fills its margins and runs (:func:`_pass_into`), every
    scratch buffer the workspace ``space``'s, allocated once per shape and
    reach.  A caller that computes the slide can write it into ``P`` itself
    and skip the copy, as ``focus._focus_layer_into`` does.  ``out`` must
    be C-contiguous; it may be ``slide`` itself.
    """
    _pass_input(slide.shape, weights.shape[0] - 1, space)[...] = slide
    _pass_into(weights, out, space)


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
