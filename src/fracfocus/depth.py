"""Depth recovery from focus slides: per-pixel first maximum plus parabolic fit.

Each pixel's focus column is scanned for its first maximum slide k; a
three-point parabola through the neighbouring slides refines the peak to a
sub-slice offset, clamped to half a slice either way.  Pixels whose column
is entirely zero (the masked frame, untextured regions) come out invalid.

The scan is one running search, :class:`PeakSearch`, fed one slide at a
time: it keeps per pixel the maximum so far, its slide and the slides on
either side of it, so its memory does not grow with the number of slides.
:func:`recover_depth` feeds it the layers ``focus.focus_layers`` streams
from a slide source, one search per cutoff of the stream's stacks (one
for ``recover``, one per cutoff for each stream of ``comparison_table``).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .focus import _own_cutoffs, focus_layers
from .grids import DepthMap, FocalStack
from .kernel2d import Kernel

if TYPE_CHECKING:
    from .io import StackHeader

__all__ = ["PeakFit", "PeakSearch", "parabolic_peak", "recover_depth"]

# Relative threshold guarding the denominator of the parabolic fit, with an
# absolute floor so that an all-zero triple counts as degenerate too.
_DEGENERATE_REL = 1e-12
_DEGENERATE_ABS = 1e-300
# The denominator can reach four times the largest magnitude of the triple,
# which overflows from 2**1022 on: triples whose largest magnitude reaches
# 2**1021 are fitted scaled by 1/8, which is exact and leaves the vertex
# and the degeneracy test as they are.
_HUGE = 2.0 ** 1021


class PeakFit(NamedTuple):
    offset: float
    degenerate: bool


def _vertex(rho_minus, rho_0, rho_plus):
    """Clamped vertex offsets and degeneracy flags of parabolas, elementwise.

    Shared by :func:`parabolic_peak` and :meth:`PeakSearch.depth_map`, so
    the two agree bit for bit.  Triples below ``_HUGE`` are fitted as
    given, so their results keep their bits; larger ones are scaled down
    first.
    """
    scale = np.maximum(np.maximum(np.abs(rho_minus), np.abs(rho_plus)),
                       np.maximum(np.abs(rho_0), _DEGENERATE_ABS))
    huge = scale >= _HUGE
    if np.any(huge):
        factor = np.where(huge, 0.125, 1.0)
        rho_minus, rho_0, rho_plus, scale = (
            value * factor for value in (rho_minus, rho_0, rho_plus, scale))
    denom = rho_plus - 2.0 * rho_0 + rho_minus
    degenerate = np.abs(denom) <= _DEGENERATE_REL * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = -0.5 * (rho_plus - rho_minus) / denom
    return np.clip(np.where(degenerate, 0.0, offset), -0.5, 0.5), degenerate


def parabolic_peak(rho_minus: float, rho_0: float, rho_plus: float) -> PeakFit:
    """Sub-slice peak offset from three consecutive focus samples.

    Fits a parabola through (-1, rho_minus), (0, rho_0), (+1, rho_plus) and
    returns its vertex offset

        delta = -1/2 * (rho_plus - rho_minus) / (rho_plus - 2 rho_0 + rho_minus)

    in slice-index units, clamped to [-1/2, +1/2].  A vanishing denominator
    (flat triple) gives offset 0 with ``degenerate=True`` instead of
    failing.
    """
    offset, degenerate = _vertex(np.float64(rho_minus), np.float64(rho_0),
                                 np.float64(rho_plus))
    return PeakFit(float(offset), bool(degenerate))


class PeakSearch:
    """Running first maximum of every pixel's focus column.

    :meth:`push` the focus layers of slides 0, 1, 2, ... in order, then
    take :meth:`depth_map`.  Per pixel the state is the maximum so far
    (``best``), its slide ``k_hat`` and the layers on either side of it
    (``rho_minus``, ``rho_plus``), which the parabola needs; a peak on the
    first or last slide is not refined, so its missing neighbour only ever
    holds some other finite focus value.  A later slide takes over only if
    it is strictly greater, so exact ties go to the smallest slide index.
    This biases plateaus: on an interior run of L >= 2 equal maxima the
    parabola sees rho_plus equal to the peak and clamps at +1/2, so the
    run is read (L - 2)/2 slides below its centre.  The benchmark's
    ``plane-large`` (8-bit 512 x 512 x 64 plane at true z = 0.37, nonlocal
    with q = 4, alpha = 1.5, zeta = 8) is recovered at z ~ 0.31 this way.
    Memory is a few layers, however many slides are pushed: four float64
    layers, a boolean one, and ``k_hat`` in the smallest unsigned integer
    type that holds the slides pushed so far (one byte per pixel up to 256
    slides), widened when a push outgrows it.
    """

    def __init__(self) -> None:
        self._pushed = 0

    def push(self, layer: np.ndarray) -> None:
        """Take the focus layer of the next slide (copied, not kept).

        Raises ValueError if its shape is not that of the first layer.
        """
        layer = np.asarray(layer, dtype=float)
        if self._pushed and layer.shape != self._best.shape:
            raise ValueError(f"layer of shape {layer.shape} does not match "
                             f"the first layer's {self._best.shape}")
        if not self._pushed:
            self._best = layer.copy()
            self._k_hat = np.zeros(layer.shape, dtype=np.uint8)
            self._rho_minus = layer.copy()
            self._rho_plus = layer.copy()
            self._previous = layer.copy()
            # Pixels whose peak is the slide pushed last: the next slide is
            # their rho_plus.
            self._fresh = np.ones(layer.shape, dtype=bool)
        else:
            if self._pushed > np.iinfo(self._k_hat.dtype).max:
                self._k_hat = self._k_hat.astype(
                    np.min_scalar_type(self._pushed))
            np.copyto(self._rho_plus, layer, where=self._fresh)
            np.greater(layer, self._best, out=self._fresh)
            np.copyto(self._best, layer, where=self._fresh)
            np.copyto(self._k_hat, self._pushed, where=self._fresh)
            np.copyto(self._rho_minus, self._previous, where=self._fresh)
            np.copyto(self._previous, layer)
        self._pushed += 1

    def depth_map(self, *, q: int, z_min: float, z_max: float,
                  h: float = 1.0, alpha: float | None = None,
                  zeta: int | None = None) -> DepthMap:
        """Depth map of the slides pushed so far, at z_min .. z_max.

        Interior peaks are refined by :func:`parabolic_peak` and mapped to
        z = z_min + (k + offset) * delta_z; a peak on the first or last
        slide yields z_k unrefined and is valid only if its focus value is
        positive, which marks all-zero columns (the masked border frame
        included) invalid.  Never raises on degenerate columns.  The other
        arguments are the recovery parameters the map records.
        """
        n = self._pushed
        if n < 2:
            raise ValueError(f"a depth map needs at least 2 slides, got {n}")
        k_hat, peak = self._k_hat, self._best
        # A peak on the last slide has no rho_plus yet; its offset is
        # discarded below, like that of a peak on the first slide.
        offset, _ = _vertex(self._rho_minus, peak, self._rho_plus)
        interior = (k_hat > 0) & (k_hat < n - 1)
        offset = np.where(interior, offset, 0.0)
        values = z_min + (k_hat + offset) * ((z_max - z_min) / (n - 1))
        valid = interior | (peak > 0.0)
        values = np.where(valid, values, np.nan)
        return DepthMap(values=values, valid=valid, q=q, alpha=alpha,
                        zeta=zeta, z_min=z_min, z_max=z_max, h=h)


def _recover_depths(source: FocalStack | StackHeader, q: int,
                    kernel: Kernel | None, cutoffs: Sequence[int],
                    ) -> Iterator[DepthMap]:
    """Depth map of each cutoff of ``focus_layers(source, q, kernel,
    cutoffs)``, in that order, each stamped with q, alpha and zeta (its
    cutoff; both None without a kernel), the z range and h."""
    searches = [PeakSearch() for _ in cutoffs]
    for layers in focus_layers(source, q, kernel, cutoffs):
        for search, layer in zip(searches, layers):
            search.push(layer)
    for search, cutoff in zip(searches, cutoffs):
        yield search.depth_map(
            q=q, z_min=source.z_min, z_max=source.z_max, h=source.h,
            alpha=None if kernel is None else kernel.alpha,
            zeta=None if kernel is None else cutoff)


def recover_depth(source: FocalStack | StackHeader, q: int,
                  kernel: Kernel | None = None) -> DepthMap:
    """Depth map of a slide source by first maximum plus parabolic fit.

    Each slide's focus layer (``focus.focus_layers``) goes into a
    :class:`PeakSearch` as it is made, so no focus volume is held; see
    :meth:`PeakSearch.depth_map` for the rules.  The map records q, the
    kernel's alpha and zeta (None without one), the z range and h.
    """
    [depth_map] = _recover_depths(source, q, kernel, _own_cutoffs(kernel))
    return depth_map
