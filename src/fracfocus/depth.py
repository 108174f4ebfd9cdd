"""Depth recovery from a focus volume: per-pixel argmax plus parabolic fit.

Each pixel's focus column is scanned for its maximum slide k; a three-point
parabola through the neighbouring slides refines the peak to a sub-slice
offset, clamped to half a slice either way.  Pixels whose column is
entirely zero (the masked frame, untextured regions) come out invalid.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .grids import DepthMap, FocusVolume

__all__ = ["PeakFit", "parabolic_peak", "recover_depth"]

# Relative threshold guarding the denominator of the parabolic fit, with an
# absolute floor so that an all-zero triple counts as degenerate too.
_DEGENERATE_REL = 1e-12
_DEGENERATE_ABS = 1e-300


class PeakFit(NamedTuple):
    offset: float
    degenerate: bool


def _vertex(rho_minus, rho_0, rho_plus):
    """Clamped vertex offsets and degeneracy flags of parabolas, elementwise.

    Shared by :func:`parabolic_peak` and :func:`recover_depth`, so the two
    agree bit for bit.
    """
    scale = np.maximum(np.maximum(np.abs(rho_minus), np.abs(rho_plus)),
                       np.maximum(np.abs(rho_0), _DEGENERATE_ABS))
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


def recover_depth(volume: FocusVolume) -> DepthMap:
    """Depth map from a focus volume by argmax plus parabolic refinement.

    Per pixel: the peak slide k is the first maximum of the focus column
    (ties break to the smallest index).  Interior peaks are refined by
    :func:`parabolic_peak` and mapped to z = z_min + (k + offset) * delta_z;
    a peak on the first or last slide yields z_k unrefined and is valid
    only if its focus value is positive, which marks all-zero columns (the
    masked border frame included) invalid.  Never raises on degenerate
    columns.
    """
    data = volume.data
    n = volume.n_slides
    k_hat = np.argmax(data, axis=0)
    k_flat = k_hat[None, :, :]
    peak = np.take_along_axis(data, k_flat, axis=0)[0]
    rho_minus = np.take_along_axis(data, np.clip(k_flat - 1, 0, n - 1), axis=0)[0]
    rho_plus = np.take_along_axis(data, np.clip(k_flat + 1, 0, n - 1), axis=0)[0]
    offset, _ = _vertex(rho_minus, peak, rho_plus)

    interior = (k_hat > 0) & (k_hat < n - 1)
    offset = np.where(interior, offset, 0.0)
    values = volume.z_min + (k_hat + offset) * volume.delta_z
    valid = interior | (peak > 0.0)
    values = np.where(valid, values, np.nan)
    return DepthMap(values=values, valid=valid, q=volume.q,
                    alpha=volume.alpha, zeta=volume.zeta,
                    z_min=volume.z_min, z_max=volume.z_max, h=volume.h)
