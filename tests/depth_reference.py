"""Reference depth recovery: the whole-volume argmax peak search.

This is how ``recover_depth`` found each pixel's peak before the running
search (``depth.PeakSearch``) replaced it: ``np.argmax`` over the slide
axis, then ``np.take_along_axis`` for the peak and its two neighbours, with
edge slides standing in for the missing ones.  Tests hold the running
search to it bit for bit.
"""

import numpy as np

from fracfocus.depth import _vertex
from fracfocus.grids import DepthMap, FocusVolume


def batch_recover_depth(volume: FocusVolume) -> DepthMap:
    """Depth map by whole-volume argmax plus parabolic refinement."""
    data = volume.data
    n = data.shape[0]
    k_hat = np.argmax(data, axis=0)
    k_flat = k_hat[None, :, :]
    peak = np.take_along_axis(data, k_flat, axis=0)[0]
    rho_minus = np.take_along_axis(data, np.clip(k_flat - 1, 0, n - 1), axis=0)[0]
    rho_plus = np.take_along_axis(data, np.clip(k_flat + 1, 0, n - 1), axis=0)[0]
    offset, _ = _vertex(rho_minus, peak, rho_plus)

    interior = (k_hat > 0) & (k_hat < n - 1)
    offset = np.where(interior, offset, 0.0)
    delta_z = (volume.z_max - volume.z_min) / (n - 1)
    values = volume.z_min + (k_hat + offset) * delta_z
    valid = interior | (peak > 0.0)
    values = np.where(valid, values, np.nan)
    return DepthMap(values=values, valid=valid, q=volume.q,
                    alpha=volume.alpha, zeta=volume.zeta,
                    z_min=volume.z_min, z_max=volume.z_max, h=volume.h)
