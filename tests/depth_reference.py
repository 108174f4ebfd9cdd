"""Reference depth recovery: the whole-volume argmax peak search.

This is how depth recovery found each pixel's peak before the running
search (``depth.PeakSearch``) replaced it: ``np.argmax`` over the slide
axis, then ``np.take_along_axis`` for the peak and its two neighbours, with
edge slides standing in for the missing ones.  Tests hold the running
search to it bit for bit.
"""

import numpy as np

from fracfocus.depth import _vertex
from fracfocus.grids import DepthMap


def batch_recover_depth(data, *, q, z_min, z_max, h, alpha=None, zeta=None,
                        ) -> DepthMap:
    """Depth map of focus data (n_slides, height, width) by whole-volume
    argmax plus parabolic refinement, recording the given parameters."""
    n = data.shape[0]
    k_hat = np.argmax(data, axis=0)
    k_flat = k_hat[None, :, :]
    peak = np.take_along_axis(data, k_flat, axis=0)[0]
    rho_minus = np.take_along_axis(data, np.clip(k_flat - 1, 0, n - 1), axis=0)[0]
    rho_plus = np.take_along_axis(data, np.clip(k_flat + 1, 0, n - 1), axis=0)[0]
    offset, _ = _vertex(rho_minus, peak, rho_plus)

    interior = (k_hat > 0) & (k_hat < n - 1)
    offset = np.where(interior, offset, 0.0)
    delta_z = (z_max - z_min) / (n - 1)
    values = z_min + (k_hat + offset) * delta_z
    valid = interior | (peak > 0.0)
    values = np.where(valid, values, np.nan)
    return DepthMap(values=values, valid=valid, q=q, alpha=alpha, zeta=zeta,
                    z_min=z_min, z_max=z_max, h=h)
