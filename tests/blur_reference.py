"""Direct per-pixel reference for the defocus gather of the renderer.

Each output pixel sums the padded texture over the square of offsets
max(|dx|, |dy|) <= radius(y, x) with weights exp(-(dx^2+dy^2)/(2 sigma^2)),
then divides by its own weight sum; sigma = 0 keeps only the center tap.
Plain Python loops, one pixel and one tap at a time, nothing shared.
"""

import math

import numpy as np


def reference_gather(tex, margin, sigma, radius):
    """Defocus ``tex`` (padded by ``margin``) with per-pixel sigma, radius."""
    height, width = sigma.shape
    out = np.empty((height, width))
    for y in range(height):
        for x in range(width):
            s = float(sigma[y, x])
            r = int(radius[y, x])
            num = den = 0.0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    if s > 0.0:
                        w = math.exp(-(dx * dx + dy * dy) / (2.0 * s * s))
                    else:
                        w = 1.0 if dx == dy == 0 else 0.0
                    num += w * tex[margin + y + dy, margin + x + dx]
                    den += w
            out[y, x] = num / den
    return out
