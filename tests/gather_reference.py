"""Reference for the renderer's gather: the level gather as it was when
each call built its own tables and scratch.

One call gathers a whole block of rows: it builds the Gaussian factor
table and the weight sums over every sigma level, allocates its pair sums,
factor gathers, ``ring`` and ``group`` afresh, and returns a new array.
``synth._gather``, which takes its tables per slide and its scratch from a
workspace, must agree with it bit for bit.
"""

import numpy as np


def reference_level_gather(tex: np.ndarray, margin: int, sigma: np.ndarray,
                           radius: np.ndarray,
                           index: np.ndarray) -> np.ndarray:
    """Gather with a per-pixel Gaussian PSF over a map of sigma levels.

    Output pixel p has level index[p], PSF width sigma[index[p]] pixels and
    support radius radius[index[p]].  It sums the padded texture over the
    square of offsets max(|dx|, |dy|) <= radius with weights
    exp(-(dx^2+dy^2)/(2 sigma^2)), then divides by its own weight sum.
    ``tex`` is the texture padded by ``margin >= radius.max()`` on every
    side.  A per-pixel sigma field is the case of one level per pixel.

    The taps are summed in symmetric groups.  Ring b = max(|dx|, |dy|)
    holds, for each a <= b, the up to eight taps (+-a, +-b) and (+-b, +-a),
    which share the weight exp(-a^2/(2 sigma^2)) * exp(-b^2/(2 sigma^2)):
    their texture values are added first (from sums of +-d column pairs),
    multiplied by the a-factor once, and each ring's total by the b-factor
    once.  The factors, and the weight sums, are evaluated once per level
    (0 past the level's radius) and gathered back to the pixels, so a
    constant sigma field costs one scalar ``exp`` per factor.  Ring b is
    cropped to the bounding box of the pixels it reaches.  Pixels with
    sigma = 0 or radius 0 keep only the center tap and copy the texture
    through exactly.  The summation order differs from a plain tap-by-tap
    loop; on the standard scenes the two agree to 4e-15.
    """
    height, width = index.shape
    reach = radius[index]
    r_max = int(reach.max())
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / (2.0 * sigma * sigma)  # inf at sigma = 0
    # gauss[d] = exp(-d^2 inv) per level, 0 where the radius is below d.
    gauss = np.ones((r_max + 1, sigma.size))
    for d in range(1, r_max + 1):
        gauss[d] = np.where(radius >= d, np.exp(-(d * d) * inv), 0.0)
    den = np.ones(sigma.size)  # weight sum per level
    num = tex[margin:margin + height, margin:margin + width].copy()
    rows = reach.max(axis=1)
    cols = reach.max(axis=0)
    # pairs[d][i, j] = tex(i, j + d) + tex(i, j - d) on all padded rows;
    # factors[d] = gauss[d] per pixel.
    pairs = [tex[:, margin:margin + width]]
    factors = [None]
    for b in range(1, r_max + 1):
        pairs.append(tex[:, margin + b:margin + b + width]
                     + tex[:, margin - b:margin - b + width])
        factors.append(gauss[b][index])
        ys = np.flatnonzero(rows >= b)
        xs = np.flatnonzero(cols >= b)
        y0, y1, x0, x1 = ys[0], ys[-1] + 1, xs[0], xs[-1] + 1
        box = np.s_[y0:y1, x0:x1]

        def taps(d: int, dy: int) -> np.ndarray:
            """The pair sums at (dy, +-d) for every pixel of the box."""
            return pairs[d][margin + y0 + dy:margin + y1 + dy, x0:x1]

        # a = 0: the four taps (0, +-b) and (+-b, 0), a-factor 1.
        ring = taps(b, 0) + taps(0, -b)
        ring += taps(0, b)
        ring_den = np.full(sigma.size, 4.0)
        group = np.empty_like(ring)
        for a in range(1, b + 1):
            np.add(taps(b, -a), taps(b, a), out=group)
            if a < b:
                group += taps(a, -b)
                group += taps(a, b)
            group *= factors[a][box]
            ring += group
            ring_den += (8.0 if a < b else 4.0) * gauss[a]
        ring *= factors[b][box]
        num[box] += ring
        den += gauss[b] * ring_den
    return num / den[index]
