"""Reference for the local measure: the whole-slide modified Laplacian.

The same numpy ufuncs, on the same operands and in the same order, as the
row strips of ``focus._modified_laplacian_into``, run once over the whole
interior of the slide, so the two must agree bit for bit.  Its two
temporaries are allocated on every call.
"""

import numpy as np


def reference_modified_laplacian_into(out, f, q, h):
    """Write the stride-q measure of slide ``f`` into ``out``, zero frame
    included."""
    scale = 1.0 / (q * h) ** 2
    shape = (f.shape[0] - 2 * q, f.shape[1] - 2 * q)
    d2x, d2y = np.empty(shape), np.empty(shape)
    np.multiply(f[q:-q, q:-q], 2.0, out=d2y)
    np.subtract(f[q:-q, 2 * q:], d2y, out=d2x)
    np.add(d2x, f[q:-q, :-2 * q], out=d2x)
    np.subtract(f[2 * q:, q:-q], d2y, out=d2y)
    np.add(d2y, f[:-2 * q, q:-q], out=d2y)
    np.abs(d2x, out=d2x)
    np.abs(d2y, out=d2y)
    np.add(d2x, d2y, out=d2x)
    np.multiply(d2x, scale, out=out[q:-q, q:-q])
    out[:q, :] = 0.0
    out[-q:, :] = 0.0
    out[:, :q] = 0.0
    out[:, -q:] = 0.0
