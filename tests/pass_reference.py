"""Reference for the pair-sum pass: the strip loop written out directly.

Each row strip slices the mirror-padded slide afresh and builds each row
sum ``D_a`` with a multiply and then an add per non-zero tap, in order of
the tap.  ``kernel2d._correlate_slide`` makes each row sum one
``np.einsum`` call instead, which adds the same rounded products in the
same order, so on finite non-negative slides the two must agree bit for
bit.  Its buffers are allocated on every call and padding
comes from ``np.pad``.
"""

import numpy as np


def reference_correlate_slide(weights, slide, out, strip_samples):
    """Write the pair-sum pass of ``slide`` with the kernel quadrant
    ``weights`` into ``out``, in row strips of ``strip_samples`` samples."""
    zeta = weights.shape[0] - 1
    height, width = slide.shape
    padded = np.pad(slide, zeta, mode="symmetric")
    rows = max(1, strip_samples // width)
    span = min(rows, height) + 2 * zeta
    taps = [(a, np.flatnonzero(row)) for a, row in enumerate(weights)
            if row.any()]
    pairs = np.empty((zeta, span, width))
    row_sum = np.empty((span, width))
    term = np.empty((span, width))
    for top in range(0, height, rows):
        n = min(rows, height - top)
        strip = padded[top:top + n + 2 * zeta]
        columns = [strip[:, zeta:zeta + width]]
        for b in range(1, zeta + 1):
            columns.append(np.add(strip[:, zeta + b:zeta + b + width],
                                  strip[:, zeta - b:zeta - b + width],
                                  out=pairs[b - 1, :n + 2 * zeta]))
        for a, (first, *rest) in taps:
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
