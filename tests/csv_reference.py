"""Per-value reference writer for depth-map CSV files.

Each pixel goes out as ``format(v, ".17g")``, or as the literal token NaN
where the pixel is invalid; values are joined by commas and every row,
the last included, ends in a newline.  Plain Python loops, one value at
a time.
"""

import numpy as np


def reference_depth_csv(values, valid):
    """The text of a depth CSV for ``values`` masked by ``valid``."""
    rows = []
    for vals, ok in zip(values, valid):
        rows.append(",".join(format(v, ".17g") if good and np.isfinite(v)
                             else "NaN"
                             for v, good in zip(vals, ok)))
    return "\n".join(rows) + "\n"
