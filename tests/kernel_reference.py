"""Reference weights for the nonlocalization kernel.

Two references: frozen quadrant values at zeta = 4, and an adaptive-
quadrature build of the whole kernel for any order and cutoff.

The frozen values have six decimals, from an independent high-precision
evaluation of the defining cell integrals.  Keys are non-negative offsets
(i, j) with i <= j; the remaining entries follow from the eight-fold
symmetry.  Comparison tolerance is 5e-6, half a unit in the last frozen
decimal.
"""

import math

import numpy as np
import scipy.integrate

from fracfocus.frac1d import QuadratureError, QuadratureSpec

QUADRANT_ALPHA_HALF = {
    (0, 0): 1.0,
    (0, 1): 0.116147, (0, 2): 0.038486, (0, 3): 0.020685, (0, 4): 0.013374,
    (1, 1): 0.066866, (1, 2): 0.032440, (1, 3): 0.019096, (1, 4): 0.012776,
    (2, 2): 0.022637, (2, 3): 0.015652, (2, 4): 0.011301,
    (3, 3): 0.012237, (3, 4): 0.009550,
    (4, 4): 0.007929,
}
QUADRANT_ALPHA_ONE = {
    (0, 0): 1.0,
    (0, 1): 0.294441, (0, 2): 0.143268, (0, 3): 0.094982, (0, 4): 0.071095,
    (1, 1): 0.205559, (1, 2): 0.127951, (1, 3): 0.090073, (1, 4): 0.068963,
    (2, 2): 0.100830, (2, 3): 0.078927, (2, 4): 0.063559,
    (3, 3): 0.067014, (3, 4): 0.056825,
    (4, 4): 0.050208,
}
QUADRANT_ALPHA_THREE_HALVES = {
    (0, 0): 1.0,
    (0, 1): 0.570351, (0, 2): 0.400990, (0, 3): 0.326971, (0, 4): 0.283027,
    (1, 1): 0.478687, (1, 2): 0.379117, (1, 3): 0.318443, (1, 4): 0.278761,
    (2, 2): 0.336822, (2, 3): 0.298160, (2, 4): 0.267640,
    (3, 3): 0.274801, (3, 4): 0.253092,
    (4, 4): 0.237922,
}

REFERENCE_QUADRANTS = {
    0.5: QUADRANT_ALPHA_HALF,
    1.0: QUADRANT_ALPHA_ONE,
    1.5: QUADRANT_ALPHA_THREE_HALVES,
}


def adaptive_kernel_weights(alpha: float, zeta: int) -> np.ndarray:
    """Kernel weights for 0 < alpha < 2 from adaptive quadrature.

    scipy's ``quad`` integrates the center cell as eight polar wedges
    0 <= theta <= pi/4, r <= 1/(2 cos theta), and ``dblquad`` each offset
    cell, where r >= 1/2 keeps the integrand smooth.  The center
    integral's 1/alpha is carried as a factor alpha on the offset cells,
    so no order overflows.  Raises QuadratureError if an integral does not
    converge.
    """
    quad = QuadratureSpec()

    def wedge(theta: float) -> float:
        return (0.5 / math.cos(theta)) ** alpha

    result = scipy.integrate.quad(wedge, 0.0, math.pi / 4.0, epsabs=1e-13,
                                  epsrel=quad.rel_tol,
                                  limit=quad.max_subdivisions, full_output=1)
    if len(result) > 3:
        raise QuadratureError(f"center cell: {str(result[3]).strip()}")
    center = 8.0 * result[0]

    exponent = 0.5 * (alpha - 2.0)

    def integrand(y: float, x: float) -> float:
        return (x * x + y * y) ** exponent

    quadrant = np.empty((zeta + 1, zeta + 1))
    quadrant[0, 0] = 1.0
    for j in range(1, zeta + 1):
        for i in range(j + 1):
            value, abserr = scipy.integrate.dblquad(
                integrand, i - 0.5, i + 0.5, j - 0.5, j + 0.5, epsabs=1e-12,
                epsrel=quad.rel_tol)
            if not math.isfinite(value) or abserr > 1e-6:
                raise QuadratureError(
                    f"cell ({i}, {j}): estimated error {abserr:g}")
            quadrant[i, j] = quadrant[j, i] = alpha * value / center
    offsets = np.abs(np.arange(-zeta, zeta + 1))
    return quadrant[offsets[:, np.newaxis], offsets]
