"""Reference values of the 1D fractional operators from scipy's QUADPACK.

Each operator is rebuilt from its defining integral over [0, cutoff] with
the substitution u = xi^alpha, and the substituted integral goes to
``scipy.integrate.quad``, an adaptive Gauss-Kronrod rule with extrapolation
that shares no code with the package's Gauss-Legendre panels.
"""

import math

import scipy.integrate

from fracfocus.frac1d import _DIFF_FLOOR, Function1D, QuadratureSpec

OPERATORS = ("integral", "derivative", "difference", "riesz")


def scipy_operator(name: str, f: Function1D, x: float, alpha: float,
                   quad: QuadratureSpec) -> float | None:
    """Operator ``name`` of ``f`` at ``x`` by QUADPACK, or None when QUADPACK
    reports that it did not reach the tolerance of ``quad``.

    ``name`` is one of OPERATORS: the fractional integral, the derivative
    and difference forms of the fractional derivative, and the Riesz-type
    second derivative.
    """
    fx = f.value(x)

    def pair_mean(g, xi):
        return 0.5 * (g(x + xi) + g(x - xi))

    def difference(xi):
        xi = max(xi, _DIFF_FLOOR)
        return (f.value(x + xi) - f.value(x - xi)) / (2.0 * xi)

    def second_difference(xi):
        xi = max(xi, _DIFF_FLOOR)
        return (f.value(x + xi) - 2.0 * fx + f.value(x - xi)) / (xi * xi)

    scale, g = {
        "integral": (1.0, lambda xi: pair_mean(f.value, xi)),
        "derivative": (1.0, lambda xi: pair_mean(f.derivative, xi)),
        "difference": (1.0 - alpha, difference),
        "riesz": (1.0 - 0.5 * alpha, second_difference),
    }[name]
    inv_alpha = 1.0 / alpha
    result = scipy.integrate.quad(lambda u: g(u ** inv_alpha), 0.0,
                                  quad.cutoff ** alpha, epsabs=1e-14,
                                  epsrel=quad.rel_tol,
                                  limit=quad.max_subdivisions, full_output=1)
    if len(result) > 3:
        return None
    return scale * result[0] / alpha / math.gamma(alpha)
