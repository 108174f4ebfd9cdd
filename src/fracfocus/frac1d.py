"""One-dimensional regularized fractional operators on analytic functions.

The building block is the symmetric (regularized Liouville) fractional
integral of order ``alpha`` in [0, 1],

    I^a f(x) = 1/Gamma(a) * integral_0^inf xi^(a-1) * (f(x+xi) + f(x-xi))/2 dxi

which interpolates between the identity (a = 0) and half the two-sided
integral of f (a = 1).  Composing it with d/dx gives the regularized
Liouville-Caputo fractional derivative, and with d^2/dx^2 the Riesz-type
fractional second derivative.  All three are integrated over a truncated
domain by panels of the 24-point Gauss-Legendre rule that builds the 2D
kernel (``kernel2d._gauss_rule``), split adaptively; the endpoint
singularity xi^(a-1) is removed exactly by the substitution u = xi^a.
Accuracy is checked down to a = 0.01.  Below about a = 1e-3, g(u^(1/a))
is a near-step at u = 1 and results drift by up to about 5e-4; orders at
which 1/a overflows (below about 5.6e-309) raise ``ValueError``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .kernel2d import _gauss_rule

__all__ = [
    "Function1D",
    "QuadratureError",
    "QuadratureSpec",
    "regularized_derivative",
    "regularized_integral",
    "riesz_second_derivative",
]

# Below this shift the symmetric divided differences are evaluated at the
# floor instead of at xi: the O(xi^2) truncation error stays ~1e-9 while the
# cancellation error of the raw difference would grow like eps/xi^2.
_DIFF_FLOOR = 1e-4


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not converge within the allowed subdivisions."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation and tolerance settings for the half-line quadratures.

    ``cutoff`` replaces the infinite upper limit; the default of 8 keeps the
    neglected tail of Gaussian-decay test functions below 1e-14.
    """

    cutoff: float = 8.0
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cutoff) and self.cutoff > 0):
            raise ValueError(f"cutoff must be finite and positive, got {self.cutoff}")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be positive, got {self.max_subdivisions}"
            )


@dataclass(frozen=True)
class Function1D:
    """A real-valued function handle with an optional analytic derivative."""

    value: Callable[[float], float]
    derivative: Callable[[float], float] | None = None

    def __call__(self, x: float) -> float:
        return self.value(x)


def _check_order(alpha: float, *, closed: bool) -> None:
    bounds = "in [0, 1]" if closed else "strictly in (0, 1)"
    if not (0.0 <= alpha <= 1.0 if closed else 0.0 < alpha < 1.0):
        raise ValueError(f"fractional order must lie {bounds}, got {alpha}")
    if alpha > 0.0 and math.isinf(1.0 / alpha):  # as does Gamma(alpha)
        raise ValueError(f"fractional order {alpha} is too small: 1/alpha "
                         "overflows")


def _exact(x: float) -> int:
    """``x`` in units of 2**-1074, the smallest subnormal: an exact int."""
    numerator, denominator = x.as_integer_ratio()
    return numerator * ((1 << 1074) // denominator)


def _weighted_quad(g: Callable[[float], float], alpha: float,
                   quad: QuadratureSpec, noise: float = 0.0) -> float:
    """Integrate xi^(alpha-1) * g(xi) / Gamma(alpha) over [0, cutoff].

    u = xi^alpha turns the weight into du / Gamma(1 + alpha): the rule sees a
    bounded integrand, and no order overflows.  The worst panel, by |left
    half + right half - whole|, is split until the errors sum to at most
    max(1e-14, rel_tol * |total|, noise), ``noise`` being the rounding noise
    of g integrated over u; both sums are kept exactly (:func:`_exact`).
    """
    nodes, weights = (r.tolist() for r in _gauss_rule())
    inv_alpha = 1.0 / alpha

    def rule(a: float, b: float) -> float:
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        return half * math.fsum(w * g((mid + half * t) ** inv_alpha)
                                for t, w in zip(nodes, weights))

    # Error negated and first, so that heapq pops the worst panel.
    def panel(a: float, b: float, whole: float) -> tuple:
        mid = 0.5 * (a + b)
        left, right = rule(a, mid), rule(mid, b)
        error = abs(left + right - whole)
        if not math.isfinite(error):
            raise QuadratureError(f"integrand not finite on u in [{a}, {b}]")
        return (-error, a, mid, b, left, right,
                _exact(left) + _exact(right), _exact(error))

    upper = quad.cutoff ** alpha
    heap = [panel(0.0, upper, rule(0.0, upper))]
    total_sum, error_sum = heap[0][6:]
    while True:
        total, error = total_sum / (1 << 1074), error_sum / (1 << 1074)
        if error <= max(1e-14, quad.rel_tol * abs(total), noise):
            return total / math.gamma(1.0 + alpha)
        if len(heap) >= quad.max_subdivisions:
            raise QuadratureError(f"error estimate {error:.1e} after "
                                  f"{len(heap)} subdivisions")
        _, a, mid, b, left, right, value, error_part = heapq.heappop(heap)
        halves = panel(a, mid, left), panel(mid, b, right)
        for half in halves:
            heapq.heappush(heap, half)
        total_sum += halves[0][6] + halves[1][6] - value
        error_sum += halves[0][7] + halves[1][7] - error_part


def regularized_integral(f: Function1D, x: float, alpha: float,
                         quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Symmetric fractional integral I^alpha f at x, order alpha in [0, 1].

    alpha = 0 returns f(x) exactly (unit operator, no quadrature); alpha = 1
    gives half the integral of f over the truncated real line.
    """
    _check_order(alpha, closed=True)
    if alpha == 0.0:
        return float(f.value(x))

    def g(xi: float) -> float:
        return 0.5 * (f.value(x + xi) + f.value(x - xi))

    return _weighted_quad(g, alpha, quad)


def regularized_derivative(f: Function1D, x: float, alpha: float,
                           quad: QuadratureSpec = QuadratureSpec(),
                           form: str = "auto") -> float:
    """Fractional first derivative I^alpha d/dx f at x, order alpha in (0, 1).

    Two equivalent evaluations exist, linked by integration by parts (exact
    up to the truncation tail for decaying f):

    * ``"derivative"``: 1/Gamma(a) * int xi^(a-1) (f'(x+xi) + f'(x-xi))/2,
      requires the analytic derivative evaluator;
    * ``"difference"``: (1-a)/Gamma(a) * int xi^(a-1) (f(x+xi) - f(x-xi))/(2 xi),
      needs function values only.

    ``form="auto"`` picks the derivative form when f carries a derivative
    evaluator and the difference form otherwise.  alpha = 1 is rejected: the
    (1 - alpha) prefactor of the difference form degenerates there.
    """
    _check_order(alpha, closed=False)
    if form == "auto":
        form = "derivative" if f.derivative is not None else "difference"

    if form == "derivative":
        df = f.derivative
        if df is None:
            raise ValueError("derivative form requires a derivative evaluator")

        def g(xi: float) -> float:
            return 0.5 * (df(x + xi) + df(x - xi))

        return _weighted_quad(g, alpha, quad)

    if form == "difference":

        def g(xi: float) -> float:
            xi = max(xi, _DIFF_FLOOR)
            return (f.value(x + xi) - f.value(x - xi)) / (2.0 * xi)

        return (1.0 - alpha) * _weighted_quad(g, alpha, quad)

    raise ValueError(f"unknown form {form!r}, expected 'auto', 'derivative'"
                     " or 'difference'")


def riesz_second_derivative(f: Function1D, x: float, alpha: float,
                            quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Riesz-type fractional second derivative at x, order alpha in (0, 1).

        (2-a) / (2 Gamma(a)) * int xi^(a-1) (f(x+xi) - 2 f(x) + f(x-xi)) / xi^2

    For alpha -> 0 it reduces to the classical second derivative; a constant
    function maps to zero for every order.
    """
    _check_order(alpha, closed=False)
    fx = f.value(x)

    def g(xi: float) -> float:
        xi = max(xi, _DIFF_FLOOR)
        return (f.value(x + xi) - 2.0 * fx + f.value(x - xi)) / (xi * xi)

    # The second difference rounds by about 4 eps |f(x)| / max(xi, floor)^2;
    # integrated over u = xi^alpha, that exceeds rel_tol * |total| near a
    # zero of the result.
    noise = (4.0 * math.ulp(1.0) * abs(fx) * _DIFF_FLOOR ** (alpha - 2.0)
             * 2.0 / (2.0 - alpha))
    return (1.0 - 0.5 * alpha) * _weighted_quad(g, alpha, quad, noise)
