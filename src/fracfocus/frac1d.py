"""One-dimensional regularized fractional operators on analytic functions.

The building block is the symmetric (regularized Liouville) fractional
integral of order ``alpha`` in [0, 1],

    I^a f(x) = 1/Gamma(a) * integral_0^inf xi^(a-1) * (f(x+xi) + f(x-xi))/2 dxi

which interpolates between the identity (a = 0) and half the two-sided
integral of f (a = 1).  Composing it with d/dx gives the regularized
Liouville-Caputo fractional derivative, and with d^2/dx^2 the Riesz-type
fractional second derivative.  All three are evaluated by adaptive
quadrature on a truncated domain; the endpoint singularity xi^(a-1) is
removed exactly by the substitution u = xi^a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import scipy

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
    if closed:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"fractional order must lie in [0, 1], got {alpha}")
    elif not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie strictly in (0, 1), got {alpha}")


def _weighted_quad(g: Callable[[float], float], alpha: float,
                   quad: QuadratureSpec) -> float:
    """Integrate xi^(alpha-1) * g(xi) over [0, cutoff] for bounded g.

    Substituting u = xi^alpha turns the weight into du/alpha exactly, so the
    adaptive rule only ever sees a bounded integrand.
    """
    upper = quad.cutoff ** alpha
    inv_alpha = 1.0 / alpha

    def integrand(u: float) -> float:
        return g(u ** inv_alpha)

    result = scipy.integrate.quad(integrand, 0.0, upper, epsabs=1e-14,
                                  epsrel=quad.rel_tol,
                                  limit=quad.max_subdivisions, full_output=1)
    if len(result) > 3:
        # Fourth element is quadpack's explanation of the failure.
        raise QuadratureError(str(result[3]).strip())
    return result[0] / alpha


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

    return _weighted_quad(g, alpha, quad) / math.gamma(alpha)


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

        return _weighted_quad(g, alpha, quad) / math.gamma(alpha)

    if form == "difference":

        def g(xi: float) -> float:
            xi = max(xi, _DIFF_FLOOR)
            return (f.value(x + xi) - f.value(x - xi)) / (2.0 * xi)

        return (1.0 - alpha) * _weighted_quad(g, alpha, quad) / math.gamma(alpha)

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

    prefactor = (2.0 - alpha) / (2.0 * math.gamma(alpha))
    return prefactor * _weighted_quad(g, alpha, quad)
