"""Tests for the one-dimensional regularized fractional operators."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frac1d_reference import OPERATORS, scipy_operator
from fracfocus.frac1d import (
    Function1D,
    QuadratureError,
    QuadratureSpec,
    regularized_derivative,
    regularized_integral,
    riesz_second_derivative,
)

GAUSS = Function1D(
    value=lambda x: math.exp(-x * x),
    derivative=lambda x: -2.0 * x * math.exp(-x * x),
)

# Same function without the analytic derivative, to exercise the
# difference form through the "auto" dispatch.
GAUSS_NO_DERIV = Function1D(value=lambda x: math.exp(-x * x))

LORENTZ = Function1D(
    value=lambda x: 1.0 / (1.0 + x * x),
    derivative=lambda x: -2.0 * x / (1.0 + x * x) ** 2,
)

XGAUSS = Function1D(
    value=lambda x: x * math.exp(-x * x),
    derivative=lambda x: (1.0 - 2.0 * x * x) * math.exp(-x * x),
)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.cutoff == 8.0
        assert spec.rel_tol == 1e-8
        assert spec.max_subdivisions == 2000

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_cutoff(self, cutoff):
        with pytest.raises(ValueError):
            QuadratureSpec(cutoff=cutoff)

    @pytest.mark.parametrize("rel_tol", [0.0, 1.0, -1e-8])
    def test_rejects_bad_tolerance(self, rel_tol):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=rel_tol)

    def test_rejects_bad_subdivisions(self):
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)


class TestFunction1D:
    def test_callable(self):
        assert GAUSS(0.0) == 1.0
        assert GAUSS(1.0) == math.exp(-1.0)

    def test_derivative_optional(self):
        assert GAUSS_NO_DERIV.derivative is None


class TestRegularizedIntegral:
    def test_zero_order_is_identity(self):
        # No quadrature involved: exact equality expected.
        for x in (-1.3, 0.0, 0.4, 2.0):
            assert regularized_integral(GAUSS, x, 0.0) == GAUSS(x)

    def test_unit_order_gaussian(self):
        # I^1 of exp(-x^2) is half its integral over the line, sqrt(pi)/2,
        # independent of x for cutoffs beyond the support.
        expected = 0.5 * math.sqrt(math.pi)
        got = regularized_integral(GAUSS, 0.0, 1.0)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_gaussian_half_order_reference(self):
        # Frozen reference value, computed by an independent quadrature of
        # the defining integral without the singularity substitution.
        got = regularized_integral(GAUSS, 0.0, 0.5)
        assert got == pytest.approx(1.0227656721131665, abs=1e-9)

    def test_linearity(self):
        a, b = 0.7, -1.9
        combo = Function1D(value=lambda x: a * GAUSS(x) + b * LORENTZ(x))
        for alpha in (0.3, 0.8):
            lhs = regularized_integral(combo, 0.5, alpha)
            rhs = a * regularized_integral(GAUSS, 0.5, alpha) + b * regularized_integral(
                LORENTZ, 0.5, alpha
            )
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_even_function_symmetric_in_x(self):
        for alpha in (0.25, 0.75):
            left = regularized_integral(GAUSS, -0.8, alpha)
            right = regularized_integral(GAUSS, 0.8, alpha)
            assert left == pytest.approx(right, rel=1e-10)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0, 5e-324, 1e-310])
    def test_rejects_order_outside_closed_interval(self, alpha):
        with pytest.raises(ValueError):
            regularized_integral(GAUSS, 0.0, alpha)

    def test_reports_quadrature_failure(self):
        # One subdivision cannot resolve a fast oscillation; the failure
        # must surface as QuadratureError, not a silent bad number.
        wiggle = Function1D(value=lambda x: math.cos(60.0 * x))
        tight = QuadratureSpec(max_subdivisions=1)
        with pytest.raises(QuadratureError):
            regularized_integral(wiggle, 0.0, 0.5, quad=tight)


class TestRegularizedDerivative:
    def test_half_order_gaussian_reference(self):
        # Frozen reference value (independent quadrature, derivative form).
        got = regularized_derivative(GAUSS, 0.5, 0.5)
        assert got == pytest.approx(-0.4159550620634153, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("f", [GAUSS, XGAUSS], ids=["gauss", "xgauss"])
    def test_forms_agree(self, f, alpha):
        # The two evaluations are linked by integration by parts, which
        # needs the integrand's tail to vanish; both test functions decay
        # like a Gaussian, so the truncated forms agree tightly.
        x = 0.5
        via_derivative = regularized_derivative(f, x, alpha, form="derivative")
        via_difference = regularized_derivative(f, x, alpha, form="difference")
        assert via_difference == pytest.approx(via_derivative, abs=1e-6)

    def test_auto_uses_difference_without_derivative(self):
        x, alpha = 0.5, 0.5
        auto = regularized_derivative(GAUSS_NO_DERIV, x, alpha)
        explicit = regularized_derivative(GAUSS, x, alpha, form="difference")
        assert auto == explicit

    def test_small_order_approaches_classical_derivative(self):
        x = 0.7
        classical = GAUSS.derivative(x)
        got = regularized_derivative(GAUSS, x, 0.01)
        assert abs(got - classical) <= 0.01 * abs(classical)

    def test_odd_symmetry_for_even_function(self):
        # d/dx of an even function is odd, and the operator preserves that.
        left = regularized_derivative(GAUSS, -0.6, 0.5)
        right = regularized_derivative(GAUSS, 0.6, 0.5)
        assert left == pytest.approx(-right, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5, 5e-324, 1e-310])
    def test_rejects_order_outside_open_interval(self, alpha):
        with pytest.raises(ValueError):
            regularized_derivative(GAUSS, 0.0, alpha)

    def test_derivative_form_requires_evaluator(self):
        with pytest.raises(ValueError):
            regularized_derivative(GAUSS_NO_DERIV, 0.0, 0.5, form="derivative")

    def test_rejects_unknown_form(self):
        with pytest.raises(ValueError):
            regularized_derivative(GAUSS, 0.0, 0.5, form="central")


class TestRieszSecondDerivative:
    def test_half_order_gaussian_reference(self):
        # Frozen reference value: 80-digit quadrature of the defining
        # integral over the default truncated domain [0, 8].
        got = riesz_second_derivative(GAUSS, 1.0, 0.5)
        assert got == pytest.approx(0.4981044139607077, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_constant_maps_to_zero(self, alpha):
        const = Function1D(value=lambda x: 3.25)
        assert riesz_second_derivative(const, 0.4, alpha) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_small_order_approaches_second_derivative(self):
        x = 0.5
        classical = (4.0 * x * x - 2.0) * math.exp(-x * x)
        got = riesz_second_derivative(GAUSS, x, 0.01)
        assert abs(got - classical) <= 0.01 * abs(classical)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_scaled_identity_with_integral_of_second_derivative(self, alpha):
        # Double integration by parts of the defining integral gives
        #   (1 - a) * riesz(f) = I^a applied to f''
        # once truncation tails are negligible. The central-difference side
        # converges only like cutoff^(a-2), hence the enlarged cutoff.
        second = Function1D(value=lambda x: (4.0 * x * x - 2.0) * math.exp(-x * x))
        big = QuadratureSpec(cutoff=1e5)
        lhs = (1.0 - alpha) * riesz_second_derivative(GAUSS, 1.0, alpha, quad=big)
        rhs = regularized_integral(second, 1.0, alpha)
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_concavity_sign_at_peak(self):
        # exp(-x^2) is concave at the origin; every order should agree.
        for alpha in (0.2, 0.5, 0.8):
            assert riesz_second_derivative(GAUSS, 0.0, alpha) < 0.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5e-324, 1e-310])
    def test_rejects_boundary_orders(self, alpha):
        with pytest.raises(ValueError):
            riesz_second_derivative(GAUSS, 0.0, alpha)

    # Zeros in x of the operator on exp(-x^2): brentq on QUADPACK values.
    ZEROS = {0.01: 0.7085350303016077, 0.03: 0.7114149226264748,
             0.09: 0.7202452905535919, 0.2: 0.7372063655441524,
             0.5: 0.7890036013395456}

    @pytest.mark.parametrize("alpha", sorted(ZEROS))
    def test_converges_near_a_zero(self, alpha):
        # There rel_tol * |value| falls below the rounding noise of the
        # second difference, which no split of a panel can resolve.  Every
        # point must converge; every fifth is checked against QUADPACK.
        xs = (self.ZEROS[alpha] + np.linspace(-1e-3, 1e-3, 41)).tolist()
        got = [riesz_second_derivative(GAUSS, x, alpha) for x in xs]
        for x, value in list(zip(xs, got))[::5]:
            want = scipy_operator("riesz", GAUSS, x, alpha,
                                  QuadratureSpec(rel_tol=1e-12))
            if want is not None:
                assert value == pytest.approx(want, abs=1e-9), x

    def test_deterministic(self):
        a = riesz_second_derivative(GAUSS, 0.3, 0.6)
        b = riesz_second_derivative(GAUSS, 0.3, 0.6)
        assert a == b


@pytest.mark.parametrize("alpha", [6e-309, 1e-308, 1e-300])
def test_tiniest_orders_give_the_local_limits(alpha):
    # Just above the smallest order accepted, 1/alpha is finite but
    # 2 Gamma(alpha) and 1/alpha times an integral above 1 are not; the
    # operators must still return f, f' and f''.
    x = 0.3
    value = 3.0 * math.exp(-x * x)
    big = Function1D(value=lambda t: 3.0 * math.exp(-t * t))
    assert regularized_integral(big, x, alpha) == pytest.approx(value,
                                                                rel=1e-12)
    assert regularized_derivative(big, x, alpha) == pytest.approx(
        -2.0 * x * value, rel=1e-7)
    assert riesz_second_derivative(big, x, alpha) == pytest.approx(
        (4.0 * x * x - 2.0) * value, rel=1e-7)


def test_stopping_test_does_not_resum_the_panels(monkeypatch):
    # A fast oscillation that 2000 panels cannot resolve.  Each split sums
    # the rule on two new panels (96 terms); re-summing every panel's value
    # and error after each split, as an O(panels^2) stopping test would,
    # reads about 6 million terms here.
    terms = 0
    fsum = math.fsum

    def counting_fsum(values):
        nonlocal terms
        values = list(values)
        terms += len(values)
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    wiggle = Function1D(value=lambda x: math.sin(1e4 * x))
    with pytest.raises(QuadratureError, match="after 2000 subdivisions"):
        regularized_integral(wiggle, 0.3, 0.5)
    assert terms <= 100 * 2000


def test_non_finite_integrand_fails_at_once():
    calls = 0

    def nan_beyond_one(x):
        nonlocal calls
        calls += 1
        return math.nan if x > 1.0 else 1.0

    with pytest.raises(QuadratureError, match="not finite"):
        regularized_integral(Function1D(value=nan_beyond_one), 0.0, 0.5)
    # The first panel only: the whole and its two halves, 24 nodes each, f
    # called at x + xi and x - xi per node.
    assert calls <= 3 * 24 * 2


def test_results_are_plain_floats():
    out = regularized_integral(GAUSS, 0.0, 0.5)
    assert isinstance(out, float) and not isinstance(out, np.floating)


OPERATOR_CALLS = {
    "integral": regularized_integral,
    "derivative": lambda f, x, alpha, quad: regularized_derivative(
        f, x, alpha, quad, form="derivative"),
    "difference": lambda f, x, alpha, quad: regularized_derivative(
        f, x, alpha, quad, form="difference"),
    "riesz": riesz_second_derivative,
}

# The default rel_tol of 1e-8 leaves the rule up to ~1.4e-9 (relative) from
# the true value where u^(1/alpha) is not smooth at u = 0, so the
# comparison runs both rules tighter than its 1e-10 gate.
TIGHT = QuadratureSpec(rel_tol=1e-10)
REFERENCE = QuadratureSpec(rel_tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(op=st.sampled_from(OPERATORS),
       f=st.sampled_from([GAUSS, XGAUSS]),
       alpha=st.floats(0.01, 0.99),
       x=st.floats(-2.0, 2.0))
def test_matches_scipy_quad(op, f, alpha, x):
    """Each operator is within 1e-10 relative of the same substituted
    integral done by scipy's QUADPACK.

    Near a zero of the value the gate is absolute: 1e-10 of the functions'
    unit scale, and 1e-9 for the Riesz operator, whose second difference
    carries rounding noise up to eps / _DIFF_FLOOR^2 ~ 2e-8 near the floor
    (at alpha = 0.255, x = 0 on the Gaussian both rules lie 7e-11 and
    2e-10 from a 30-digit value).
    """
    got = OPERATOR_CALLS[op](f, x, alpha, TIGHT)
    want = scipy_operator(op, f, x, alpha, REFERENCE)
    assume(want is not None)
    assert got == pytest.approx(want, rel=1e-10,
                                abs=1e-9 if op == "riesz" else 1e-10)
