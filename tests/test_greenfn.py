"""Tests for the reduced profiles, fitted expansions and kernels.

Independent references for the float64 profiles:
  * values frozen from an arbitrary-precision complex-contour
    evaluation of the Fourier integral; d = 2 at alpha = 0.5, r = 1 is
    a golden value on which two contour representations (real-axis
    Bessel route vs saddle-shifted contour) agreed to 1e-24,
  * the classical limit alpha = 1, where the profile collapses to the
    Gaussian (4 pi)^(-d/2) exp(-r^2/4) in every dimension,
  * the d = 1 profile at fractional order against the Mainardi (Wright
    type) function power series evaluated in high-precision arithmetic,
  * at alpha = 1/2, the Gaussian subordination integral
    (tests/test_measure.py).
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracloc.errors import ConfigError, FraclocError
from fracloc.greenfn import (
    GreenCoeffs,
    approx_fundamental,
    fit_green_coeffs,
    grad_approx_fundamental,
    log_reduced_green,
    reduced_green_oracle,
    reduced_green_series,
    s_kernel,
)

# Frozen oracle values (alpha = 0.5).  The d = 1 entries were verified
# against the Mainardi series to ~1e-19 before freezing; d = 2 at r = 1
# is the dual-contour golden value.
_FROZEN = {
    (1, 2.0): 0.08062554172729293,
    (1, 10.0): 6.354106558282873e-06,
    (2, 1.0): 0.06329119074984486,
    (2, 2.0): 0.020836302707015416,
    (2, 10.0): 9.390440093472615e-07,
    (2, 15.0): 4.86179694799507e-10,
    (3, 2.0): 0.0058646783651078,
    (3, 10.0): 1.404477765252992e-07,
}

# d = 2 away from alpha = 1/2 and 1, frozen from the same contour
# evaluation: (alpha, r) -> psi_2(r).
_FROZEN_D2 = {
    (0.35, 0.5): 0.12861001786008516,
    (0.35, 2.0): 0.019663872527653545,
    (0.35, 20.0): 6.0852408013117704e-12,
    (0.35, 80.0): 3.090723558667662e-53,
    (0.7, 0.5): 0.10430732987231954,
    (0.7, 2.0): 0.023117894976884726,
    (0.7, 20.0): 1.895636221410812e-18,
    (0.7, 80.0): 1.8144951785190313e-138,
}


def _mainardi_half(num: int, den: int, r: float, dps: int) -> mp.mpf:
    """(1/2) M_nu(r) with nu = num/den, by the defining power series.

    nu must be passed as an exact rational: a float nu makes the Gamma
    reflection terms miss the poles they should hit, and the huge
    cancelling partial sums amplify that into garbage.  Terms at Gamma
    poles vanish identically, so the stopping rule waits for several
    consecutive negligible terms.
    """
    with mp.workdps(dps):
        nu = mp.mpf(num) / den
        s = mp.mpf(0)
        tiny = 0
        for k in range(20000):
            t = mp.power(-r, k) / mp.factorial(k) * mp.rgamma(-nu * k + 1 - nu)
            s += t
            if abs(t) < mp.eps * (abs(s) + mp.mpf(10) ** (-300)):
                tiny += 1
                if tiny >= 8:
                    break
            else:
                tiny = 0
        return s / 2


class TestOracle:
    def test_frozen_values(self):
        for (d, r), ref in _FROZEN.items():
            got = reduced_green_oracle(d, 0.5, r)
            assert got == pytest.approx(ref, rel=1e-12), (d, r)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_classical_limit_is_gaussian(self, d):
        for r in (0.5, 3.0, 12.0):
            exact = (4.0 * math.pi) ** (-d / 2.0) * math.exp(-r * r / 4.0)
            got = reduced_green_oracle(d, 1.0, r)
            assert got == pytest.approx(exact, rel=1e-12), r

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_log_profile_at_range_ends(self, d):
        # at alpha = 1 psi_d underflows float64 from r ~ 54 and its log
        # must not; near r = 0.1 the phi integrand peaks sharply at pi
        for r in (0.1, 60.0, 80.0):
            exact = -0.5 * d * math.log(4.0 * math.pi) - r * r / 4.0
            assert abs(log_reduced_green(d, 1.0, r) - exact) <= 2e-12, r

    @pytest.mark.parametrize(
        "num,den,r,dps",
        [(1, 4, 2.0, 120), (1, 4, 10.0, 200), (7, 20, 3.5, 200)],
    )
    def test_mainardi_cross_check(self, num, den, r, dps):
        # psi_1(r; alpha) = (1/2) M_{alpha/2}(r); nu = num/den = alpha/2
        alpha = 2.0 * num / den
        ref = float(_mainardi_half(num, den, r, dps))
        got = reduced_green_oracle(1, alpha, r)
        assert got == pytest.approx(ref, rel=1e-11)

    def test_frozen_values_two_dimensional(self):
        for (alpha, r), ref in _FROZEN_D2.items():
            got = reduced_green_oracle(2, alpha, r)
            assert got == pytest.approx(ref, rel=1e-12), (alpha, r)

    def test_positive_and_decreasing(self):
        r = np.array([0.5, 1.0, 2.0, 4.0, 10.0])
        v = reduced_green_oracle(2, 0.5, r)
        assert v.shape == r.shape
        assert np.all(v > 0.0)
        assert np.all(np.diff(v) < 0.0)

    def test_scalar_input_returns_float(self):
        assert isinstance(reduced_green_oracle(2, 0.5, 2.0), float)

    @pytest.mark.parametrize("r", [1e-320, 1e-300])
    def test_underflowing_radius_is_a_fraclocerror(self, r):
        # r^q underflows to 0; the d = 2 Abel cut divides by it
        with pytest.raises(FraclocError):
            log_reduced_green(2, 0.5, r)
        with pytest.raises(FraclocError):
            reduced_green_oracle(2, 0.5, np.array([1.0, r]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            reduced_green_oracle(4, 0.5, 1.0)
        with pytest.raises(ConfigError):
            reduced_green_oracle(2, 0.0, 1.0)
        with pytest.raises(ConfigError):
            reduced_green_oracle(2, 1.2, 1.0)
        with pytest.raises(ConfigError):
            reduced_green_oracle(2, 0.5, 0.0)
        with pytest.raises(ConfigError):
            reduced_green_oracle(2, 0.5, -1.0)


class TestFit:
    def test_classical_coefficients_exact(self, coeffs_one):
        # alpha = 1: the expansion is a single Gaussian term with
        # a0 = 1/4, a1[0] = (4 pi)^(-1/2), a2[0] = (4 pi)^(-1)
        assert coeffs_one.a0 == pytest.approx(0.25, abs=1e-6)
        assert coeffs_one.a1[0] == pytest.approx((4.0 * math.pi) ** -0.5, rel=1e-6)
        assert coeffs_one.a2[0] == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-6)
        assert abs(coeffs_one.a1[1]) < 1e-6
        assert abs(coeffs_one.a2[1]) < 1e-6

    def test_half_order_decay_rate_matches_saddle_point(self, coeffs_half):
        # independent prediction of the decay rate from the stationary
        # phase point of the inversion integral:
        #   a0(alpha) = ((2-alpha)/2) * (alpha/2)^(alpha/(2-alpha))
        alpha = 0.5
        pred = ((2.0 - alpha) / 2.0) * (alpha / 2.0) ** (alpha / (2.0 - alpha))
        assert coeffs_half.a0 == pytest.approx(pred, abs=1e-5)
        assert coeffs_half.a1[0] > 0.0
        assert coeffs_half.a2[0] > 0.0

    def test_fit_is_memoized(self, coeffs_half):
        assert fit_green_coeffs(0.5) is coeffs_half

    def test_series_matches_oracle_at_moderate_radius(self, coeffs_half):
        for d in (1, 2):
            ref = _FROZEN[(d, 10.0)]
            got = reduced_green_series(coeffs_half, d, 3, 10.0)
            assert abs(got - ref) / ref < 1e-3, d

    def test_remainder_decay_slope(self, coeffs_half):
        # with 3 terms kept the first dropped term scales like r^(-3q),
        # q = 4/3 at alpha = 0.5, so the relative remainder should decay
        # with log-log slope near -4
        rs = np.geomspace(8.0, 30.0, 9)
        ref = reduced_green_oracle(2, 0.5, rs)
        ser = reduced_green_series(coeffs_half, 2, 3, rs)
        rel = np.abs(ser - ref) / ref
        slope = np.polyfit(np.log(rs), np.log(rel), 1)[0]
        assert -4.6 < slope < -3.4, slope

    def test_validation(self):
        with pytest.raises(ConfigError):
            fit_green_coeffs(1.5)


class TestSeries:
    def test_dimension_three_is_radial_derivative(self, coeffs_half):
        # psi_3(r) = -(2 pi r)^(-1) psi_1'(r), checked against a 5-point
        # finite-difference derivative of the d = 1 series.  The stencil
        # acts on log psi_1: differencing the raw values loses ~6 digits
        # to cancellation once psi_1 itself is ~1e-15 (r = 25), while the
        # log is O(10) with O(1) increments at every radius.
        for r in (4.0, 10.0, 25.0):
            h = 1e-3 * r
            lf = lambda x: math.log(reduced_green_series(coeffs_half, 1, 3, x))
            dlog = (-lf(r + 2 * h) + 8 * lf(r + h) - 8 * lf(r - h) + lf(r - 2 * h)) / (12 * h)
            d1 = reduced_green_series(coeffs_half, 1, 3, r) * dlog
            got = reduced_green_series(coeffs_half, 3, 3, r)
            ref = -d1 / (2.0 * math.pi * r)
            assert abs(got - ref) / abs(ref) < 1e-10, r

    @pytest.mark.parametrize("d", [2, 3])
    def test_gradient_identity(self, coeffs_half, d):
        # grad psi_d(x) = x S_d(|x|^2) implies psi_d'(r) = r S_d(r^2)
        for r in (1.5, 4.0, 8.0):
            h = 1e-4 * r
            f = lambda x: reduced_green_series(coeffs_half, d, 3, x)
            der = (-f(r + 2 * h) + 8 * f(r + h) - 8 * f(r - h) + f(r - 2 * h)) / (12 * h)
            sk = r * s_kernel(coeffs_half, d, 3, r * r)
            assert der == pytest.approx(sk, rel=1e-9), (d, r)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_gradient_profile_matches_written_out_sum(self, alpha, n):
        # S_{d,N}(y) exp(a0 y^p), p = 1/(2 - alpha), differentiated by hand
        # term by term: from the psi_2 series for d = 2, from the psi_1
        # series through psi_3 = -(2 pi r)^(-1) psi_1' for d = 3
        c = fit_green_coeffs(alpha)
        y = np.geomspace(1e-2, 1e4, 200)
        p = 1.0 / (2.0 - alpha)
        d2 = np.zeros_like(y)
        d3 = np.zeros_like(y)
        for k in range(n):
            d2 += c.a2[k] * (
                -c.a0 * p * y ** ((alpha - 1.0) * p) + (alpha - 1.0 - k) * p / y
            ) * y ** ((alpha - 1.0 - k) * p)
            d3 += c.a1[k] * (
                (2.0 * c.a0 * p) ** 2 * y ** ((5.0 * alpha - 5.0 - 2.0 * k) * p / 2.0)
                + 8.0 * c.a0 * (k + 1.0 - alpha) * p**2
                * y ** ((5.0 * alpha - 7.0 - 2.0 * k) * p / 2.0)
                + (2.0 * k + 1.0 - alpha) * (2.0 * k + 5.0 - 3.0 * alpha) * p**2
                * y ** ((5.0 * alpha - 9.0 - 2.0 * k) * p / 2.0)
            )
        decay = np.exp(-c.a0 * y**p)
        np.testing.assert_allclose(s_kernel(c, 2, n, y), decay * 2.0 * d2, rtol=1e-13)
        np.testing.assert_allclose(s_kernel(c, 3, n, y), -decay * d3 / (2.0 * math.pi), rtol=1e-13)

    def test_classical_gradient_profile_exact(self, coeffs_one):
        # grad of (4 pi)^(-1) exp(-|x|^2/4) is x * (-(8 pi)^(-1) exp(-y/4))
        y = np.array([0.5, 1.0, 4.0, 25.0])
        exact = -np.exp(-y / 4.0) / (8.0 * math.pi)
        got = s_kernel(coeffs_one, 2, 1, y)
        np.testing.assert_allclose(got, exact, rtol=1e-12)

    def test_first_order_gradient_profile_negative(self, coeffs_half):
        y = np.logspace(-2, 4, 121)
        assert np.all(s_kernel(coeffs_half, 2, 1, y) < 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gradient_profile_negative_far_out_3d(self, coeffs_half, n):
        y = np.logspace(2, 4.5, 61)
        assert np.all(s_kernel(coeffs_half, 3, n, y) < 0.0)
        # beyond y ~ 6e4 the exponential factor underflows float64 and the
        # value degenerates to -0.0; the sign bit still never flips
        tail = s_kernel(coeffs_half, 3, n, np.logspace(4.5, 6, 13))
        assert np.all(np.signbit(tail))

    @given(
        logy=st.floats(2.0, 4.5),
        n=st.integers(1, 3),
        d=st.sampled_from([2, 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_gradient_profile_sign_property(self, logy, n, d):
        coeffs = fit_green_coeffs(0.5)
        assert s_kernel(coeffs, d, n, 10.0**logy) < 0.0

    def test_series_positive_on_working_range(self, coeffs_half):
        r = np.geomspace(1.0, 60.0, 40)
        for d in (1, 2, 3):
            assert np.all(reduced_green_series(coeffs_half, d, 3, r) > 0.0), d

    def test_validation(self, coeffs_half):
        with pytest.raises(ConfigError):
            reduced_green_series(coeffs_half, 2, 3, -1.0)
        with pytest.raises(ConfigError):
            reduced_green_series(coeffs_half, 4, 3, 1.0)
        with pytest.raises(ConfigError):
            reduced_green_series(coeffs_half, 2, 0, 1.0)
        with pytest.raises(ConfigError):
            reduced_green_series(coeffs_half, 2, 99, 1.0)
        with pytest.raises(ConfigError):
            s_kernel(coeffs_half, 1, 1, 1.0)
        with pytest.raises(ConfigError):
            s_kernel(coeffs_half, 2, 1, 0.0)


class TestSpaceTimeKernel:
    def test_scaling_relation(self, coeffs_half):
        # value(x, t) = lam^(-d/2) psi_d(|x - src| / sqrt(lam)),
        # lam = gamma0 (t - t0)^alpha
        src = np.array([0.3, -0.1])
        x = np.array([2.0, 1.5])
        t, t0, gamma0 = 1.3, 0.2, 2.0
        lam = gamma0 * (t - t0) ** 0.5
        rr = np.linalg.norm(x - src) / math.sqrt(lam)
        ref = reduced_green_series(coeffs_half, 2, 3, rr) * lam ** (-1.0)
        got = approx_fundamental(coeffs_half, 2, 3, x, t, src, t0=t0, gamma0=gamma0)
        assert got == pytest.approx(ref, rel=1e-13)

    def test_classical_kernel_is_heat_kernel(self, coeffs_one):
        # alpha = 1 with one term reproduces the heat kernel
        # (4 pi g t)^(-d/2) exp(-|x - src|^2 / (4 g t)) to fit accuracy
        src = np.array([0.1, -0.2, 0.05])
        x = np.array([1.0, 0.7, -0.4])
        t, g = 0.8, 1.7
        rho2 = float(((x - src) ** 2).sum())
        exact = (4.0 * math.pi * g * t) ** -1.5 * math.exp(-rho2 / (4.0 * g * t))
        got = approx_fundamental(coeffs_one, 3, 1, x, t, src, gamma0=g)
        assert got == pytest.approx(exact, rel=1e-9)

    def test_batch_shapes(self, coeffs_half):
        src = np.zeros(2)
        xs = np.array([[1.0, 0.5], [2.0, -1.0], [0.7, 0.7], [3.0, 0.0], [1.5, 1.5]])
        vals = approx_fundamental(coeffs_half, 2, 3, xs, 1.0, src)
        grads = grad_approx_fundamental(coeffs_half, 2, 3, xs, 1.0, src)
        assert vals.shape == (5,)
        assert grads.shape == (5, 2)
        one = approx_fundamental(coeffs_half, 2, 3, xs[1], 1.0, src)
        gone = grad_approx_fundamental(coeffs_half, 2, 3, xs[1], 1.0, src)
        assert one == pytest.approx(vals[1])
        assert gone.shape == (2,)
        np.testing.assert_allclose(gone, grads[1])

    def test_gradient_finite_difference(self, coeffs_half):
        src = np.array([0.2, -0.3])
        x = np.array([1.4, 0.9])
        t = 0.7
        g = grad_approx_fundamental(coeffs_half, 2, 3, x, t, src)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            num = (
                approx_fundamental(coeffs_half, 2, 3, x + e, t, src)
                - approx_fundamental(coeffs_half, 2, 3, x - e, t, src)
            ) / (2 * h)
            assert g[i] == pytest.approx(num, rel=1e-6), i

    def test_requires_time_after_pole(self, coeffs_half):
        with pytest.raises(ConfigError):
            approx_fundamental(coeffs_half, 2, 3, np.ones(2), 0.5, np.zeros(2), t0=0.5)
        with pytest.raises(ConfigError):
            grad_approx_fundamental(coeffs_half, 2, 3, np.ones(2), 0.2, np.zeros(2), t0=0.5)
        # one violating time inside an array of times is enough
        times = np.array([0.9, 0.7, 0.5])
        with pytest.raises(ConfigError):
            approx_fundamental(coeffs_half, 2, 3, np.ones(2), times, np.zeros(2), t0=0.5)
        with pytest.raises(ConfigError):
            grad_approx_fundamental(coeffs_half, 2, 3, np.ones((3, 2)), times, np.zeros(2), t0=0.5)

    @pytest.mark.parametrize("one_point", [False, True])
    def test_array_of_times_matches_scalar_calls(self, coeffs_half, one_point):
        src = np.array([2.0, 0.5])
        xs = np.array([[0.3, 0.1], [-0.8, 0.4], [0.0, -1.0]])
        x = xs[0] if one_point else xs
        times = np.linspace(0.05, 1.0, 9)
        for kernel in (approx_fundamental, grad_approx_fundamental):
            got = kernel(coeffs_half, 2, 3, x, times, src, t0=-0.01, gamma0=1.5)
            ref = np.stack(
                [kernel(coeffs_half, 2, 3, x, t, src, t0=-0.01, gamma0=1.5) for t in times]
            )
            assert got.shape == (len(times),) + ref.shape[1:]
            np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)

    def test_pole_is_a_config_error(self, coeffs_half):
        src = np.array([0.3, -0.2])
        batch = np.array([[1.0, 1.0], src])
        for kernel in (approx_fundamental, grad_approx_fundamental):
            with pytest.raises(ConfigError, match="pole"):
                kernel(coeffs_half, 2, 3, src, 0.5, src)
            with pytest.raises(ConfigError, match="pole"):
                kernel(coeffs_half, 2, 3, batch, np.array([0.2, 0.5]), src, t0=-0.01)

    def test_stack_of_poles_matches_per_pole_calls(self, coeffs_half):
        # the data matrix evaluates every source's kernel in one call
        poles = 2.0 * np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]])
        xs = np.array([[0.3, 0.1], [-0.8, 0.4], [0.0, -1.0], [0.6, 0.8]])
        for kernel in (approx_fundamental, grad_approx_fundamental):
            got = kernel(coeffs_half, 2, 3, xs, 0.4, poles[:, None, :], t0=-0.01, gamma0=1.5)
            ref = np.stack(
                [kernel(coeffs_half, 2, 3, xs, 0.4, src, t0=-0.01, gamma0=1.5) for src in poles]
            )
            np.testing.assert_array_equal(got, ref)


class TestGreenCoeffs:
    def test_validation(self):
        good = dict(alpha=0.5, a0=0.47, a1=(0.36,), a2=(0.11,))
        GreenCoeffs(**good)
        with pytest.raises(ConfigError):
            GreenCoeffs(**{**good, "alpha": 1.5})
        with pytest.raises(ConfigError):
            GreenCoeffs(**{**good, "a0": 1.5})
        with pytest.raises(ConfigError):
            GreenCoeffs(**{**good, "a1": ()})
        with pytest.raises(ConfigError):
            GreenCoeffs(**{**good, "a2": (-0.1,)})
