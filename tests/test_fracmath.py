"""Tests for the fractional-calculus primitives.

Oracle route: monomials, whose Caputo derivatives and Riemann-Liouville
integrals are explicit power laws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from fracloc.errors import ConfigError
from fracloc.fracmath import (
    TimeGrid,
    caputo_l1_apply,
    l1_weights,
    rl_integral,
)


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(4, 2.0)
        assert g.dt == pytest.approx(0.5)
        np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_validation(self):
        with pytest.raises(ConfigError):
            TimeGrid(0, 1.0)
        with pytest.raises(ConfigError):
            TimeGrid(4, -1.0)


class TestL1Weights:
    def test_values(self):
        b = l1_weights(0.5, 4)
        ref = [(i + 1) ** 0.5 - i**0.5 for i in range(4)]
        np.testing.assert_allclose(b, ref, rtol=1e-14)

    def test_positive_decreasing(self):
        b = l1_weights(0.3, 50)
        assert np.all(b > 0)
        assert np.all(np.diff(b) < 0)

    def test_alpha_one_is_backward_euler(self):
        # only the most recent difference survives in the classical limit
        np.testing.assert_allclose(l1_weights(1.0, 6), [1, 0, 0, 0, 0, 0])

    def test_alpha_near_one_continuity(self):
        near = l1_weights(1.0 - 1e-12, 6)
        np.testing.assert_allclose(near, [1, 0, 0, 0, 0, 0], atol=1e-10)


class TestCaputoL1:
    def test_derivative_of_t_frozen(self):
        # d^alpha/dt^alpha t = t^(1-alpha)/Gamma(2-alpha); at t=1, alpha=1/2
        # the exact value is 1/Gamma(1.5) = 1.1283791671
        grid = TimeGrid(2**10, 1.0)
        w = grid.nodes.copy()
        d = caputo_l1_apply(0.5, w, grid)
        assert d[-1] == pytest.approx(1.1283791671, abs=1e-3)

    def test_derivative_of_t_squared(self):
        # exact: 2 t^(2-alpha)/Gamma(3-alpha); at t=1, alpha=0.5: 2/Gamma(2.5)
        grid = TimeGrid(2**11, 1.0)
        w = grid.nodes**2
        d = caputo_l1_apply(0.5, w, grid)
        assert d[-1] == pytest.approx(1.5045055561, rel=2e-3)
        t = grid.nodes[1:]
        exact = 2.0 * t**1.5 / gamma(2.5)
        # interior accuracy degrades mildly near t=0 only
        rel = np.abs(d[16:] - exact[16:]) / exact[16:]
        assert rel.max() < 5e-3

    def test_constant_has_zero_derivative(self):
        grid = TimeGrid(64, 2.0)
        d = caputo_l1_apply(0.4, np.full(65, 3.7), grid)
        np.testing.assert_allclose(d, 0.0, atol=1e-14)

    def test_alpha_one_matches_backward_difference(self):
        grid = TimeGrid(128, 1.0)
        w = np.sin(grid.nodes)
        d = caputo_l1_apply(1.0, w, grid)
        np.testing.assert_allclose(d, np.diff(w) / grid.dt, rtol=1e-12)

    @given(
        alpha=st.floats(0.1, 0.99),
        c1=st.floats(-3, 3),
        c2=st.floats(-3, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, alpha, c1, c2):
        grid = TimeGrid(32, 1.0)
        t = grid.nodes
        w1 = np.cos(2 * t)
        w2 = t**1.5
        lhs = caputo_l1_apply(alpha, c1 * w1 + c2 * w2, grid)
        rhs = c1 * caputo_l1_apply(alpha, w1, grid) + c2 * caputo_l1_apply(alpha, w2, grid)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * (1 + abs(c1) + abs(c2)))

    def test_stacked_signals(self):
        grid = TimeGrid(16, 1.0)
        w = np.stack([grid.nodes, grid.nodes**2], axis=1)
        d = caputo_l1_apply(0.6, w, grid)
        d0 = caputo_l1_apply(0.6, w[:, 0], grid)
        d1 = caputo_l1_apply(0.6, w[:, 1], grid)
        np.testing.assert_allclose(d[:, 0], d0)
        np.testing.assert_allclose(d[:, 1], d1)

    def test_shape_mismatch(self):
        grid = TimeGrid(8, 1.0)
        with pytest.raises(ConfigError):
            caputo_l1_apply(0.5, np.zeros(8), grid)


class TestRLIntegral:
    def test_integral_of_one(self):
        # I^alpha 1 = t^alpha / Gamma(1+alpha), exact for piecewise linear
        grid = TimeGrid(50, 2.0)
        out = rl_integral(0.5, np.ones(51), grid)
        t = grid.nodes
        np.testing.assert_allclose(out, t**0.5 / gamma(1.5), rtol=1e-12)

    def test_integral_of_t(self):
        # I^alpha t = t^(1+alpha)/Gamma(2+alpha), again exact
        grid = TimeGrid(37, 1.0)
        out = rl_integral(0.7, grid.nodes.copy(), grid)
        t = grid.nodes
        np.testing.assert_allclose(out, t**1.7 / gamma(2.7), rtol=1e-12)

    def test_alpha_one_is_trapezoid(self):
        grid = TimeGrid(64, 1.0)
        w = np.exp(grid.nodes)
        out = rl_integral(1.0, w, grid)
        ref = np.concatenate(
            [[0.0], np.cumsum(0.5 * grid.dt * (w[1:] + w[:-1]))]
        )
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    @given(alpha=st.floats(0.1, 1.0), c=st.floats(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, alpha, c):
        grid = TimeGrid(24, 1.5)
        w = np.sin(grid.nodes)
        lhs = rl_integral(alpha, c * w, grid)
        rhs = c * rl_integral(alpha, w, grid)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * (1 + abs(c)))


class TestFundamentalTheorem:
    """I^alpha (D^alpha w) + w(0) recovers w for smooth w."""

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_round_trip(self, alpha):
        grid = TimeGrid(2**9, 1.0)
        t = grid.nodes
        w = 1.3 + np.sin(2.0 * t) + 0.5 * t**2
        d = caputo_l1_apply(alpha, w, grid)
        # prepend the t=0 limit (zero for differentiable w)
        d_full = np.concatenate([[0.0], d])
        rec = rl_integral(alpha, d_full, grid) + w[0]
        err = np.abs(rec - w).max() / np.abs(w).max()
        assert err < 1e-2

    def test_round_trip_refines(self):
        alpha = 0.5
        errs = []
        for n in (64, 256, 1024):
            grid = TimeGrid(n, 1.0)
            w = np.cos(grid.nodes) + grid.nodes
            d = np.concatenate([[0.0], caputo_l1_apply(alpha, w, grid)])
            rec = rl_integral(alpha, d, grid) + w[0]
            errs.append(np.abs(rec - w).max())
        assert errs[2] < errs[1] < errs[0]


class TestAlikhanovInequality:
    """Discrete fractional product rule sign: w D^alpha w >= (1/2) D^alpha w^2."""

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_pointwise_nonnegative(self, alpha):
        grid = TimeGrid(512, 1.0)
        t = grid.nodes
        for w in (np.sin(3 * t) + 0.2, t**1.5 - 0.4, np.exp(-t) * np.cos(5 * t)):
            lhs = w[1:] * caputo_l1_apply(alpha, w, grid)
            rhs = 0.5 * caputo_l1_apply(alpha, w**2, grid)
            assert np.min(lhs - rhs) >= -1e-6

    @given(
        alpha=st.floats(0.15, 0.95),
        a=st.floats(-2, 2),
        b=st.floats(-2, 2),
        freq=st.floats(0.5, 6.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_random_smooth(self, alpha, a, b, freq):
        grid = TimeGrid(256, 1.0)
        t = grid.nodes
        w = a * np.sin(freq * t) + b * np.cos(0.5 * freq * t)
        lhs = w[1:] * caputo_l1_apply(alpha, w, grid)
        rhs = 0.5 * caputo_l1_apply(alpha, w**2, grid)
        assert np.min(lhs - rhs) >= -1e-6 * max(1.0, np.abs(w).max() ** 2)
