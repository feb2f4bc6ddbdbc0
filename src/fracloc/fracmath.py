"""Fractional-calculus primitives on uniform time grids.

Everything here is scalar/ndarray numpy code; no mesh or PDE knowledge.
Conventions:

* the fractional order ``alpha`` lives in (0, 1); ``alpha = 1`` is accepted
  so that classical limits can be checked against ordinary calculus,
* time grids are uniform on [0, t_final] with ``n_steps`` intervals,
* sampled functions are arrays of nodal values ``w[i] = w(t_i)``,
  ``i = 0 .. n_steps``.

The Caputo derivative is discretized with the standard piecewise-linear
(L1) scheme, the Riemann-Liouville integral by exact integration of the
power-law kernel against the piecewise-linear interpolant.  The two are
discrete near-inverses of each other, which is exercised in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as _gamma

from .errors import ConfigError

__all__ = [
    "TimeGrid",
    "FracOrder",
    "l1_weights",
    "caputo_l1_apply",
    "rl_integral",
    "mittag_leffler",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_final] with n_steps intervals (n_steps+1 nodes)."""

    n_steps: int
    t_final: float

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (self.t_final > 0.0) or not math.isfinite(self.t_final):
            raise ConfigError(f"t_final must be positive and finite, got {self.t_final}")

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_steps + 1)

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid-rule weights of the nodes."""
        w = np.full(self.n_steps + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w


@dataclass(frozen=True)
class FracOrder:
    """Validated fractional order.

    ``allow_one`` exists only so that classical-limit checks (alpha = 1,
    where the Caputo derivative degenerates to d/dt and the L1 scheme to
    backward Euler) can reuse the same code paths.
    """

    alpha: float
    allow_one: bool = False

    def __post_init__(self) -> None:
        hi_ok = self.alpha < 1.0 or (self.allow_one and self.alpha == 1.0)
        if not (0.0 < self.alpha and hi_ok):
            raise ConfigError(
                f"fractional order must lie in (0, 1)"
                f"{' or equal 1' if self.allow_one else ''}, got {self.alpha}"
            )


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")


def l1_weights(alpha: float, n: int) -> np.ndarray:
    """Convolution weights b_i = (i+1)^(1-alpha) - i^(1-alpha), i = 0..n-1.

    These multiply backward differences in the L1 scheme.  For alpha < 1
    they are strictly positive and decreasing; in the limit alpha -> 1 they
    degenerate to (1, 0, 0, ...) and the scheme reduces to backward Euler.
    (0^(1-alpha) is 0 for every alpha <= 1 here, so the i = 0 entry needs
    care at alpha = 1 where numpy would evaluate 0**0 = 1.)
    """
    _check_alpha(alpha)
    i = np.arange(n, dtype=float)
    e = 1.0 - alpha
    lead = (i + 1.0) ** e
    trail = np.where(i == 0, 0.0, i**e)
    return lead - trail


def caputo_l1_apply(alpha: float, values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """L1 approximation of the Caputo derivative of order alpha.

    Parameters
    ----------
    alpha : fractional order in (0, 1].
    values : nodal samples w(t_0) .. w(t_n), shape (n+1,) or (n+1, m) for
        m stacked signals sharing the grid.
    grid : the uniform grid the samples live on.

    Returns
    -------
    Array of shape (n,) (or (n, m)): the discrete derivative at the
    interior nodes t_1 .. t_n.  There is no L1 value at t_0.
    """
    _check_alpha(alpha)
    w = np.asarray(values, dtype=float)
    n = grid.n_steps
    if w.shape[0] != n + 1:
        raise ConfigError(
            f"values has leading dimension {w.shape[0]}, expected n_steps+1 = {n + 1}"
        )
    tau = grid.dt
    scale = tau ** (-alpha) / _gamma(2.0 - alpha)
    b = l1_weights(alpha, n)
    dw = np.diff(w, axis=0)  # dw[k] = w_{k+1} - w_{k}, k = 0..n-1
    out = np.empty_like(dw)
    for j in range(1, n + 1):
        # sum_{k=1}^{j} b_{j-k} (w_k - w_{k-1})
        wts = b[j - 1 :: -1]
        out[j - 1] = scale * np.tensordot(wts, dw[:j], axes=(0, 0))
    return out


def rl_integral(alpha: float, values: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Riemann-Liouville fractional integral of order alpha.

    (I^alpha w)(t_i) = (1/Gamma(alpha)) int_0^{t_i} (t_i - s)^(alpha - 1) w(s) ds,
    computed exactly for the piecewise-linear interpolant of the samples.
    Returns nodal values at t_0 .. t_n (zero at t_0).
    """
    _check_alpha(alpha)
    w = np.asarray(values, dtype=float)
    n = grid.n_steps
    if w.shape[0] != n + 1:
        raise ConfigError(
            f"values has leading dimension {w.shape[0]}, expected n_steps+1 = {n + 1}"
        )
    tau = grid.dt
    out = np.zeros_like(w)
    inv_gamma = 1.0 / _gamma(alpha)
    for i in range(1, n + 1):
        # interval [t_k, t_{k+1}] contributes with sigma = t_i - s in [B, A]
        k = np.arange(i)
        A = (i - k) * tau
        B = (i - k - 1) * tau
        I0 = (A**alpha - B**alpha) / alpha
        I1 = (A ** (alpha + 1.0) - B ** (alpha + 1.0)) / (alpha + 1.0)
        cl = (I1 - B * I0) / tau  # weight of w_k
        cr = (A * I0 - I1) / tau  # weight of w_{k+1}
        out[i] = inv_gamma * (
            np.tensordot(cl, w[:i], axes=(0, 0)) + np.tensordot(cr, w[1 : i + 1], axes=(0, 0))
        )
    return out


# ---------------------------------------------------------------------------
# Mittag-Leffler function on the closed negative real axis
# ---------------------------------------------------------------------------
#
# Three regimes, switched on |z|:
#   * power series for small |z| (the radius is kept small enough that the
#     alternating-series cancellation stays below ~1e2, so float64 keeps
#     ~1e-14 relative accuracy),
#   * the completely-monotone spectral representation in the middle:
#       E_a(-x) = int_0^inf exp(-x^(1/a) w) K_a(w) dw,
#       K_a(w) = (sin(pi a)/pi) w^(a-1) / (w^(2a) + 2 cos(pi a) w^a + 1),
#     evaluated after w = e^u substitution by a uniform trapezoid rule whose
#     exponential convergence rate follows from the pole-free strip of the
#     integrand (width ~ pi (1-a)/a, shrinking as a -> 1),
#   * the algebraic asymptotic series for large |z| with adaptive truncation.
# The boundaries (series radius, asymptotic radius 40) follow from accuracy
# experiments recorded in the test suite.

_ASYMPTOTIC_RADIUS = 40.0


def _ml_series(alpha: float, x: np.ndarray) -> np.ndarray:
    """Power series sum_k (-x)^k / Gamma(alpha k + 1) for small x >= 0."""
    out = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(1, 200):
        term = term * (-x) / 1.0
        coeff = _gamma(alpha * (k - 1) + 1.0) / _gamma(alpha * k + 1.0)
        term = term * coeff
        out = out + term
        if np.all(np.abs(term) < 1e-18 * np.maximum(np.abs(out), 1e-30)):
            break
    return out


def _ml_asymptotic(alpha: float, x: np.ndarray) -> np.ndarray:
    """Algebraic expansion sum_{k>=1} (-1)^(k+1) x^(-k) / Gamma(1 - alpha k)."""
    out = np.zeros_like(x)
    last = np.full_like(x, np.inf)
    active = np.ones(x.shape, dtype=bool)
    for k in range(1, 120):
        g = _gamma(1.0 - alpha * k)
        if not np.isfinite(g) or g == 0.0:
            continue
        term = (-1.0) ** (k + 1) * x ** (-float(k)) / g
        grow = np.abs(term) > last
        active &= ~grow
        out = np.where(active, out + term, out)
        last = np.where(active, np.abs(term), last)
        if np.all(last < 1e-17 * np.abs(out)):
            break
    return out


def _ml_spectral(alpha: float, x: np.ndarray) -> np.ndarray:
    """Trapezoid rule on the exp-substituted spectral integral, vectorized."""
    c = math.cos(math.pi * alpha)
    s = math.sin(math.pi * alpha)
    strip = min(math.pi * (1.0 - alpha) / alpha, 1.4)
    h = 0.18 * strip
    umin = -(46.0 / alpha) - 10.0
    umax = math.log(46.0) - min(0.0, np.log(np.min(x)) / alpha)
    n = int(math.ceil((umax - umin) / h)) + 1
    if n > 400_000:
        # extremely flat strip (alpha ~ 1); fall back to adaptive quadrature
        return np.array([_ml_spectral_scalar(alpha, float(v)) for v in np.atleast_1d(x)])
    u = umin + h * np.arange(n)
    eu = np.exp(u)
    den = 2.0 * np.cosh(alpha * u) + 2.0 * c
    xa = x ** (1.0 / alpha)
    with np.errstate(over="ignore"):
        arg = np.minimum(np.outer(np.atleast_1d(xa), eu), 745.0)
    vals = np.exp(-arg) / den
    return s / math.pi * h * vals.sum(axis=1)


def _ml_spectral_scalar(alpha: float, x: float) -> float:
    c = math.cos(math.pi * alpha)
    s = math.sin(math.pi * alpha)
    xa = x ** (1.0 / alpha)

    def f(u: float) -> float:
        au = alpha * u
        if abs(au) > 350.0:
            return 0.0
        ex = xa * math.exp(u) if u < 700.0 else float("inf")
        if ex > 700.0:
            return 0.0
        return math.exp(-ex) / (2.0 * math.cosh(au) + 2.0 * c)

    v1, _ = quad(f, -np.inf, 0.0, limit=400, epsabs=1e-17, epsrel=1e-13)
    v2, _ = quad(f, 0.0, np.inf, limit=400, epsabs=1e-17, epsrel=1e-13)
    return s / math.pi * (v1 + v2)


def mittag_leffler(alpha: float, z):
    """E_alpha(z) for z <= 0 and alpha in (0, 1].

    Accepts a scalar or an ndarray; relative accuracy is ~1e-12 across the
    supported domain (the contract requires 1e-10).  Positive arguments are
    rejected: only the completely monotone branch is needed here.
    """
    _check_alpha(alpha)
    z_arr = np.asarray(z, dtype=float)
    scalar_in = z_arr.ndim == 0
    z_flat = np.atleast_1d(z_arr).ravel()
    if np.any(z_flat > 0.0):
        raise ConfigError("mittag_leffler is only defined here for z <= 0")
    if not np.all(np.isfinite(z_flat)):
        raise ConfigError("mittag_leffler given non-finite argument")

    if alpha == 1.0:
        out = np.exp(z_flat)
        return float(out[0]) if scalar_in else out.reshape(z_arr.shape)

    x = -z_flat
    out = np.empty_like(x)
    series_radius = min(1.5, 11.0**alpha)

    small = x <= series_radius
    large = x >= _ASYMPTOTIC_RADIUS
    mid = ~small & ~large
    if np.any(small):
        out[small] = _ml_series(alpha, x[small])
    if np.any(large):
        out[large] = _ml_asymptotic(alpha, x[large])
    if np.any(mid):
        out[mid] = _ml_spectral(alpha, x[mid])
    return float(out[0]) if scalar_in else out.reshape(z_arr.shape)
