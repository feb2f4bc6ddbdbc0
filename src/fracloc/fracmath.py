"""Fractional-calculus primitives on uniform time grids.

The uniform time grid and the L1 scale and weights (``l1_constants``,
the one copy of beta = dt^(-alpha) / Gamma(2 - alpha)) drive the forward
march; the L1 Caputo derivative and the Riemann-Liouville integral built
on them are the discrete operators the acceptance criteria check against
monomials.  Everything here is scalar/ndarray numpy code with ``math.gamma``
(nothing from SciPy); no mesh or PDE knowledge.
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

from .errors import ConfigError

__all__ = [
    "TimeGrid",
    "l1_weights",
    "l1_constants",
    "caputo_l1_apply",
    "rl_integral",
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


def l1_constants(alpha: float, grid: TimeGrid):
    """The L1 scale beta = dt^(-alpha) / Gamma(2 - alpha) and the weights b.

    The L1 derivative at t_j is beta * sum_{k=1}^{j} b_{j-k} (w_k - w_{k-1});
    the forward march and caputo_l1_apply both take beta and b from here.
    """
    _check_alpha(alpha)
    beta = grid.dt ** (-alpha) / math.gamma(2.0 - alpha)
    return beta, l1_weights(alpha, grid.n_steps)


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
    scale, b = l1_constants(alpha, grid)
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
    inv_gamma = 1.0 / math.gamma(alpha)
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
