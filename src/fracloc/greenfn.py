"""Reduced fundamental-solution profiles for subdiffusion.

The free-space fundamental solution of the subdiffusion operator with
constant conductivity gamma0 separates into a time scale factor and a
radial profile ("reduced" profile) of the similarity variable
x / sqrt(gamma0 t^alpha).  The profile in d dimensions is the radial
inverse Fourier transform of xi -> E_alpha(-|xi|^2):

    psi_d(r) = (2 pi)^(-d) int_{R^d} E_alpha(-|xi|^2) e^(i xi.x) dxi,  r = |x|.

This module provides:

* ``log_reduced_green`` / ``reduced_green_oracle``: log psi_d and psi_d
  for d = 1, 2, 3 by fixed Gauss-Legendre quadrature in float64 (the
  reference the fitted expansion is checked against),
* ``fit_green_coeffs`` / ``GreenCoeffs``: the decay rate a0 and the
  coefficients of the large-argument asymptotic expansion, recovered
  numerically by regression against the profiles,
* ``reduced_green_series``: the truncated asymptotic expansion,
* ``s_kernel``: the scalar profile S_{d,N} of the expansion's gradient,
  grad psi_{d,N}(x) = x S_{d,N}(|x|^2),
* ``approx_fundamental`` / ``grad_approx_fundamental``: space-time
  kernels built from the truncated expansion by the similarity scaling.

Numerical notes on the profiles.  psi_1 = M_nu / 2 with nu = alpha/2,
where M_nu is the M-Wright function, and Zolotarev's integral for the
one-sided stable density gives it as a smooth positive integral,

    psi_1(r) = r^p / (2 pi (1-nu)) int_0^pi A(phi) exp(-r^q A(phi)) dphi,
    A(phi) = sin(nu phi)^p sin((1-nu) phi) / sin(phi)^q,

with p = nu/(1-nu) and q = 1/(1-nu) (Zolotarev, One-dimensional Stable
Distributions, AMS 1986; Saa and Venegeroles, PRE 84 (2011) 026702).
A increases from a0 = A(0+) = nu^p (1-nu), which is also the decay
rate of the profiles, so exp(-a0 r^q) is factored out of every
integrand and log psi keeps full relative accuracy where psi itself
underflows (alpha = 1, r > ~54).  Differentiating under the integral
gives psi_1', hence psi_3(r) = -psi_1'(r) / (2 pi r), and psi_2 is the
Abel transform psi_2(r) = -(1/pi) int_0^inf psi_1'(r cosh u) du, cut
where the integrand has fallen by exp(-80).  Nothing depends on alpha
by branch: at alpha = 1, A = 1 / (4 cos^2(phi/2)) and the integrals
reproduce the Gaussian.  The independent references in the tests are
values frozen from a dual-contour arbitrary-precision evaluation, the
Mainardi power series, the alpha = 1/2 subordination integral and the
Gaussian limit.  Against adaptive quadrature the fixed rules agree to
5e-13 over alpha in [0.1, 1] and r in [0.1, 80], and to 6e-10 at
r = 0.03; the error grows below that (6e-6 at alpha = 1, r = 0.01).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, QuadratureError
from .fracmath import _check_alpha

__all__ = [
    "GreenCoeffs",
    "MAX_SERIES_TERMS",
    "log_reduced_green",
    "reduced_green_oracle",
    "fit_green_coeffs",
    "reduced_green_series",
    "s_kernel",
    "approx_fundamental",
    "grad_approx_fundamental",
]

MAX_SERIES_TERMS = 5


# ---------------------------------------------------------------------------
# Reduced profiles: Zolotarev's integral and its Abel transform
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(256)
_UNIT = 0.5 * (_GL_X + 1.0)  # nodes on (0, 1)
_UNIT_W = 0.5 * _GL_W
# phi = pi v^2 (3 - 2v) packs the nodes quadratically into both ends of
# (0, pi): at large r the phi integrand narrows to width ~r^(-q/2) at 0,
# at small r to width ~r at pi
_PHI = math.pi * _UNIT**2 * (3.0 - 2.0 * _UNIT)
_PHI_W = 6.0 * math.pi * _UNIT * (1.0 - _UNIT) * _UNIT_W
_ABEL_TAIL = 80.0  # log of the integrand's decay at the Abel cut


def _log_psi(d: int, alpha: float, r: float) -> float:
    """log psi_d(r) at one radius; see the module docstring."""
    nu = 0.5 * alpha
    p = nu / (1.0 - nu)
    q = 1.0 / (1.0 - nu)
    A = np.sin(nu * _PHI) ** p * np.sin((1.0 - nu) * _PHI) / np.sin(_PHI) ** q
    a0 = nu**p * (1.0 - nu)
    c = 1.0 / (2.0 * math.pi * (1.0 - nu))
    rq = r**q
    if d == 2:
        if not a0 * rq > 0.0:  # the cut below divides by it
            raise QuadratureError(f"radius r={r} too small for the d=2 profile at alpha={alpha}")
        # s = r cosh u up to the cut a0 (s^q - r^q) = _ABEL_TAIL
        span = math.acosh((1.0 + _ABEL_TAIL / (a0 * rq)) ** (1.0 / q))
        s = r * np.cosh(span * _UNIT)
    else:
        s = np.array([r])
    sq = s**q
    # rows: exp(-s^q A) / exp(-a0 s^q) times the phi weights, one row per s
    e = np.exp(-np.multiply.outer(sq, A - a0)) * _PHI_W
    j = e @ A
    if d == 1:
        head = c * r**p * j[0]
    else:
        # -psi_1'(s) exp(a0 s^q)
        slope = c * s ** (p - 1.0) * (q * sq * (e @ (A * A)) - p * j)
        if d == 3:
            head = slope[0] / (2.0 * math.pi * r)
        else:
            head = span * _UNIT_W @ (slope * np.exp(-a0 * (sq - rq))) / math.pi
    if not 0.0 < head < math.inf:
        raise QuadratureError(f"profile quadrature failed at d={d}, alpha={alpha}, r={r}")
    return -a0 * rq + math.log(head)


def log_reduced_green(d: int, alpha: float, r) -> float | np.ndarray:
    """log psi_d(r) for d in {1, 2, 3}, alpha in (0, 1]; scalar or array r.

    Finite where psi_d itself underflows float64.  One radius is one
    fixed quadrature (a 256 x 256 node product rule for d = 2), so large
    tables are evaluated radius by radius rather than as one array.
    """
    if d not in (1, 2, 3):
        raise ConfigError(f"dimension must be 1, 2 or 3, got {d}")
    _check_alpha(alpha)
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr > 0.0):
        raise ConfigError(f"radius must be positive, got {r}")
    if r_arr.ndim == 0:
        return _log_psi(d, alpha, float(r_arr))
    vals = [_log_psi(d, alpha, float(v)) for v in r_arr.ravel()]
    return np.array(vals).reshape(r_arr.shape)


def reduced_green_oracle(d: int, alpha: float, r) -> float | np.ndarray:
    """Reduced profile psi_d(r) = exp(log_reduced_green(d, alpha, r))."""
    vals = np.exp(log_reduced_green(d, alpha, r))
    return float(vals) if vals.ndim == 0 else vals


# ---------------------------------------------------------------------------
# Fitted asymptotic expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreenCoeffs:
    """Decay rate and asymptotic-expansion coefficients of the profiles.

    The large-r expansions share one exponential rate a0:

        psi_1(r) ~ exp(-a0 r^q) r^(-(1-alpha)/(2-alpha)) sum_k a1[k] r^(-k q)
        psi_2(r) ~ exp(-a0 r^q) r^(-(2-2 alpha)/(2-alpha)) sum_k a2[k] r^(-k q)
        psi_3(r)  = -(2 pi r)^(-1) d/dr psi_1(r)   (termwise)

    with q = 2/(2-alpha).  a1/a2 hold up to MAX_SERIES_TERMS coefficients;
    a truncation order N uses the first N of them.
    """

    alpha: float
    a0: float
    a1: tuple
    a2: tuple

    def __post_init__(self) -> None:
        # normalize to builtin floats, so equal fits compare equal
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "a1", tuple(float(c) for c in self.a1))
        object.__setattr__(self, "a2", tuple(float(c) for c in self.a2))
        _check_alpha(self.alpha)
        if not (0.0 < self.a0 < 1.0):
            raise ConfigError(f"fitted decay rate a0 must lie in (0, 1), got {self.a0}")
        if len(self.a1) == 0 or len(self.a2) == 0:
            raise ConfigError("coefficient lists must be non-empty")
        if self.a1[0] <= 0 or self.a2[0] <= 0:
            raise ConfigError("leading expansion coefficients must be positive")


def _prefactor_exponent(d: int, alpha: float) -> float:
    if d == 1:
        return (1.0 - alpha) / (2.0 - alpha)
    if d == 2:
        return (2.0 - 2.0 * alpha) / (2.0 - alpha)
    raise ConfigError(f"no direct expansion for d={d}")


_FIT_R_LO = 5.0
_FIT_R_HI = 80.0


def _fit_exponential_rate(rho, g) -> float:
    """Least squares for a0 in g = -a0 rho + log-correction(1/rho)."""
    basis = np.stack([rho, np.ones_like(rho), 1 / rho, 1 / rho**2, 1 / rho**3], axis=1)
    coef, *_ = np.linalg.lstsq(basis, g, rcond=None)
    return -coef[0]


@lru_cache(maxsize=8)
def fit_green_coeffs(alpha: float) -> GreenCoeffs:
    """Recover a0 and the expansion coefficients by regression on the profiles.

    a0 comes from a log-linear fit of the d=1 profile over r in
    [5, 80] (the d=2 estimate is required to agree and is only used as a
    consistency check, since the rate is shared).  Given a0, the
    MAX_SERIES_TERMS coefficients of each list are ordinary weighted
    least squares on the exponential-free remainder, with two internal
    extra terms so they are not polluted by the first neglected order.
    """
    _check_alpha(alpha)
    q = 2.0 / (2.0 - alpha)
    r1 = np.geomspace(_FIT_R_LO, _FIT_R_HI, 26)
    r2 = np.geomspace(_FIT_R_LO, _FIT_R_HI, 18)

    logs = {1: log_reduced_green(1, alpha, r1), 2: log_reduced_green(2, alpha, r2)}

    a0_est = {}
    for d, rs in ((1, r1), (2, r2)):
        g = logs[d] + _prefactor_exponent(d, alpha) * np.log(rs)
        a0_est[d] = _fit_exponential_rate(rs**q, g)
    if abs(a0_est[1] - a0_est[2]) > 1e-4:
        raise QuadratureError(
            f"decay-rate fits disagree between d=1 ({a0_est[1]:.8f}) and d=2 ({a0_est[2]:.8f})"
        )
    a0 = a0_est[1]
    if not (0.0 < a0 < 1.0):
        raise QuadratureError(f"fitted decay rate a0={a0} outside (0, 1)")

    n_fit = MAX_SERIES_TERMS + 2
    coeffs = {}
    for d, rs in ((1, r1), (2, r2)):
        p = _prefactor_exponent(d, alpha)
        h = np.exp(logs[d] + a0 * rs**q + p * np.log(rs))
        svar = rs ** (-q)
        scale = svar.max()
        basis = np.stack([(svar / scale) ** k for k in range(n_fit)], axis=1)
        w = 1.0 / h
        sol, *_ = np.linalg.lstsq(basis * w[:, None], h * w, rcond=None)
        coeffs[d] = tuple(float(sol[k] / scale**k) for k in range(MAX_SERIES_TERMS))
    return GreenCoeffs(alpha=alpha, a0=a0, a1=coeffs[1], a2=coeffs[2])


# ---------------------------------------------------------------------------
# Truncated series, gradient kernels, space-time kernels
# ---------------------------------------------------------------------------


def _check_terms(coeffs: GreenCoeffs, d: int, n_terms: int) -> None:
    stored = len(coeffs.a1) if d in (1, 3) else len(coeffs.a2)
    if not (1 <= n_terms <= stored):
        raise ConfigError(f"series order {n_terms} outside 1..{stored}")


def reduced_green_series(coeffs: GreenCoeffs, d: int, n_terms: int, r):
    """Truncated large-argument expansion of psi_d at radius r (vectorized)."""
    _check_terms(coeffs, d, n_terms)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise ConfigError("series radius must be positive")
    alpha = coeffs.alpha
    q = 2.0 / (2.0 - alpha)
    expfac = np.exp(-coeffs.a0 * r_arr**q)
    if d in (1, 2):
        p = _prefactor_exponent(d, alpha)
        a = coeffs.a1 if d == 1 else coeffs.a2
        acc = np.zeros_like(r_arr)
        for k in range(n_terms - 1, -1, -1):
            acc = acc * r_arr ** (-q) + a[k]
        return expfac * r_arr ** (-p) * acc
    if d != 3:
        raise ConfigError(f"dimension must be 1, 2 or 3, got {d}")
    # termwise -(2 pi r)^(-1) d/dr of the d=1 expansion
    acc = np.zeros_like(r_arr)
    a0q = coeffs.a0 * q
    for k in range(n_terms):
        m_k = (1.0 - alpha + 2.0 * k) / (2.0 - alpha)
        acc = acc + coeffs.a1[k] * (a0q * r_arr ** (q - 1.0 - m_k) + m_k * r_arr ** (-m_k - 1.0))
    return expfac * acc / (2.0 * math.pi * r_arr)


def s_kernel(coeffs: GreenCoeffs, d: int, n_terms: int, y):
    """Gradient profile S_{d,N}: grad psi_{d,N}(x) = x S_{d,N}(|x|^2).

    Only the dimensions used by the locators are provided (d = 2, 3).
    S is negative for n_terms = 1 and, for higher orders, negative
    outside a bounded set; the locators rely on that sign.
    """
    scaled = _s_kernel_scaled(coeffs, d, n_terms, y)
    y = np.asarray(y, dtype=float)
    return np.exp(-coeffs.a0 * y ** (1.0 / (2.0 - coeffs.alpha))) * scaled


def _s_kernel_scaled(coeffs: GreenCoeffs, d: int, n_terms: int, y):
    """S_{d,N}(y) exp(a0 y^(1/(2-alpha))): the profile without its decay factor.

    What is left is a sum of powers of y, so it varies over a few orders
    of magnitude where S itself spans hundreds, and it stays finite where
    S underflows.
    """
    r_arr = np.asarray(y, dtype=float)
    if np.any(r_arr <= 0.0):
        raise ConfigError("s_kernel argument must be positive")
    alpha = coeffs.alpha
    ia = 1.0 / (2.0 - alpha)
    if d == 2:
        _check_terms(coeffs, 2, n_terms)
        acc = np.zeros_like(r_arr)
        for k in range(n_terms):
            inner = (
                -(coeffs.a0 * ia) * r_arr ** ((alpha - 1.0) * ia)
                + ((alpha - 1.0 - k) * ia) / r_arr
            )
            acc = acc + coeffs.a2[k] * inner * r_arr ** ((alpha - 1.0 - k) * ia)
        return 2.0 * acc
    if d == 3:
        _check_terms(coeffs, 3, n_terms)
        acc = np.zeros_like(r_arr)
        g = 2.0 * ia  # 2/(2-alpha)
        for k in range(n_terms):
            t1 = (coeffs.a0 * g) ** 2 * r_arr ** ((5.0 * alpha - 5.0 - 2.0 * k) * ia / 2.0)
            t2 = (
                8.0 * coeffs.a0 * (k + 1.0 - alpha) * ia**2
            ) * r_arr ** ((5.0 * alpha - 7.0 - 2.0 * k) * ia / 2.0)
            t3 = (
                (2.0 * k + 1.0 - alpha) * (2.0 * k + 5.0 - 3.0 * alpha) * ia**2
            ) * r_arr ** ((5.0 * alpha - 9.0 - 2.0 * k) * ia / 2.0)
            acc = acc + coeffs.a1[k] * (t1 + t2 + t3)
        return -acc / (2.0 * math.pi)
    raise ConfigError(f"s_kernel defined for d in {{2, 3}}, got {d}")


def _scaled_offsets(coeffs: GreenCoeffs, x, t, src, t0: float, gamma0: float):
    """lam = gamma0 (t - t0)^alpha and xi = (x - src) / sqrt(lam) per time.

    t is a scalar or a 1-D array of times; lam has t's shape and xi the
    shape t.shape + (m, d) for an (m, d) batch of points.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > t0):
        raise ConfigError(f"kernel requires t > t0, got t={np.min(t)}, t0={t0}")
    x_arr = np.atleast_2d(np.asarray(x, dtype=float))
    lam = gamma0 * (t - t0) ** coeffs.alpha
    scaled = (x_arr - np.asarray(src, dtype=float)) / np.sqrt(lam)[..., None, None]
    return lam, scaled


def approx_fundamental(
    coeffs: GreenCoeffs,
    d: int,
    n_terms: int,
    x,
    t,
    src,
    t0: float = 0.0,
    gamma0: float = 1.0,
):
    """Truncated fundamental-solution kernel with pole (src, t0).

    x: point array of shape (d,) or batch (m, d); t: a time or a 1-D
    array of times, each > t0.  The result has shape t.shape + (m,) for
    a batch and t.shape for one point, one row per time.  With one time,
    a stack of poles src of shape (n, 1, d) gives one row per pole.
    """
    lam, scaled = _scaled_offsets(coeffs, x, t, src, t0, gamma0)
    rr = np.sqrt((scaled**2).sum(axis=-1))
    vals = reduced_green_series(coeffs, d, n_terms, rr) * lam[..., None] ** (-d / 2.0)
    return vals[..., 0] if np.asarray(x).ndim == 1 else vals


def grad_approx_fundamental(
    coeffs: GreenCoeffs,
    d: int,
    n_terms: int,
    x,
    t,
    src,
    t0: float = 0.0,
    gamma0: float = 1.0,
):
    """Spatial gradient of the truncated kernel at (x, t).

    Equals lam^(-(d+1)/2) xi S_{d,N}(|xi|^2) with xi = (x-src)/sqrt(lam),
    lam = gamma0 (t-t0)^alpha.  t is a time or a 1-D array of times;
    the result has shape t.shape + x.shape: (d,) -> (d,), (m,d) -> (m,d)
    per time.
    """
    lam, scaled = _scaled_offsets(coeffs, x, t, src, t0, gamma0)
    y = (scaled**2).sum(axis=-1)
    grads = (
        lam[..., None, None] ** (-(d + 1) / 2.0)
        * scaled
        * s_kernel(coeffs, d, n_terms, y)[..., None]
    )
    return grads[..., 0, :] if np.asarray(x).ndim == 1 else grads
