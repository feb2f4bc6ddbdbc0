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
  kernels built from the truncated expansion by the similarity scaling,
* ``_gradient_time_half`` / ``_normal_derivative``: the gradient
  factor's time half and its normal derivative ((x - src).n) f, the one
  copy of that formula; the moving-source flux (locate_multi), the
  probe's dPhi/dn and its table (measure) and the scan's kernel matrix
  (locate_multi) take the kernel through them.  The term lists behind
  them (``_value_terms``, ``_gradient_terms``, ``_time_factors``) stay
  in this module.

Each truncated profile is exp(-a0 y^p) sum_j kappa_j y^(e_j) in y = r^2,
p = 1/(2 - alpha), e_j = e_0 - j p, and the gradient profile's monomials
are the value profile's differentiated termwise.  A space-time kernel
takes y = rho^2 / lam times lam^(-s), and each monomial splits into a
factor of the point and one of the time, (rho^2)^(e_j) * kappa_j
lam^(-e_j - s), so per (point, time) pair it takes one exp and no power.

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
from typing import NamedTuple

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


@lru_cache(maxsize=1)
def _profile_rule():
    """_log_psi's rule: 256 Gauss-Legendre nodes v on (0, 1), phi = pi v^2 (3 - 2v)
    on (0, pi), and their weights.  Taken on first use: it costs about 10 ms,
    and runs on fitted coefficients never evaluate the exact profile."""
    x, w = np.polynomial.legendre.leggauss(256)
    unit = 0.5 * (x + 1.0)
    unit_w = 0.5 * w
    # phi packs the nodes quadratically into both ends of (0, pi): at large r
    # the phi integrand narrows to width ~r^(-q/2) at 0, at small r to ~r at pi
    phi = math.pi * unit**2 * (3.0 - 2.0 * unit)
    phi_w = 6.0 * math.pi * unit * (1.0 - unit) * unit_w
    return unit, unit_w, phi, phi_w


_ABEL_TAIL = 80.0  # log of the integrand's decay at the Abel cut


def _log_psi(d: int, alpha: float, r: float) -> float:
    """log psi_d(r) at one radius; see the module docstring."""
    unit, unit_w, phi, phi_w = _profile_rule()
    nu = 0.5 * alpha
    p = nu / (1.0 - nu)
    q = 1.0 / (1.0 - nu)
    A = np.sin(nu * phi) ** p * np.sin((1.0 - nu) * phi) / np.sin(phi) ** q
    a0 = nu**p * (1.0 - nu)
    c = 1.0 / (2.0 * math.pi * (1.0 - nu))
    rq = r**q
    if d == 2:
        if not a0 * rq > 0.0:  # the cut below divides by it
            raise QuadratureError(f"radius r={r} too small for the d=2 profile at alpha={alpha}")
        # s = r cosh u up to the cut a0 (s^q - r^q) = _ABEL_TAIL
        span = math.acosh((1.0 + _ABEL_TAIL / (a0 * rq)) ** (1.0 / q))
        s = r * np.cosh(span * unit)
    else:
        s = np.array([r])
    sq = s**q
    # rows: exp(-s^q A) / exp(-a0 s^q) times the phi weights, one row per s
    e = np.exp(-np.multiply.outer(sq, A - a0)) * phi_w
    j = e @ A
    if d == 1:
        head = c * r**p * j[0]
    else:
        # -psi_1'(s) exp(a0 s^q)
        slope = c * s ** (p - 1.0) * (q * sq * (e @ (A * A)) - p * j)
        if d == 3:
            head = slope[0] / (2.0 * math.pi * r)
        else:
            head = span * unit_w @ (slope * np.exp(-a0 * (sq - rq))) / math.pi
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


def _derivative(coeffs: GreenCoeffs, terms):
    """2 d/dy of exp(-a0 y^p) sum_k c_k y^(g_k), g_k = g_0 - k p, in the same form.

    2 d/dy (exp(-a0 y^p) y^g) = 2 exp(-a0 y^p) (g y^(g-1) - a0 p y^(g+p-1)),
    and g_k - 1 = g_(k+1) + p - 1, so term k feeds the monomials j = k
    and j = k + 1 of e_j = g_0 + p - 1 - j p.
    """
    c, g0 = terms
    p = 1.0 / (2.0 - coeffs.alpha)
    kappa = np.zeros(c.size + 1)
    kappa[:-1] -= coeffs.a0 * p * c
    kappa[1:] += (g0 - p * np.arange(c.size)) * c
    return 2.0 * kappa, g0 + p - 1.0


def _check_series_order(n_terms: int, available: int = MAX_SERIES_TERMS) -> None:
    if not 1 <= n_terms <= available:
        raise ConfigError(f"series order {n_terms} outside 1..{available}")


def _value_terms(coeffs: GreenCoeffs, d: int, n_terms: int):
    """(kappa, e_0) of psi_{d,N}(sqrt(y)) exp(a0 y^p) = sum_j kappa_j y^(e_0 - j p)."""
    if d == 3:
        # termwise psi_3(r) = -(2 pi r)^(-1) d/dr psi_1 = -(1/pi) d/dy psi_1
        kappa, e0 = _derivative(coeffs, _value_terms(coeffs, 1, n_terms))
        return -kappa / (2.0 * math.pi), e0
    if d not in (1, 2):
        raise ConfigError(f"dimension must be 1, 2 or 3, got {d}")
    a = coeffs.a1 if d == 1 else coeffs.a2
    _check_series_order(n_terms, len(a))
    return np.array(a[:n_terms]), -0.5 * _prefactor_exponent(d, coeffs.alpha)


def _gradient_terms(coeffs: GreenCoeffs, d: int, n_terms: int):
    """(kappa, e_0) of S_{d,N}(y) exp(a0 y^p); S = 2 d/dy psi_{d,N}(sqrt(y))."""
    if d not in (2, 3):
        raise ConfigError(f"s_kernel defined for d in {{2, 3}}, got {d}")
    return _derivative(coeffs, _value_terms(coeffs, d, n_terms))


class _TimeFactors(NamedTuple):
    """A separated kernel with its time half taken, at one time or a 1-D array of times."""

    power: float  # p = 1/(2 - alpha)
    exponents: np.ndarray  # (J,) e_j
    rate: np.ndarray  # lam.shape: a0 lam^-p
    weights: np.ndarray  # lam.shape + (J,): kappa_j lam^(-e_j - shift)


def _time_factors(coeffs: GreenCoeffs, terms, shift: float, s=1.0, gamma0=1.0) -> _TimeFactors:
    """The time half of the separated terms at lam = gamma0 s^alpha; lam = 1 by default.

    A power that overflows is inf, which the stage that takes it refuses (see cli).
    """
    kappa, e0 = terms
    p = 1.0 / (2.0 - coeffs.alpha)
    e = e0 - p * np.arange(kappa.size)
    lam = np.asarray(gamma0 * s**coeffs.alpha, dtype=float)
    return _TimeFactors(p, e, coeffs.a0 * lam**-p, kappa * lam[..., None] ** -(e + shift))


def _gradient_time_half(coeffs: GreenCoeffs, d: int, n_terms: int, s, gamma0: float):
    """The time half of the gradient factor f at elapsed times s > 0.

    grad Psi(x, s) = (x - src) f(|x - src|^2, s) with
    f(rho2, s) = lam^(-(d+2)/2) S_{d,N}(rho2 / lam), lam = gamma0 s^alpha:
    the factor of grad_approx_fundamental, the moving-source flux, the
    probe's dPhi/dn and the scan's kernel matrix.  s is one time or a
    1-D array of times.
    """
    return _time_factors(coeffs, _gradient_terms(coeffs, d, n_terms), (d + 2) / 2.0, s, gamma0)


def _separated(rho2, times: _TimeFactors):
    """exp(-a0 (rho2/lam)^p) sum_j kappa_j (rho2/lam)^(e_j) lam^-shift.

    The result has shape rho2.shape + lam.shape.  rho2 = 0 is the pole,
    where the monomials blow up, so it is an error, as is any rho2 <= 0.
    """
    rho2 = np.asarray(rho2, dtype=float)
    if not np.all(rho2 > 0.0):
        raise ConfigError("kernel evaluated at its pole: squared radius must be positive")
    decay = np.exp(-np.multiply.outer(rho2**times.power, times.rate))
    return decay * (rho2[..., None] ** times.exponents @ times.weights.T)


def _normal_derivative(points, normals, sources, times) -> np.ndarray:
    """((x - src) . n) f(|x - src|^2, s) for each source src: the gradient
    factor's normal derivative, with no gradient array in between.

    points and normals are (m, d), sources (k, d), and times the
    gradient factor's time half at n elapsed times (_gradient_time_half);
    the result has shape (k, n, m).
    """
    rel = points - sources[:, None, :]
    proj = np.sum(rel * normals, axis=-1)
    rho2 = np.sum(rel * rel, axis=-1)
    return np.swapaxes(proj[..., None] * _separated(rho2, times), -1, -2)


def reduced_green_series(coeffs: GreenCoeffs, d: int, n_terms: int, r):
    """Truncated large-argument expansion of psi_d at radius r (vectorized)."""
    terms = _value_terms(coeffs, d, n_terms)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise ConfigError("series radius must be positive")
    return _separated(r_arr * r_arr, _time_factors(coeffs, terms, 0.0))[()]


def s_kernel(coeffs: GreenCoeffs, d: int, n_terms: int, y):
    """Gradient profile S_{d,N}: grad psi_{d,N}(x) = x S_{d,N}(|x|^2).

    Only the dimensions used by the locators are provided (d = 2, 3).
    S is negative for n_terms = 1 and, for higher orders, negative
    outside a bounded set; the locators rely on that sign.
    """
    terms = _gradient_terms(coeffs, d, n_terms)
    return _separated(y, _time_factors(coeffs, terms, 0.0))[()]


def _kernel_factor(rho2, t, t0: float, time_half):
    """A separated kernel at the elapsed times s = t - t0 > 0, one row per time.

    time_half maps s to the kernel's time half; t is a scalar or a 1-D
    array of times, and the result has shape t.shape + rho2.shape.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > t0):
        raise ConfigError(f"kernel requires t > t0, got t={np.min(t)}, t0={t0}")
    f = _separated(rho2, time_half(t - t0))
    return np.moveaxis(f, -1, 0) if t.ndim else f


def _gradient_factor(coeffs: GreenCoeffs, d: int, n_terms: int, rho2, t, t0: float, gamma0: float):
    """f with grad Psi(x, t) = (x - src) f(|x - src|^2, t); shape t.shape + rho2.shape.

    f's time half is _gradient_time_half at s = t - t0.
    """
    return _kernel_factor(rho2, t, t0, lambda s: _gradient_time_half(coeffs, d, n_terms, s, gamma0))


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

    Equals lam^(-d/2) psi_{d,N}(|x - src| / sqrt(lam)) with
    lam = gamma0 (t - t0)^alpha.  x: point array of shape (d,) or batch
    (m, d); t: a time or a 1-D array of times, each > t0.  The result has
    shape t.shape + (m,) for a batch and t.shape for one point, one row
    per time.  With one time, a stack of poles src of shape (n, 1, d)
    gives one row per pole.
    """
    rel = np.atleast_2d(np.asarray(x, dtype=float)) - np.asarray(src, dtype=float)
    terms = _value_terms(coeffs, d, n_terms)
    vals = _kernel_factor(
        np.sum(rel * rel, axis=-1), t, t0, lambda s: _time_factors(coeffs, terms, d / 2.0, s, gamma0)
    )
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
    lam = gamma0 (t-t0)^alpha, evaluated as (x - src) times the separated
    factor of ``_gradient_factor``.  t is a time or a 1-D array of times;
    the result has shape t.shape + x.shape: (d,) -> (d,), (m,d) -> (m,d)
    per time.
    """
    rel = np.atleast_2d(np.asarray(x, dtype=float)) - np.asarray(src, dtype=float)
    f = _gradient_factor(coeffs, d, n_terms, np.sum(rel * rel, axis=-1), t, t0, gamma0)
    grads = rel * f[..., None]
    return grads[..., 0, :] if np.asarray(x).ndim == 1 else grads
