"""Weighted boundary measurements, their interior oracle, and the asymptotic model.

The central object is the measurement

    I_Phi = int_0^T int_dOmega gamma0 (u - U) dPhi/dn ds dt,

computed from a boundary trace of u - U against a test function Phi.
Test functions enter through handles producing values, gradients and
normal derivatives at arbitrary (x, t); KernelProbe wraps the
approximate fundamental solution run backwards in time, which is the
only Phi the algorithms use, but tests may pass exact oracles.

Handle contract: a handle takes k points (and, for the normal
derivative, k normals) and t, either one time or a 1-D array of times,
and returns one row per time: value and normal_derivative have shape
t.shape + (k,), gradient t.shape + (k, d).  A scalar t is the 0-d case.
The measurements call a handle once for all time levels (the interior
form once per inclusion).

An equivalent interior form (conductivity-contrast weighted gradient
coupling over the inclusions) serves as a cross-check, and leading_term
evaluates the first-order small-volume model driven by polarization
tensors.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConfigError
from .forward import BoundaryTrace, SpaceTimeField
from .fracmath import TimeGrid
from .greenfn import (
    GreenCoeffs,
    approx_fundamental,
    grad_approx_fundamental,
    log_reduced_green,
)
from .mesh import InclusionSet

# log-spaced radii of OracleKernelProbe's profile table
ORACLE_R_MIN = 0.4
ORACLE_R_MAX = 80.0
ORACLE_NODES = 420


@dataclass(frozen=True)
class Measurement:
    """One finite measurement value."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConfigError(f"measurement value must be finite, got {self.value}")


@dataclass(frozen=True)
class PolarizationTensor:
    """Symmetric d x d polarization tensor of one inclusion."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 3):
            raise ConfigError(f"polarization tensor must be 2x2 or 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ConfigError("polarization tensor must be finite")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ConfigError("polarization tensor must be symmetric")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def polarization_disk(d: int, gamma0: float, gamma_l: float, volB: float) -> PolarizationTensor:
    """Closed-form tensor of a d-ball: -(d gamma0 |B|) / (gamma_l + (d-1) gamma0) I."""
    if d not in (2, 3):
        raise ConfigError(f"dimension must be 2 or 3, got {d}")
    if gamma0 <= 0.0 or gamma_l <= 0.0:
        raise ConfigError("conductivities must be positive")
    if gamma_l == gamma0:
        raise ConfigError("inclusion conductivity must differ from the background")
    if volB <= 0.0:
        raise ConfigError(f"reference volume must be positive, got {volB}")
    scalar = -(d * gamma0 * volB) / (gamma_l + (d - 1) * gamma0)
    return PolarizationTensor(matrix=scalar * np.eye(d))


def _backward(t_final: float, t, shape: tuple, kernel) -> np.ndarray:
    """kernel(s) at the elapsed times s = t_final - t, zero rows where s <= 0.

    t is a time or a 1-D array of times; kernel maps a 1-D array of
    positive s to rows of shape ``shape``, and the result has shape
    t.shape + shape.
    """
    s = t_final - np.asarray(t, dtype=float)
    out = np.zeros(s.shape + shape)
    live = s > 0.0
    out[live] = kernel(s[live])
    return out


@dataclass(frozen=True)
class KernelProbe:
    """Phi(x, t) = Psi_{(source,0),N}(x, T - t), zero at t >= T.

    The source sits outside the closed domain, so as t -> T the kernel's
    exponential factor drives every handle to 0 on Omega; the handles
    return that limit exactly instead of evaluating at zero elapsed time.
    Every handle takes one time or a 1-D array of times (module docstring).
    """

    coeffs: GreenCoeffs
    n_terms: int
    source: np.ndarray
    t_final: float
    gamma0: float = 1.0

    def __post_init__(self):
        src = np.asarray(self.source, dtype=float)
        object.__setattr__(self, "source", src)
        if src.shape not in ((2,), (3,)):
            raise ConfigError(f"source must be a point in R^2 or R^3, got shape {src.shape}")
        if self.t_final <= 0.0:
            raise ConfigError(f"final time must be positive, got {self.t_final}")

    @property
    def d(self) -> int:
        return len(self.source)

    def value(self, points, t) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return _backward(
            self.t_final,
            t,
            (len(points),),
            lambda s: approx_fundamental(
                self.coeffs, self.d, self.n_terms, points, s, self.source, gamma0=self.gamma0
            ),
        )

    def gradient(self, points, t) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return _backward(
            self.t_final,
            t,
            points.shape,
            lambda s: grad_approx_fundamental(
                self.coeffs, self.d, self.n_terms, points, s, self.source, gamma0=self.gamma0
            ),
        )

    def normal_derivative(self, points, t, normals) -> np.ndarray:
        return (self.gradient(points, t) * np.asarray(normals, dtype=float)).sum(axis=-1)


class OracleKernelProbe:
    """Phi(x, t) = exact fundamental solution at (source, 0), run backwards.

    The radial profile log psi_d is tabulated once from
    ``log_reduced_green`` and interpolated with a cubic spline in log-log
    coordinates, so handle evaluations are cheap while inheriting the
    profile's accuracy.  This probe exists for cross-checks (Lemma-style
    boundary/interior equivalence, remainder studies); the reconstruction
    algorithms use the truncated-series KernelProbe.

    Construction costs one profile evaluation per table node, a fraction
    of a second for the 420-node d = 2 table at any alpha.
    """

    def __init__(self, d: int, alpha: float, source, t_final: float, gamma0: float = 1.0):
        if d not in (2, 3):
            raise ConfigError(f"dimension must be 2 or 3, got {d}")
        if t_final <= 0.0 or gamma0 <= 0.0:
            raise ConfigError("final time and gamma0 must be positive")
        self.d = d
        self.alpha = float(alpha)
        self.source = np.asarray(source, dtype=float)
        if self.source.shape != (d,):
            raise ConfigError(f"source must be a point in R^{d}")
        self.t_final = float(t_final)
        self.gamma0 = float(gamma0)
        log_r = np.linspace(math.log(ORACLE_R_MIN), math.log(ORACLE_R_MAX), ORACLE_NODES)
        self._spline = CubicSpline(log_r, log_reduced_green(d, self.alpha, np.exp(log_r)))

    def _profile(self, r: np.ndarray):
        """psi(r) and psi'(r) inside the table, 0 beyond ORACLE_R_MAX."""
        if np.any(r < ORACLE_R_MIN):
            raise ConfigError(
                f"scaled radius {r.min():.3g} below the tabulated range {ORACLE_R_MIN}"
            )
        psi = np.zeros_like(r)
        dpsi = np.zeros_like(r)
        ok = r < ORACLE_R_MAX
        lr = np.log(r[ok])
        psi[ok] = np.exp(self._spline(lr))
        dpsi[ok] = psi[ok] * self._spline(lr, 1) / r[ok]
        return psi, dpsi

    def value(self, points, t) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        rho = np.linalg.norm(points - self.source, axis=1)

        def kernel(s):
            lam = (self.gamma0 * s**self.alpha)[:, None]
            psi, _ = self._profile(rho / np.sqrt(lam))
            return psi / lam ** (self.d / 2.0)

        return _backward(self.t_final, t, rho.shape, kernel)

    def gradient(self, points, t) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dx = points - self.source
        rho = np.linalg.norm(dx, axis=1)

        def kernel(s):
            lam = (self.gamma0 * s**self.alpha)[:, None]
            _, dpsi = self._profile(rho / np.sqrt(lam))
            return (dpsi / lam ** ((self.d + 1) / 2.0))[..., None] * (dx / rho[:, None])

        return _backward(self.t_final, t, dx.shape, kernel)

    def normal_derivative(self, points, t, normals) -> np.ndarray:
        return (self.gradient(points, t) * np.asarray(normals, dtype=float)).sum(axis=-1)


def tabulate_normal_derivative(phi, trace: BoundaryTrace) -> np.ndarray:
    """dPhi/dn of a handle (points, t, normals) on the nodes and time
    levels of ``trace``, in one handle call over all levels; the nodes
    sit on the unit circle, so the outward normal at a node is its
    position."""
    pts = np.column_stack([np.cos(trace.angles), np.sin(trace.angles)])
    return np.asarray(phi(pts, trace.grid.nodes, pts), dtype=float)


def measurement_boundary(diff: BoundaryTrace, phi, gamma0: float) -> Measurement:
    """Space-time quadrature of gamma0 (u - U) dPhi/dn over the boundary.

    phi is either a normal-derivative handle (points, t, normals), see
    the module docstring, or an array of dPhi/dn values matching the
    trace shape.  Trapezoid in time, trapezoidal arc weights in space.
    """
    if gamma0 <= 0.0:
        raise ConfigError(f"gamma0 must be positive, got {gamma0}")
    phin = tabulate_normal_derivative(phi, diff) if callable(phi) else np.asarray(phi, dtype=float)
    if phin.shape != diff.values.shape:
        raise ConfigError(f"dPhi/dn shape {phin.shape} does not match trace {diff.values.shape}")
    per_level = (diff.values * phin) @ diff.arc_weights
    value = gamma0 * float(per_level @ diff.grid.weights)
    return Measurement(value=value)


def measurement_interior(u: SpaceTimeField, grad_phi, inclusions: InclusionSet) -> Measurement:
    """Interior form: sum_l (gamma0 - gamma_l) int_0^T int_{A_l} grad u . grad Phi.

    grad u is the elementwise-constant P1 gradient; grad Phi is sampled
    at triangle centroids (midpoint rule), trapezoid in time.  Each
    inclusion takes one grad_phi call over all time levels.
    """
    mesh = u.mesh
    verts = mesh.vertices
    per_level = np.zeros(u.grid.n_steps + 1)
    for l, inc in enumerate(inclusions.items):
        sel = np.flatnonzero(mesh.region_tag == l)
        if sel.size == 0:
            raise ConfigError(f"mesh carries no triangles tagged for inclusion {l}")
        tris = mesh.triangles[sel]
        p = verts[tris]
        b = p[:, [1, 2, 0], 1] - p[:, [2, 0, 1], 1]
        c = p[:, [2, 0, 1], 0] - p[:, [1, 2, 0], 0]
        area2 = p[:, 1, 0] * p[:, 2, 1] - p[:, 2, 0] * p[:, 1, 1]
        area2 += p[:, 2, 0] * p[:, 0, 1] - p[:, 0, 0] * p[:, 2, 1]
        area2 += p[:, 0, 0] * p[:, 1, 1] - p[:, 1, 0] * p[:, 0, 1]
        # (levels, triangles) P1 gradients of u and centroid gradients of Phi
        nodal = u.values[:, tris]
        gx = (nodal * b).sum(-1) / area2
        gy = (nodal * c).sum(-1) / area2
        gp = np.asarray(grad_phi(p.mean(axis=1), u.grid.nodes), dtype=float)
        coupling = ((gx * gp[..., 0] + gy * gp[..., 1]) * 0.5 * area2).sum(-1)
        per_level += (inclusions.gamma0 - inc.gamma) * coupling
    value = float(per_level @ u.grid.weights)
    return Measurement(value=value)


def leading_term(
    inclusions: InclusionSet,
    tensors,
    grad_u: np.ndarray,
    grad_phi: np.ndarray,
    grid: TimeGrid,
) -> float:
    """First-order small-volume model of the boundary measurement.

        -sum_l eps_l^d (gamma0 - gamma_l) int_0^T grad U(z_l) . M_l grad Phi(z_l, t) dt

    grad_u and grad_phi carry the center-sampled gradients with shape
    (n_levels, n_inclusions, d).
    """
    m = len(inclusions.items)
    if len(tensors) != m:
        raise ConfigError(f"{len(tensors)} tensors for {m} inclusions")
    grad_u = np.asarray(grad_u, dtype=float)
    grad_phi = np.asarray(grad_phi, dtype=float)
    if m == 0:
        return 0.0
    d = tensors[0].dim
    want = (grid.n_steps + 1, m, d)
    if grad_u.shape != want or grad_phi.shape != want:
        raise ConfigError(
            f"gradient series must have shape {want}, got {grad_u.shape} and {grad_phi.shape}"
        )
    w = grid.weights
    total = 0.0
    for l, inc in enumerate(inclusions.items):
        coupled = np.einsum("nd,de,ne->n", grad_u[:, l], tensors[l].matrix, grad_phi[:, l])
        total -= inc.eps**d * (inclusions.gamma0 - inc.gamma) * float(coupled @ w)
    return total
