"""Weighted boundary measurements, their interior oracle, and the asymptotic model.

The central object is the measurement

    I_Phi = int_0^T int_dOmega gamma0 (u - U) dPhi/dn ds dt,

computed from a boundary trace of u - U against a test function Phi.
Test functions enter through handles producing values, gradients and
normal derivatives at arbitrary (x, t).  Both probes are the test
function Phi(x, t) = Psi(x - source, T - t), a kernel anchored outside
the domain and run backwards in time, written once (_BackwardProbe):
KernelProbe's kernel is the approximate fundamental solution, the only
Phi the algorithms use, whose normal derivative is greenfn's
_normal_derivative, ((x - source).n) times the separated gradient
factor, with no gradient array in between; OracleKernelProbe's is the
exact one, the cross-check.  Tests may pass other handles.

Handle contract: a handle takes k points (and, for the normal
derivative, k normals) and t, either one time or a 1-D array of times,
and returns one row per time: value and normal_derivative have shape
t.shape + (k,), gradient t.shape + (k, d).  A scalar t is the 0-d case.
A probe's rows where s = T - t <= 0 are exactly 0 (_elapsed).  The
measurements call a handle once for all time levels (the interior form
once per inclusion).

Every boundary measurement is one contraction, _contract: a stack of
dPhi/dn rows against a list of traces on one mesh and time grid, in the
traces' quadrature table (BoundaryTrace.weights), into the table I[i, j]
of every row against every trace.  It is also the one place that
refuses a measurement that is not finite (SolverError), under its own
np.errstate, so with no warning also outside the CLI (see cli).

The locators take every measurement from a ProbeTable, made once per
run.  It holds what does not depend on the source: the trace's node
points, which are also their outward normals, the levels with positive
elapsed time T - t (the probes' rule, _elapsed), and the time half
of the gradient factor there.  One call then gives dPhi/dn for a whole
stack of sources, with only rel, proj, rho^2 and one separated
evaluation per call, and ProbeTable.measure is the contraction's
anchors x traces case: locate-one's bisection takes the diagonal of a
2 x 2 table, and locate-multi's data matrix is one n x n table.
measurement_boundary is its 1 x 1 case, one handle (or array) and one
trace, for oracle-check; a 1 x 1 table gives the same bits.
KernelProbe.normal_derivative and the table take the time half and the
formula from greenfn (_gradient_time_half, _normal_derivative), which
the source march's flux and the scan take too, so they exist once.

An equivalent interior form (conductivity-contrast weighted gradient
coupling over the inclusions) serves as a cross-check, and leading_term
evaluates the first-order small-volume model driven by polarization
tensors.

Importing this module loads no ``scipy.interpolate``: OracleKernelProbe,
the cross-check probe only ``oracle-check`` builds, imports its cubic
spline when the first one is constructed, and every probe at one d and
alpha shares one spline (_oracle_profile).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, SolverError
from .forward import BoundaryTrace, SpaceTimeField
from .fracmath import TimeGrid
from .greenfn import (
    GreenCoeffs,
    _gradient_time_half,
    _normal_derivative,
    approx_fundamental,
    grad_approx_fundamental,
    log_reduced_green,
)
from .mesh import InclusionSet

# log-spaced radii of OracleKernelProbe's profile table
ORACLE_R_MIN = 0.4
ORACLE_R_MAX = 80.0
ORACLE_NODES = 420


def _check_oracle_reach(distance: float, alpha: float, t_final: float, gamma0: float) -> None:
    """The exact probe's table reaches every point of the closed unit disk.

    A point of the disk lies at least distance - 1 from a source that far
    from the origin, and the elapsed time is at most t_final, so its
    scaled radius is at least (distance - 1) / sqrt(gamma0 t_final^alpha),
    which must not fall below ORACLE_R_MIN.
    """
    scale = math.sqrt(gamma0 * t_final**alpha)
    if distance < 1.0 + ORACLE_R_MIN * scale:
        raise ConfigError(
            f"probe distance {distance} is too close to the unit disk for the exact probe: "
            f"scaled radius {(distance - 1.0) / scale:.3g} is below the tabulated range "
            f"{ORACLE_R_MIN}; it needs a distance of at least {1.0 + ORACLE_R_MIN * scale:.6g}"
        )


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


def _check_backward(t_final: float, gamma0: float) -> None:
    """The checks every backward probe shares: T > 0 and gamma0 > 0."""
    if t_final <= 0.0:
        raise ConfigError(f"final time must be positive, got {t_final}")
    if gamma0 <= 0.0:
        raise ConfigError(f"gamma0 must be positive, got {gamma0}")


def _elapsed(t_final: float, t):
    """The elapsed times s = t_final - t and the live levels, s > 0."""
    s = t_final - np.asarray(t, dtype=float)
    return s, s > 0.0


class _BackwardProbe:
    """Phi(x, t) = Psi(x - source, T - t), zero at t >= T.

    The source sits outside the closed domain, so as t -> T the kernel's
    exponential factor drives every handle to 0 on Omega; the handles
    return that limit exactly instead of evaluating at zero elapsed time.
    Every handle takes one time or a 1-D array of times (module
    docstring) and calls its kernel once, at the 1-D array of live
    elapsed times s: a probe gives _value_rows(points, s),
    _gradient_rows(points, s) and _normal_rows(points, normals, s), one
    row per s.
    """

    def _rows(self, kernel, t, points, *normals):
        s, live = _elapsed(self.t_final, t)
        rows = kernel(np.atleast_2d(np.asarray(points, dtype=float)), *normals, s[live])
        out = np.zeros(s.shape + rows.shape[1:])
        out[live] = rows
        return out

    def value(self, points, t) -> np.ndarray:
        return self._rows(self._value_rows, t, points)

    def gradient(self, points, t) -> np.ndarray:
        return self._rows(self._gradient_rows, t, points)

    def normal_derivative(self, points, t, normals) -> np.ndarray:
        return self._rows(self._normal_rows, t, points, np.asarray(normals, dtype=float))


@dataclass(frozen=True)
class KernelProbe(_BackwardProbe):
    """Phi(x, t) = Psi_{(source,0),N}(x, T - t), the truncated-series kernel
    run backwards (_BackwardProbe)."""

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
        _check_backward(self.t_final, self.gamma0)

    @property
    def d(self) -> int:
        return len(self.source)

    def _value_rows(self, points, s):
        return approx_fundamental(
            self.coeffs, self.d, self.n_terms, points, s, self.source, gamma0=self.gamma0
        )

    def _gradient_rows(self, points, s):
        return grad_approx_fundamental(
            self.coeffs, self.d, self.n_terms, points, s, self.source, gamma0=self.gamma0
        )

    def _normal_rows(self, points, normals, s):
        """((x - source) . n) f: the gradient's one scalar factor, no gradient array."""
        times = _gradient_time_half(self.coeffs, self.d, self.n_terms, s, self.gamma0)
        return _normal_derivative(points, normals, self.source[None], times)[0]


@lru_cache(maxsize=8)
def _oracle_profile(d: int, alpha: float):
    """OracleKernelProbe's profile: log psi_d against log r on the
    ORACLE_NODES log-spaced radii, as a cubic spline, once per (d, alpha)."""
    # only oracle-check builds this probe, so only it loads scipy.interpolate
    from scipy.interpolate import CubicSpline

    log_r = np.linspace(math.log(ORACLE_R_MIN), math.log(ORACLE_R_MAX), ORACLE_NODES)
    return CubicSpline(log_r, log_reduced_green(d, alpha, np.exp(log_r)))


class OracleKernelProbe(_BackwardProbe):
    """Phi(x, t) = exact fundamental solution at (source, 0), run backwards
    (_BackwardProbe).

    The radial profile log psi_d is tabulated once per (d, alpha) from
    ``log_reduced_green`` and interpolated with a cubic spline in log-log
    coordinates (_oracle_profile), so handle evaluations are cheap while
    inheriting the profile's accuracy.  This probe exists for cross-checks
    (Lemma-style boundary/interior equivalence, remainder studies); the
    reconstruction algorithms use the truncated-series KernelProbe.

    The table costs one profile evaluation per node, about 0.3 s for the
    420-node d = 2 table on a 2-core x86 VM.  The first construction in a
    process also imports ``scipy.interpolate`` (and the ``scipy.optimize``
    and ``scipy.fft`` it pulls in), about 0.15 s and 12 MB.
    """

    def __init__(self, d: int, alpha: float, source, t_final: float, gamma0: float = 1.0):
        if d not in (2, 3):
            raise ConfigError(f"dimension must be 2 or 3, got {d}")
        _check_backward(t_final, gamma0)
        self.d = d
        self.alpha = float(alpha)
        self.source = np.asarray(source, dtype=float)
        if self.source.shape != (d,):
            raise ConfigError(f"source must be a point in R^{d}")
        self.t_final = float(t_final)
        self.gamma0 = float(gamma0)
        self._spline = _oracle_profile(d, self.alpha)

    def _scaled_profile(self, rho, s, j):
        """lam^(-(d+j)/2) psi^(j)(rho / sqrt(lam)), lam = gamma0 s^alpha, for
        j = 0 or 1: one row per elapsed time, 0 beyond ORACLE_R_MAX."""
        lam = (self.gamma0 * s**self.alpha)[:, None]
        r = rho / np.sqrt(lam)
        if np.any(r < ORACLE_R_MIN):
            raise ConfigError(
                f"scaled radius {r.min():.3g} below the tabulated range {ORACLE_R_MIN}"
            )
        psi = np.zeros_like(r)
        ok = r < ORACLE_R_MAX
        lr = np.log(r[ok])
        psi[ok] = np.exp(self._spline(lr))
        if j:
            psi[ok] = psi[ok] * self._spline(lr, 1) / r[ok]
        return psi / lam ** ((self.d + j) / 2.0)

    def _value_rows(self, points, s):
        return self._scaled_profile(np.linalg.norm(points - self.source, axis=1), s, 0)

    def _gradient_rows(self, points, s):
        dx = points - self.source
        rho = np.linalg.norm(dx, axis=1)
        return self._scaled_profile(rho, s, 1)[..., None] * (dx / rho[:, None])

    def _normal_rows(self, points, normals, s):
        return (self._gradient_rows(points, s) * normals).sum(axis=-1)


def tabulate_normal_derivative(phi, trace: BoundaryTrace) -> np.ndarray:
    """dPhi/dn of a handle (points, t, normals) on the nodes and time
    levels of ``trace``, in one handle call over all levels; a node sits on
    the unit circle, so it is its own outward normal."""
    return np.asarray(phi(trace.points, trace.grid.nodes, trace.points), dtype=float)


class ProbeTable:
    """KernelProbe's dPhi/dn on the nodes and levels of one trace, for any
    sources, and the measurements of traces against them.

    Made once per run: it takes the trace's node points, the mesh's first
    vertices (also their normals), the live levels where the elapsed
    time s = T - t is positive (_elapsed, the probes' rule) and the
    gradient factor's time half there, for d = 2 and gamma0 > 0
    (_check_backward).  Every trace on the same mesh and time grid shares
    the table.
    """

    def __init__(self, trace: BoundaryTrace, coeffs: GreenCoeffs, n_terms: int, gamma0: float = 1.0):
        _check_backward(trace.grid.t_final, gamma0)
        s, self.live = _elapsed(trace.grid.t_final, trace.grid.nodes)
        self.trace = trace
        self.gamma0 = gamma0
        self.points = trace.points
        self.times = _gradient_time_half(coeffs, 2, n_terms, s[self.live], gamma0)

    def normal_derivative(self, sources) -> np.ndarray:
        """dPhi/dn of the probe at each of the sources (k, 2), shape
        (k, n_levels, n_nodes): the values KernelProbe(source=sources[i])
        tabulates, 0 where s <= 0, in one separated evaluation."""
        sources = np.atleast_2d(np.asarray(sources, dtype=float))
        if sources.ndim != 2 or sources.shape[1] != 2:
            raise ConfigError(f"probe sources must be points in R^2, got shape {sources.shape}")
        out = np.zeros((len(sources),) + self.trace.values.shape)
        out[:, self.live] = _normal_derivative(self.points, self.points, sources, self.times)
        return out

    def measure(self, anchors, traces) -> np.ndarray:
        """I[i, j], the measurement of traces[j] against the probe anchored at
        anchors[i], shape (len(anchors), len(traces)): one table call gives
        dPhi/dn at every anchor, and one _contract every measurement.

        The anchors must lie outside the closed unit disk, and the traces on
        the table's mesh and time grid.
        """
        anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
        outside = np.linalg.norm(anchors, axis=-1) > 1.0
        if not outside.all():
            raise ConfigError(f"probe anchor {anchors[np.argmin(outside)]} must lie outside the closed domain")
        for trace in traces:
            self.trace.check_matches(trace)
        return _contract(self.normal_derivative(anchors), traces, self.gamma0)


def _contract(rows: np.ndarray, traces, gamma0: float) -> np.ndarray:
    """I[i, j] = gamma0 sum_{levels, nodes} (rows[i] w) Delta_j, the
    measurement of each trace Delta_j against each dPhi/dn row, shape
    (len(rows), len(traces)).

    w is the traces' quadrature table (BoundaryTrace.weights); every row
    has the shape of the traces, which share one mesh and time grid.  A
    measurement that is not finite is a SolverError.
    """
    with np.errstate(all="ignore"):
        deltas = np.stack([trace.values for trace in traces]).reshape(len(traces), -1)
        table = gamma0 * ((rows * traces[0].weights).reshape(len(rows), -1) @ deltas.T)
    if not np.isfinite(table).all():
        raise SolverError("the boundary measurement is not finite")
    return table


def measurement_boundary(diff: BoundaryTrace, phi, gamma0: float) -> Measurement:
    """gamma0 (u - U) dPhi/dn over the boundary x [0, T] by _contract,
    of which it is the one-row, one-trace case.

    phi is either a normal-derivative handle (points, t, normals), see
    the module docstring, or an array of dPhi/dn values matching the
    trace shape.
    """
    if gamma0 <= 0.0:
        raise ConfigError(f"gamma0 must be positive, got {gamma0}")
    phin = tabulate_normal_derivative(phi, diff) if callable(phi) else np.asarray(phi, dtype=float)
    if phin.shape != diff.values.shape:
        raise ConfigError(f"dPhi/dn shape {phin.shape} does not match trace {diff.values.shape}")
    return Measurement(value=float(_contract(phin[None], [diff], gamma0)[0, 0]))


def measurement_interior(u: SpaceTimeField, grad_phi, inclusions: InclusionSet) -> Measurement:
    """Interior form: sum_l (gamma0 - gamma_l) int_0^T int_{A_l} grad u . grad Phi.

    grad u is the elementwise-constant P1 gradient; grad Phi is sampled
    at triangle centroids (midpoint rule), trapezoid in time.  Each
    inclusion takes one grad_phi call over all time levels.
    """
    mesh = u.mesh
    p1 = mesh.p1_gradients()
    per_level = np.zeros(u.grid.n_steps + 1)
    for l, inc in enumerate(inclusions.items):
        sel = np.flatnonzero(mesh.region_tag == l)
        if sel.size == 0:
            raise ConfigError(f"mesh carries no triangles tagged for inclusion {l}")
        tris = mesh.triangles[sel]
        p = mesh.vertices[tris]
        b, c, area2 = (v[sel] for v in p1)
        # (levels, triangles) P1 gradients of u and centroid gradients of Phi
        nodal = u.values[:, tris]
        gx = (nodal * b).sum(-1) / area2
        gy = (nodal * c).sum(-1) / area2
        gp = np.asarray(grad_phi(p.mean(axis=1), u.grid.nodes), dtype=float)
        coupling = ((gx * gp[..., 0] + gy * gp[..., 1]) * 0.5 * area2).sum(-1)
        per_level += (inclusions.gamma0 - inc.gamma) * coupling
    return Measurement(value=float(per_level @ u.grid.weights))


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
