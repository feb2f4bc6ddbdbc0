"""Multi-inclusion location from a matrix of probe measurements.

The data matrix B collects boundary measurements for every pairing of a
moving-source background with a moving-source probe.  Its numerical
column space encodes the inclusion centers: scanning the indicator

    W(z) = ||G(z)||_F / ||Q_k G(z)||_F,   Q_k = I - V_k V_k^T,

over interior points z lights up near the centers, where G(z) is the
kernel matrix a point inclusion at z would produce and V_k holds the
leading k left singular vectors of B.  ``g_matrix`` takes one point
or a whole row of points and ``indicator`` one kernel matrix or a
stack of them, and the scan evaluates one grid row per call.

G(z) is a time integral of two copies of one kernel factor f(rho, t),
rho = |z - x_i|, which separates (see greenfn): every term of the
truncated gradient profile is a power of rho^2 times a power of the
time scale lam = gamma0 t^alpha.  A scan takes the time half once, on
the quadrature nodes; each grid row then takes the powers of rho^2 per
(point, source), one exp per (point, source, node) and a product with
the time half, so no power is taken per (point, time) pair.  The same
factor gives the moving-source backgrounds' Neumann flux
((x - x_j).n) f and the probes' dPhi/dn; greenfn states its time half
(_gradient_time_half) and that normal derivative (_normal_derivative)
once for the flux, the probe table and the scan.

G(z) depends on the sources and z only, not on the data, so a scan's
kernel rows can be computed before B exists: ``KernelRows.ahead``
computes up to SCAN_AHEAD_BYTES of them, on a worker that the CLI runs
beside the march (forward.side_by_side), and ``scan_indicators`` takes
the indicator over the rows done ahead and computes the rest itself,
through the same row function.  It passes over the rows once for any
number of data matrices, so the data of several noise levels or
inclusion shapes share one scan's kernel work.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, QuadratureError, ReconstructionError, SolverError
from .forward import boundary_diffs, march

# bound here though unused: perfbench's tracer test checks that its wrapper
# reaches every module that binds the single-march solver
from .forward import solve_subdiffusion  # noqa: F401
from .greenfn import _gradient_time_half, _normal_derivative, _separated, approx_fundamental
from .measure import ProbeTable
from .mesh import InclusionSet
from .textfile import write_hashed

GAUSS_POINTS_PER_PANEL = 8
REFINEMENT_LEVELS = 6
SENTINEL_RATIO = 1e-14
SENTINEL_VALUE = 1e14
_LEGENDRE = np.polynomial.legendre.leggauss(GAUSS_POINTS_PER_PANEL)
# The most bytes of kernel rows that KernelRows.ahead computes and holds
# before their indicator is taken: 8 B x resolution x n^2 per grid row.  It
# holds a whole 101x101 scan against the default 10 sources (8.2 MB,
# example43) or a 41x41 one (1.3 MB); held rows add their size to the peak RSS.
# Against the 20 sources of a quarter arc a 101x101 scan needs 33 MB, and
# the rows past the budget are computed when the scan is taken.
SCAN_AHEAD_BYTES = 8 * 2**20


@dataclass(frozen=True)
class SourceSet:
    """Probe/background source points on an arc outside the domain.

    The arc has radius ``radius`` and angular width ``aperture`` and is
    centered on the positive x-axis.  It is split into ``n`` cells of
    equal arc measure and the sources sit at the cell midpoints.
    """

    n: int
    radius: float = 2.0
    aperture: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError(f"need at least 2 sources, got {self.n}")
        if self.radius <= 1.0:
            raise ConfigError(
                f"source radius {self.radius} must exceed the domain radius 1"
            )
        if not 0.0 < self.aperture <= 2.0 * np.pi + 1e-12:
            raise ConfigError(f"aperture {self.aperture} outside (0, 2*pi]")

    @property
    def angles(self):
        """Midpoint angles of the n arc cells."""
        start = -0.5 * self.aperture
        step = self.aperture / self.n
        return start + step * (np.arange(self.n) + 0.5)

    @property
    def points(self):
        th = self.angles
        return self.radius * np.column_stack([np.cos(th), np.sin(th)])


def source_configuration(kind, n=None, radius=2.0):
    """Named arc layouts: full circle, half aperture, quarter aperture.

    The limited apertures default to denser source counts (15 on the
    half arc, 20 on the quarter arc) to compensate for the narrower
    observation window.
    """
    layouts = {
        "full": (2.0 * np.pi, 10),
        "half": (np.pi, 15),
        "quarter": (0.5 * np.pi, 20),
    }
    if kind not in layouts:
        raise ConfigError(f"unknown source configuration {kind!r}")
    aperture, default_n = layouts[kind]
    return SourceSet(n=default_n if n is None else n, radius=radius, aperture=aperture)


@dataclass(frozen=True)
class DataMatrix:
    """Measurement matrix with its singular value decomposition.

    B[i, j] holds the measurement of the background solution launched
    from source j against the probe anchored at source i.
    """

    B: np.ndarray
    singular_values: np.ndarray = field(init=False)
    left_vectors: np.ndarray = field(init=False)

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ConfigError(f"data matrix must be square, got shape {B.shape}")
        if not np.all(np.isfinite(B)):
            raise SolverError("data matrix contains non-finite entries")
        u, s, _ = np.linalg.svd(B)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "singular_values", s)
        object.__setattr__(self, "left_vectors", u)

    @property
    def n(self):
        return self.B.shape[0]


def _check_order(alpha, coeffs):
    """alpha, passed beside coeffs, must be the order they were fitted for."""
    if alpha != coeffs.alpha:
        raise ConfigError(f"alpha {alpha} differs from the kernel coefficients' {coeffs.alpha}")


def build_data_matrix(sources, inclusions, alpha, coeffs, mesh, grid, n_terms=3, sigma=0.0, seed=None):
    """Data matrix of the sources: march_sources, then measure_data_matrix
    at noise level sigma; a caller that measures one march at several
    noise levels or seeds takes the two steps itself."""
    u, U = march_sources(sources, inclusions, alpha, coeffs, mesh, grid, n_terms)
    gamma0 = inclusions.gamma0
    return measure_data_matrix(sources, coeffs, mesh, grid, u, U, n_terms, gamma0, sigma, seed)


def march_sources(sources, inclusions, alpha, coeffs, mesh, grid, n_terms=3):
    """Perturbed and background blocks (u, U) of every source, column j for source j.

    For source j the background is the order-``n_terms`` approximate
    fundamental solution launched at that source, with the background
    conductivity gamma0 = inclusions.gamma0; both the perturbed and the
    unperturbed problem are marched from its value at the small positive
    offset t_init = T/2^7, so the initial datum is smooth on the closed
    domain.  alpha must be the order coeffs were fitted for, since it
    sets the march.  All sources march as one block (forward.march) at
    the perturbed conductivity and the background InclusionSet((),
    gamma0), one factorization per conductivity, and each kernel call of
    the initial datum and the flux covers every source.  The flux is gamma0 dPsi/dn,
    greenfn's _normal_derivative with the gradient factor's time half at
    the elapsed time t + t_init.  No noise enters here.
    """
    _check_order(alpha, coeffs)
    gamma0 = inclusions.gamma0
    t_init = grid.t_final / 2.0**7
    pts = sources.points
    d = pts.shape[1]
    # one pole per source: kernel values come out (n_sources, k), transposed to columns
    poles = pts[:, None, :]

    def u0(p):
        return approx_fundamental(coeffs, d, n_terms, p, 0.0, poles, t0=-t_init, gamma0=gamma0).T

    def g(p, t, nrm):
        times = _gradient_time_half(coeffs, d, n_terms, np.array([t + t_init]), gamma0)
        return gamma0 * _normal_derivative(p, nrm, pts, times)[:, 0].T

    return march(mesh, alpha, [inclusions, InclusionSet((), gamma0)], u0, g, grid)


def measure_data_matrix(sources, coeffs, mesh, grid, u, U, n_terms=3, gamma0=1.0, sigma=0.0, seed=None):
    """The data matrix of the blocks (u, U) of march_sources.  Noise, if any,
    is applied to the perturbed trace only, independently per source (see
    forward.boundary_diffs).  B[i, j] is the measurement of source j's
    trace against the probe anchored at source i, every pair in one
    ProbeTable.measure.
    """
    diffs = boundary_diffs(mesh, grid, u, U, sigma=sigma, seed=seed)
    # every trace shares the mesh and time levels
    table = ProbeTable(diffs[0], coeffs, n_terms, gamma0)
    return DataMatrix(table.measure(sources.points, diffs))


def _gauss_panels(t_final):
    """Composite Gauss nodes on a partition refined toward both endpoints.

    Panels halve geometrically toward t=0 and t=T (ratio 2, six levels)
    because the integrand dies super-polynomially there while its scale
    varies over orders of magnitude across the interval.
    """
    half = 0.5 * t_final
    breaks = [0.0] + [half * 2.0 ** (k - REFINEMENT_LEVELS) for k in range(REFINEMENT_LEVELS + 1)]
    breaks += [t_final - b for b in reversed(breaks[:-1])]
    breaks = np.array(breaks)
    xg, wg = _LEGENDRE
    a = breaks[:-1, None]
    b = breaks[1:, None]
    nodes = 0.5 * (b - a) * xg[None, :] + 0.5 * (b + a)
    weights = 0.5 * (b - a) * np.tile(wg, (breaks.size - 1, 1))
    return nodes.ravel(), weights.ravel()


def _forward_time_factors(sources, alpha, coeffs, n_terms, t_final, gamma0):
    """The time half of G's forward factor on the Gauss nodes, and their weights.

    The factor is greenfn's gradient factor f(rho^2, t) at elapsed time t
    (_gradient_time_half).
    """
    _check_order(alpha, coeffs)
    d = sources.points.shape[1]
    t_nodes, t_weights = _gauss_panels(t_final)
    return _gradient_time_half(coeffs, d, n_terms, t_nodes, gamma0), t_weights


def _kernel_matrix(z, sources, time_factors, t_weights):
    """g_matrix with the forward factor's time half already taken."""
    z = np.asarray(z, dtype=float)
    pts = sources.points
    if z.ndim not in (1, 2) or z.shape[-1] != pts.shape[1]:
        raise ConfigError(f"point shape {z.shape} does not match source dimension")
    d = pts.shape[1]
    r2 = np.sum(z * z, axis=-1)
    if np.any(r2 >= 1.0):
        bad = z.reshape(-1, d)[np.argmax(r2)]
        raise ConfigError(f"scan point {bad} must be strictly inside the unit disk")
    rel = z[..., None, :] - pts
    fwd = _separated(np.sum(rel * rel, axis=-1), time_factors)
    C = (fwd[..., ::-1] * t_weights) @ np.swapaxes(fwd, -1, -2)
    G = (rel @ np.swapaxes(rel, -1, -2)) * C
    finite = np.isfinite(G).all(axis=(-2, -1))
    if not finite.all():
        bad = z.reshape(-1, d)[np.argmin(finite)]
        raise QuadratureError(f"kernel integrand not finite at scan point {bad}")
    return G


def g_matrix(z, sources, alpha, coeffs, n_terms=3, t_final=1.0, gamma0=1.0):
    """Kernel matrix of a point inclusion at z against all source pairs.

    Entry (i, j) is (z - x_i).(z - x_j) times the time integral C[i, j]
    of the two reduced-kernel factors, the j factor running forward in
    time and the i factor backward.  The matrix is symmetric: swapping i
    and j is undone by the substitution t -> T - t.  The quadrature nodes
    are symmetric about T/2, so the backward factor is the forward one
    reversed in time.

    The forward factor is evaluated exactly, in separated form: its time
    half once per call (``_forward_time_factors``; ``KernelRows``
    takes it once per scan), and per point only powers of rho^2 and one
    exp per (point, source, node).

    z is one point, shape (d,), giving an (n, n) matrix, or a row of
    points, shape (m, d), giving an (m, n, n) stack.
    """
    time = _forward_time_factors(sources, alpha, coeffs, n_terms, t_final, gamma0)
    return _kernel_matrix(z, sources, *time)


def _check_tau(tau):
    if not 0.0 < tau < 1.0:
        raise ConfigError(f"threshold {tau} outside (0, 1)")


def _scan_axes(region, resolution):
    """x and y nodes of the scan grid over a region strictly inside the unit disk."""
    xmin, xmax, ymin, ymax = region
    if not (xmin < xmax and ymin < ymax):
        raise ConfigError(f"degenerate scan region {region}")
    corner = max(abs(xmin), abs(xmax)) ** 2 + max(abs(ymin), abs(ymax)) ** 2
    if corner >= 1.0:
        raise ConfigError(f"scan region {region} reaches outside the unit disk")
    if resolution < 2:
        raise ConfigError(f"resolution {resolution} too small")
    return np.linspace(xmin, xmax, resolution), np.linspace(ymin, ymax, resolution)


def _scan_points(xs, ys):
    """The scan grid's points, shape (ys.size, xs.size, 2): one grid row per y."""
    return np.stack(np.meshgrid(xs, ys), axis=-1)


def _check_peak_request(m, shape):
    if m < 1:
        raise ConfigError(f"peak count {m} must be positive")
    if min(shape) < 3:
        raise ConfigError("grid too small for peak extraction")


def _check_scan(sources, region, resolution, peaks, k, tau):
    """The scan's and peak search's range checks; k None means tau sets k."""
    _scan_axes(region, resolution)
    _check_peak_request(peaks, (resolution, resolution))
    if k is None:
        _check_tau(tau)
        # truncation_level's floor 2 peaks + 1 must not pass its cap n - 1
        if sources.n < 2 * peaks + 2:
            raise ConfigError(
                f"sources.n = {sources.n} cannot separate scan.peaks = {peaks} "
                f"with scan.k null: it needs sources.n >= {2 * peaks + 2}"
            )
    elif not 0 < k < sources.n:
        # k 0 or n gives a constant W, which has no interior maxima
        raise ConfigError(f"truncation level {k} outside [1, {sources.n - 1}]")


def select_truncation(singular_values, tau=1e-6):
    """Largest k with s_k / s_1 >= tau, or 1 if no k passes.

    The count of singular values at or above tau times the largest one;
    ``truncation_level`` then floors it at 2 peaks + 1 and caps it at
    n - 1.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        raise ConfigError("spectrum is identically zero, nothing to truncate")
    _check_tau(tau)
    k = int(np.sum(s / s[0] >= tau))
    return max(k, 1)


def truncation_level(data, tau, peaks, k):
    """The truncation level of data's indicator when ``peaks`` are sought.

    A zero data matrix is a ReconstructionError whatever k: the data
    carry no signal, and its indicator has no peak to find.  A set k is
    used as given.  With k None it is select_truncation's count at tau,
    raised to at least 2 peaks + 1 and capped at n - 1: each point
    inclusion gives a rank-2 dipole block (Ammari and Kang, LNM 1846,
    2004) and secondary directions near tau, so a threshold alone can
    cut one inclusion's directions short and lose its center.
    """
    if data.singular_values[0] == 0.0:
        raise ReconstructionError("the data matrix is 0; the data carry no signal")
    if k is not None:
        return k
    return min(max(select_truncation(data.singular_values, tau), 2 * peaks + 1), data.n - 1)


def indicator(data, k, g):
    """Frobenius-norm ratio ||G|| / ||Q_k G|| of a kernel matrix G = g.

    g is one kernel matrix (n, n), giving a float, or a stack (m, n, n)
    from a row of points, giving an (m,) array.  A zero G gives 1.  A
    denominator below 1e-14 times the numerator means G(z) lies in the
    span of the leading singular vectors; the value is capped at a large
    finite sentinel so downstream CSV stays finite.
    """
    g = np.asarray(g, dtype=float)
    if not 0 <= k <= data.n:
        raise ConfigError(f"truncation level {k} outside [0, {data.n}]")
    Vk = data.left_vectors[:, :k]
    num = np.linalg.norm(g, axis=(-2, -1))
    den = np.linalg.norm(g - Vk @ (Vk.T @ g), axis=(-2, -1))
    zero = num == 0.0
    w = np.where(zero, 1.0, SENTINEL_VALUE)
    np.divide(num, den, out=w, where=~zero & ~(den < SENTINEL_RATIO * num))
    return w if w.ndim else float(w)


@dataclass(frozen=True)
class IndicatorGrid:
    """Indicator values W on a rectangular scan grid."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.shape != (ys.size, xs.size):
            raise ConfigError(
                f"values shape {values.shape} does not match grid "
                f"({ys.size}, {xs.size})"
            )
        if not np.all(np.isfinite(values)):
            raise SolverError("indicator grid contains non-finite values")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "values", values)

    def to_csv(self, path) -> str:
        """Header x,y,W, then one %.18e line per grid point, x fastest.

        Returns the sha256 hex digest of the file.  Each x is formatted
        once and each y once per grid row, so a row takes one % operation
        over its W values; each row is written as it is made, so the file
        is never held whole.
        """
        xs = ["%.18e," % x for x in self.xs.tolist()]

        def chunks():
            yield "x,y,W\n"
            for y, row in zip(self.ys.tolist(), self.values.tolist()):
                tail = "%.18e,%%.18e\n" % y
                yield "".join([x + tail for x in xs]) % tuple(row)

        return write_hashed(path, chunks())


class KernelRows:
    """The kernel matrices of a scan grid, one grid row at a time, in order.

    The grid is resolution x resolution points over region, strictly
    inside the unit disk; xs and ys, its nodes, and the time half of the
    kernel factor are computed here, once.  Iterating yields each grid
    row's stack of G(z), shape (resolution, n, n), computed by
    _kernel_matrix.  ``ahead()`` computes and holds them, one row after
    another, until the last row or until one more would take the rows it
    holds over SCAN_AHEAD_BYTES, so no row is held if one row is over
    it; the CLI calls it on a worker beside the march
    (forward.side_by_side).  Iterating yields the rows held, dropping
    each as it goes, and computes the rest itself.  ``ahead()`` raises
    nothing: at its first error it stops, and iterating computes that row
    again, so the error is raised where a scan without it raises it.
    """

    def __init__(
        self, sources, alpha, coeffs, *, region=(-0.7, 0.7, -0.7, 0.7), resolution=101,
        n_terms=3, t_final=1.0, gamma0=1.0,
    ):
        self.sources = sources
        self.xs, self.ys = _scan_axes(region, resolution)
        self._time = _forward_time_factors(sources, alpha, coeffs, n_terms, t_final, gamma0)
        self._done = deque()

    def ahead(self):
        """Compute and hold the rows that fit in SCAN_AHEAD_BYTES, in order."""
        row_bytes = 8 * self.xs.size * self.sources.n**2
        try:
            for zs in _scan_points(self.xs, self.ys)[: SCAN_AHEAD_BYTES // row_bytes]:
                self._done.append(_kernel_matrix(zs, self.sources, *self._time))
        except Exception:
            # iterating computes this row again and raises the error there
            return

    def __iter__(self):
        start = len(self._done)
        while self._done:
            yield self._done.popleft()
        for zs in _scan_points(self.xs, self.ys)[start:]:
            yield _kernel_matrix(zs, self.sources, *self._time)


def scan_indicator(data, rows, k):
    """Evaluate the indicator over the scan grid of rows, a KernelRows, at
    truncation level k: the one-pair case of scan_indicators."""
    return scan_indicators([(data, k)], rows)[0]


def scan_indicators(measured, rows):
    """The indicator grids of several (data, k) pairs in one pass over rows.

    rows is a KernelRows, and k is the truncation level of its data
    (the CLI takes truncation_level's).  The time half of the kernel
    factor is taken once, and each grid row's kernel matrices once,
    whatever the number of pairs; every pair's indicator is then taken
    on that row, so data matrices measured at several noise levels cost
    one scan's kernel work.  rows.ahead(), if called, has computed the
    first rows (the CLI calls it beside the march); the rest are computed
    here.  Returns one IndicatorGrid per pair, in order.
    """
    values = np.stack([[indicator(data, k, g) for data, k in measured] for g in rows], axis=1)
    return [IndicatorGrid(xs=rows.xs, ys=rows.ys, values=v) for v in values]


def peak_extract(grid, m, min_separation=0.0):
    """Top m local maxima of the indicator field, strongest first.

    A node counts as a peak when it strictly exceeds all 8 neighbors;
    border nodes are excluded.  Peaks closer than ``min_separation`` to
    an already accepted stronger peak are suppressed.
    """
    v = grid.values
    _check_peak_request(m, v.shape)
    core = v[1:-1, 1:-1]
    mask = np.ones(core.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            shifted = v[1 + di : v.shape[0] - 1 + di, 1 + dj : v.shape[1] - 1 + dj]
            mask &= core > shifted
    ii, jj = np.nonzero(mask)
    if ii.size == 0:
        raise ReconstructionError("indicator field has no interior local maxima")
    order = np.argsort(core[ii, jj])[::-1]
    accepted = []
    for idx in order:
        p = np.array([grid.xs[jj[idx] + 1], grid.ys[ii[idx] + 1]])
        if any(np.linalg.norm(p - q) < min_separation for q in accepted):
            continue
        accepted.append(p)
        if len(accepted) == m:
            return accepted
    raise ReconstructionError(
        f"found only {len(accepted)} separated peaks, {m} requested"
    )
