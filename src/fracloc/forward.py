"""P1 finite element forward solver for the subdiffusion problem.

Space: conforming linear elements on a graded disk mesh with
piecewise-constant conductivity (one value per region tag).  Time: the
L1 convolution quadrature of the Caputo derivative on a uniform grid,

    dt^alpha u(t_n) ~ beta sum_{j<n} b_{n-1-j} (u^{j+1} - u^j),
    beta = dt^(-alpha) / Gamma(2 - alpha),

which yields one linear solve per step with the time-independent SPD
matrix beta M + K.  It is factored once per conductivity, by SuperLU
with a symmetric minimum-degree ordering of A + A^T and diagonal pivots,
which fills in less than the default COLAMD ordering with partial
pivoting.  A step then does three things per conductivity: the history
sum as one product of that step's row of L1 weights with the stored
levels (O(n^2) in the step count, fine at the default 2^7 steps), one
product with beta M and one solve.  The Neumann load is a sparse
edge-to-node operator, built once per march, applied to the flux at
both endpoints of every boundary edge.  Every march runs through the one
function ``_march_block``, which assembles, factors and runs the L1 loop:

* ``solve_subdiffusion`` / ``solve_background``: one data set, with an
  optional volumetric source; the ``forward`` command marches u this
  way;
* ``solve_block``: a block of data sets at the perturbed conductivity,
  one factorization and one load per step for the block; ``locate-one``
  and ``oracle-check`` march u for both axis directions this way;
* ``solve_pair``: a block against the perturbed and the background
  conductivity, one factorization per conductivity and one load per
  step for both; the multi-inclusion data matrix is built this way.

``forward``, ``locate-one`` and ``oracle-check`` take the harmonic
background U = a.x as it is at every level, without a march: with
flux gamma0 a.n it solves the background problem exactly in P1.

``boundary_diffs`` turns a marched block (u, U) into the noisy boundary
traces of u - U, one per column, that both locators measure.

Data callables:
    f(points (k,2), t) -> (k,) volumetric source, None for zero
    u0(points (k,2)) -> (k,) initial datum, None for zero
    g(points (k,2), t, normals (k,2)) -> (k,) Neumann flux, None for zero

g receives the outward unit normal of the polygonal boundary edge being
integrated, so fluxes defined through the normal (e.g. gamma0 a.n for a
harmonic background a.x) are reproduced exactly in P1.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .errors import ConfigError, SolverError
from .fracmath import TimeGrid, _check_alpha, l1_weights
from .mesh import InclusionSet, Mesh


# values per block of columns formatted at once in _write_rows
_ROW_BLOCK = 1 << 16


def _write_rows(path, label_name, labels, values) -> None:
    """One CSV line per column of values (levels x columns): its label, then each level.

    Every value is written as repr of its Python float.  Per block of
    columns, repr runs once per bitwise-distinct value (0.0 and -0.0 stay
    apart), so a field that repeats its values, such as U = a.x over the
    levels, formats one string per node instead of one per entry.  A
    block holds at most _ROW_BLOCK values' strings at once.
    """
    n_levels, n_columns = values.shape
    step = max(1, _ROW_BLOCK // n_levels)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{label_name}," + ",".join(f"t{j}" for j in range(n_levels)) + "\n")
        for start in range(0, n_columns, step):
            block = np.ascontiguousarray(values[:, start : start + step].T, dtype=float)
            keys, inverse = np.unique(block.view(np.int64), return_inverse=True)
            text = np.array(list(map(repr, keys.view(float).tolist())), dtype=object)
            rows = (row.tolist() for row in text[inverse.reshape(block.shape)])
            for label, row in zip(labels[start : start + step], rows):
                fh.write(label + "," + ",".join(row) + "\n")


@dataclass(frozen=True)
class SpaceTimeField:
    """Nodal values of a fully discrete solution, one row per time level."""

    mesh: Mesh
    grid: TimeGrid
    values: np.ndarray  # (n_steps + 1, n_nodes)

    def __post_init__(self):
        if self.values.shape != (self.grid.n_steps + 1, len(self.mesh.vertices)):
            raise ConfigError(
                f"field shape {self.values.shape} does not match grid/mesh "
                f"({self.grid.n_steps + 1}, {len(self.mesh.vertices)})"
            )
        if not np.all(np.isfinite(self.values)):
            raise SolverError("field contains non-finite values")

    def to_csv(self, path) -> None:
        _write_rows(path, "node", [str(i) for i in range(self.values.shape[1])], self.values)


@dataclass(frozen=True)
class BoundaryTrace:
    """Scalar samples on the boundary nodes at every time level.

    node_ids index into the producing mesh; arc_weights are the
    trapezoidal arc-length weights of the polygonal boundary, so
    integral over the boundary ~ sum(arc_weights * values_at_level).
    """

    grid: TimeGrid
    node_ids: np.ndarray
    angles: np.ndarray
    arc_weights: np.ndarray
    values: np.ndarray  # (n_steps + 1, n_boundary_nodes)

    def __post_init__(self):
        nb = len(self.node_ids)
        if self.values.shape != (self.grid.n_steps + 1, nb):
            raise ConfigError(
                f"trace shape {self.values.shape} does not match grid/nodes ({self.grid.n_steps + 1}, {nb})"
            )
        if len(self.angles) != nb or len(self.arc_weights) != nb:
            raise ConfigError("angles/arc_weights length must match node count")

    def l1_norm(self) -> float:
        """L1 norm over boundary x [0, T]: trapezoid in time, arcs in space."""
        per_level = np.abs(self.values) @ self.arc_weights
        return float(per_level @ self.grid.weights)

    def diff(self, other: "BoundaryTrace") -> "BoundaryTrace":
        if other.values.shape != self.values.shape:
            raise ConfigError("trace shapes differ")
        if not np.array_equal(other.node_ids, self.node_ids):
            raise ConfigError("traces come from different boundary node sets")
        return replace(self, values=self.values - other.values)

    def to_csv(self, path) -> None:
        angles = np.asarray(self.angles, dtype=float).tolist()
        _write_rows(path, "angle", list(map(repr, angles)), self.values)


def assemble_matrices(mesh: Mesh, gamma_tri: np.ndarray):
    """Consistent P1 mass matrix and conductivity-weighted stiffness."""
    verts = mesh.vertices
    tris = mesh.triangles
    x = verts[tris, 0]
    y = verts[tris, 1]
    # edge vectors opposite each local vertex
    bvec = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    cvec = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = x[:, 0] * bvec[:, 0] + x[:, 1] * bvec[:, 1] + x[:, 2] * bvec[:, 2]
    if np.any(area2 <= 0.0):
        raise SolverError("non-positively-oriented triangle in assembly")
    area = 0.5 * area2

    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()

    k_loc = (
        gamma_tri[:, None, None]
        * (bvec[:, :, None] * bvec[:, None, :] + cvec[:, :, None] * cvec[:, None, :])
        / (4.0 * area[:, None, None])
    )
    m_loc = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))[None, :, :]

    n = len(verts)
    K = coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return M, K


def _neumann_operator(mesh: Mesh):
    """Sparse (n_nodes, 2 n_edges) map from edge-endpoint fluxes to the boundary load.

    Column e takes the flux at the first endpoint of boundary edge e and
    column n_edges + e the flux at its second; an edge of length L adds
    L (2 g_i + g_j) / 6 to its first node and L (g_i + 2 g_j) / 6 to its
    second, the exact load of a flux linear along the edge.
    """
    i = mesh.boundary_edges[:, 0]
    j = mesh.boundary_edges[:, 1]
    pi = mesh.vertices[i]
    pj = mesh.vertices[j]
    sixth = np.hypot(pj[:, 0] - pi[:, 0], pj[:, 1] - pi[:, 1]) / 6.0
    e = np.arange(len(i))
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([e, e, e + len(e), e + len(e)])
    vals = np.concatenate([2.0 * sixth, sixth, sixth, 2.0 * sixth])
    n = len(mesh.vertices)
    return coo_matrix((vals, (rows, cols)), shape=(n, 2 * len(e))).tocsr()


def _edge_fluxes(mesh: Mesh, g, t: float) -> np.ndarray:
    """g at the first endpoints of the boundary edges, then at the second ones."""
    ends = mesh.vertices[mesh.boundary_edges.T]
    return np.concatenate(
        [np.asarray(g(p, t, mesh.boundary_normals), dtype=float) for p in ends]
    )


def neumann_load(mesh: Mesh, g, t: float) -> np.ndarray:
    """Boundary load vector int_dOmega g phi_i ds on the polygonal edges.

    g is evaluated at both endpoints of every edge with that edge's
    outward normal, making edge-wise linear fluxes exact.  A g returning
    (k, m) gives one load column per flux, shape (n_nodes, m).
    """
    if g is None:
        return np.zeros(len(mesh.vertices))
    return _neumann_operator(mesh) @ _edge_fluxes(mesh, g, t)


def _l1_constants(alpha: float, grid: TimeGrid):
    """beta = dt^(-alpha) / Gamma(2 - alpha) and the L1 weights b."""
    _check_alpha(alpha)
    beta = grid.dt ** (-alpha) / math.gamma(2.0 - alpha)
    return beta, l1_weights(alpha, grid.n_steps)


def _factor(M, K, beta):
    """Sparse LU of the SPD time-step matrix beta M + K.

    The columns are ordered by minimum degree on the symmetric pattern
    A + A^T and the pivots are taken on the diagonal, so L and U keep
    the symmetric structure with less fill than a COLAMD ordering with
    partial pivoting.
    """
    try:
        return splu(
            (beta * M + K).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverError(f"factorization of the time-step matrix failed: {exc}") from exc


def solve_subdiffusion(
    mesh: Mesh,
    alpha: float,
    inclusions: InclusionSet | None,
    f,
    u0,
    g,
    grid: TimeGrid,
    gamma0: float = 1.0,
) -> SpaceTimeField:
    """March the L1 / P1 scheme for the conductivity problem.

    With inclusions = None the conductivity is gamma0 everywhere (the
    background problem); otherwise gamma0 is taken from the inclusion
    set and the region tags select the per-triangle value.
    """
    if inclusions is not None:
        gamma_tri = inclusions.gamma_of_tag(mesh.region_tag)
    else:
        if gamma0 <= 0.0:
            raise ConfigError(f"gamma0 must be positive, got {gamma0}")
        gamma_tri = np.full(len(mesh.triangles), gamma0)
    (values,) = _march_block(mesh, alpha, [gamma_tri], u0, g, grid, f)
    return SpaceTimeField(mesh=mesh, grid=grid, values=values)


def _march_block(mesh: Mesh, alpha: float, gammas, u0, g, grid: TimeGrid, f=None):
    """March one block of data sets at each per-triangle conductivity in gammas.

    The one setup and L1 time loop of every march.  u0(points) -> (k,)
    or (k, m) and g(points, t, normals) -> the same shape give one
    column per data set; u0 = None is a zero start of one data set, and
    f adds the volumetric load M f(points, t).  Each conductivity is
    assembled and factored once (see _factor); beta M and the Neumann
    operator are formed once per march, and each step's load is computed
    once for all conductivities.  A step then takes, per conductivity,
    the L1 history as one product of that step's weight row with the
    stored levels, one product with beta M and one solve.  The levels
    are checked for finiteness once, after the loop.  Returns one array
    of shape (n_steps + 1, n_nodes) or (n_steps + 1, n_nodes, m) per
    conductivity.
    """
    beta, b = _l1_constants(alpha, grid)
    vertices = mesh.vertices
    init = np.zeros(len(vertices)) if u0 is None else np.asarray(u0(vertices), dtype=float)
    n_levels = grid.n_steps + 1
    marches = []
    for gamma_tri in gammas:
        M, K = assemble_matrices(mesh, gamma_tri)
        values = np.zeros((n_levels,) + init.shape)
        values[0] = init
        marches.append((_factor(M, K, beta), values))
    # the mass matrix M does not depend on the conductivity
    beta_m = beta * M
    to_load = None if g is None else _neumann_operator(mesh)
    # step n's history weights: u^0 gets b[n-1] and u^j, 1 <= j < n,
    # gets b[n-1-j] - b[n-j]; the latter are the last n - 1 entries of
    # the reversed differences
    diffs = (b[:-1] - b[1:])[::-1]
    row = np.empty(n_levels)
    nodes_t = grid.nodes
    for n in range(1, n_levels):
        load = 0.0
        if g is not None:
            load = to_load @ _edge_fluxes(mesh, g, nodes_t[n])
        if f is not None:
            load = load + M @ np.asarray(f(vertices, nodes_t[n]), dtype=float)
        row[0] = b[n - 1]
        row[1:n] = diffs[len(diffs) - (n - 1) :]
        for lu, values in marches:
            hist = (row[:n] @ values[:n].reshape(n, -1)).reshape(init.shape)
            values[n] = lu.solve(load + beta_m @ hist)
    finite = np.all(
        [np.isfinite(values.reshape(n_levels, -1)).all(axis=1) for _, values in marches], axis=0
    )
    if not finite.all():
        raise SolverError(f"non-finite solution at time step {int(np.argmin(finite))}")
    return [values for _, values in marches]


def solve_block(mesh: Mesh, alpha: float, inclusions: InclusionSet, u0, g, grid: TimeGrid):
    """Perturbed march of a block of m data sets (see _march_block).

    One assembly, one factorization and one Neumann load per step for
    the whole block; returns the nodal values, shape (n_steps + 1,
    n_nodes, m).
    """
    (u,) = _march_block(mesh, alpha, [inclusions.gamma_of_tag(mesh.region_tag)], u0, g, grid)
    return u


def solve_pair(mesh: Mesh, alpha: float, inclusions: InclusionSet, u0, g, grid: TimeGrid):
    """Perturbed and background marches of a block of m data sets.

    The background conductivity is inclusions.gamma0 everywhere; both
    marches share each step's load (see _march_block).  Returns the
    nodal values (u, U), each of shape (n_steps + 1, n_nodes, m).
    """
    gammas = [
        inclusions.gamma_of_tag(mesh.region_tag),
        np.full(len(mesh.triangles), inclusions.gamma0),
    ]
    u, U = _march_block(mesh, alpha, gammas, u0, g, grid)
    return u, U


def solve_background(
    mesh: Mesh, alpha: float, f, u0, g, grid: TimeGrid, gamma0: float = 1.0
) -> SpaceTimeField:
    """The same march with homogeneous conductivity gamma0."""
    return solve_subdiffusion(mesh, alpha, None, f, u0, g, grid, gamma0=gamma0)


def boundary_restrict(field: SpaceTimeField) -> BoundaryTrace:
    """Restrict a field to the ordered boundary nodes of its mesh."""
    mesh = field.mesh
    ids = mesh.boundary_nodes
    pts = mesh.vertices[ids]
    lengths = mesh.edge_lengths()
    # trapezoid weight per node: half the two adjacent edge lengths
    weights = 0.5 * (lengths + np.roll(lengths, 1))
    return BoundaryTrace(
        grid=field.grid,
        node_ids=ids.copy(),
        angles=np.arctan2(pts[:, 1], pts[:, 0]),
        arc_weights=weights,
        values=field.values[:, ids].copy(),
    )


def add_noise(trace: BoundaryTrace, sigma: float, seed) -> BoundaryTrace:
    """Additive nodal Gaussian noise with a prescribed relative L1 level.

    Draws i.i.d. standard normal values per (node, level), then rescales
    the whole sample so the ratio noise-L1 / signal-L1 equals |delta|
    with delta ~ N(0, sigma^2).  Deterministic for a fixed seed (any
    seed numpy.random.default_rng takes); sigma = 0 returns the trace
    unchanged.
    """
    if sigma < 0.0:
        raise ConfigError(f"noise level must be nonnegative, got {sigma}")
    rng = np.random.default_rng(seed)
    zeta = rng.standard_normal(trace.values.shape)
    delta = rng.normal(0.0, sigma)
    noise_l1 = replace(trace, values=zeta).l1_norm()
    if noise_l1 == 0.0:
        raise SolverError("degenerate noise draw with zero L1 norm")
    scale = abs(delta) * trace.l1_norm() / noise_l1
    return replace(trace, values=trace.values + scale * zeta)


def boundary_diffs(mesh: Mesh, grid: TimeGrid, u, U, sigma: float = 0.0, seed=None):
    """Noisy boundary traces of u[..., j] - U[..., j], one per column j.

    u and U are blocks of shape (n_steps + 1, n_nodes, m), U possibly a
    broadcast view.  With sigma != 0 the u trace of column j gets
    add_noise seeded by the j-th child spawned from seed, so the columns
    draw independent noise; U is the noiseless reference.  Returns a
    list of m BoundaryTraces.
    """
    children = np.random.SeedSequence(seed).spawn(u.shape[-1])
    diffs = []
    for j, child in enumerate(children):
        tr = boundary_restrict(SpaceTimeField(mesh, grid, u[..., j]))
        if sigma != 0.0:
            tr = add_noise(tr, sigma, child)
        diffs.append(tr.diff(boundary_restrict(SpaceTimeField(mesh, grid, U[..., j]))))
    return diffs
