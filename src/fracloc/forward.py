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
pivoting.  The history sum of step n weighs every stored level before
it, so the march does O(n^2) work in the step count; it takes it in
blocks of steps, as in the far/near split of Hairer, Lubich and
Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985): one matrix product per
block sums the levels before the block for all its steps at once, and a
step then adds only the levels inside its block, takes one product with
beta M and one solve.  The Neumann load reaches the boundary nodes
only; before the march, one call of the flux per step, at both endpoints
of every boundary edge, and one array expression along the boundary loop
take it there for every step.  Every march is one call of ``march``,
which takes a block of data sets (one column each) and a list of
inclusion sets, one conductivity each, evaluates the data of every step
once for all of them, then assembles, factors and runs the L1 loop of
each conductivity side by side: the first on the calling thread, each
further one on a worker thread of its own, all at the same time.
``locate-one`` and ``oracle-check`` march u for both axis directions as
one block at the perturbed conductivity; the multi-inclusion data matrix
marches a block against the perturbed and the background conductivity
``InclusionSet((), gamma0)``, on two threads.  ``solve_subdiffusion``
is its one-set case with one data set and an optional volumetric
source, which returns the field; the ``forward`` command marches u this
way, and ``solve_background`` is the same march with an empty set.

The two threads overlap only in part.  SuperLU releases the GIL for a
solve, but a solve still waits while another thread holds the GIL,
which fits scipy's allocator for SuperLU taking it back inside the
solve (the ``_superlu`` extension imports PyGILState_Ensure and
PyDict_SetItem).  On a 2-core x86 VM and a 1,727-node multi-scan mesh,
2 x 128 one-column solves, each thread with its own factor, took
40.7 ms on two threads against 30.6 ms one after the other, and
ten-column solves 109 against 171 ms; a thread of solves beside a
pure-Python thread managed 47 solves in 0.3 s, against 2,327 alone.
Every BLAS product of the march is taken in chunks small enough that
OpenBLAS runs each one on the calling thread (see _block_history): its
threads then neither contend with the march for the cores nor change
the rounding, so every march gives the same bits under any BLAS thread
count.

``side_by_side`` is the one place that starts threads.  It runs one
call on the calling thread and each other call on a worker of its own,
under the caller's floating-point state (np.geterr()), and raises the
error of the first call in its list that failed once every call has
stopped.  The march runs its conductivities through it, u on the
calling thread and U on a worker for ``locate-multi``; the ``forward``
command marches u on the calling thread while a worker writes
``mesh.txt`` and the background files, whose error comes first; and
``locate-multi`` marches on the calling thread while a worker computes
the scan's kernel rows (locate_multi.KernelRows.ahead), so a march
error comes first.

``forward`` writes beside its march because none of those files depends
on u: on forward-io ops its median op took 0.89 of its one-thread time
(BENCH_36.json).  The cost is the GIL.  Hashing and writing a file
release it, but formatting text holds it, and the march's solves wait
for it while the writer formats (the same retake as above): beside the
writer a forward-io march took 1.19-1.33 times as long as alone, on the
VM above, most of it for mesh.txt's float reprs.  The writer makes
mesh.txt a section at a time (Mesh.save) and a CSV file a line at a
time (_write_rows); textfile.write_hashed writes and hashes them in
blocks of 64 KiB.

``forward``, ``locate-one`` and ``oracle-check`` take the harmonic
background U = a.x as it is at every level, without a march: with
flux gamma0 a.n it solves the background problem exactly in P1.

``boundary_diffs`` turns a marched block (u, U) into the noisy boundary
traces of u - U, one per column, that both locators measure.  A
BoundaryTrace states the quadrature over the boundary x [0, T] once, as
one table of weights over levels x nodes (``BoundaryTrace.weights``: the
trapezoid in time times the mesh's arc weights); every boundary
measurement and the noise model's L1 norm read it.

Data callables:
    f(points (k,2), t) -> (k,) volumetric source, None for zero
    u0(points (k,2)) -> (k,) initial datum, None for zero
    g(points (k,2), t, normals (k,2)) -> (k,) Neumann flux, None for zero

g receives the outward unit normal of the polygonal boundary edge being
integrated, so fluxes defined through the normal (e.g. gamma0 a.n for a
harmonic background a.x) are reproduced exactly in P1.
"""

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .errors import ConfigError, SolverError
from .fracmath import TimeGrid, l1_constants
from .mesh import InclusionSet, Mesh
from .textfile import write_hashed


def _write_rows(path, label_name, labels, values) -> str:
    """One CSV line per column of values (levels x columns): its label, then each level.

    Every value is written as repr of its Python float.  A column whose
    levels are bitwise equal (0.0 and -0.0 stay apart) is formatted
    once and repeated, so U = a.x costs one repr per node instead of one
    per node and level.  Each line goes to the file as it is made.
    Returns the sha256 hex digest of the file.
    """
    values = np.asarray(values, dtype=float)
    n_levels = values.shape[0]
    bits = values.view(np.int64)
    constant = (bits.min(axis=0) == bits.max(axis=0)).tolist()

    def lines():
        yield f"{label_name}," + ",".join(f"t{j}" for j in range(n_levels)) + "\n"
        for j, (label, same, first) in enumerate(zip(labels, constant, values[0].tolist())):
            if same:
                yield f"{label}{(',' + repr(first)) * n_levels}\n"
            else:
                yield f"{label},{','.join(map(repr, values[:, j].tolist()))}\n"

    return write_hashed(path, lines())


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

    def to_csv(self, path) -> str:
        """One line per node: its value at every level.

        Returns the sha256 hex digest of the file.
        """
        return _write_rows(path, "node", map(str, range(self.values.shape[1])), self.values)


@dataclass(frozen=True)
class BoundaryTrace:
    """Scalar samples on the boundary loop of a mesh at every time level.

    Column i holds boundary node i, the mesh's vertex i (see Mesh), so the
    trace's points, its CSV angles and its arc weights are the mesh's.
    """

    mesh: Mesh
    grid: TimeGrid
    values: np.ndarray  # (n_steps + 1, n_boundary)

    def __post_init__(self):
        want = (self.grid.n_steps + 1, self.mesh.n_boundary)
        if self.values.shape != want:
            raise ConfigError(f"trace shape {self.values.shape} does not match grid/nodes {want}")

    @property
    def points(self) -> np.ndarray:
        """(n_boundary, 2) the boundary nodes: a view of the mesh's first vertices."""
        return self.mesh.vertices[: self.mesh.n_boundary]

    @property
    def weights(self) -> np.ndarray:
        """(n_steps + 1, n_boundary) the quadrature over the boundary x [0, T]:
        the trapezoid in time times the mesh's trapezoidal arc weights."""
        return np.outer(self.grid.weights, self.mesh.arc_weights)

    def l1_norm(self) -> float:
        """L1 norm over boundary x [0, T] in the quadrature of weights."""
        return float((np.abs(self.values) * self.weights).sum())

    def check_matches(self, other: "BoundaryTrace") -> None:
        """Refuse a trace on another mesh or time grid."""
        if other.mesh is not self.mesh or other.grid != self.grid:
            raise ConfigError("traces lie on different meshes or time grids")

    def diff(self, other: "BoundaryTrace") -> "BoundaryTrace":
        self.check_matches(other)
        return replace(self, values=self.values - other.values)

    def to_csv(self, path) -> str:
        """One line per node: its polar angle, then its value at every level.

        Returns the sha256 hex digest of the file.
        """
        pts = self.points
        angles = np.arctan2(pts[:, 1], pts[:, 0]).tolist()
        return _write_rows(path, "angle", map(repr, angles), self.values)


def assemble_matrices(mesh: Mesh, gamma_tri: np.ndarray):
    """Consistent P1 mass matrix and conductivity-weighted stiffness."""
    tris = mesh.triangles
    bvec, cvec, area2 = mesh.p1_gradients()
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

    n = len(mesh.vertices)
    K = coo_matrix((k_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M = coo_matrix((m_loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return M, K


def _boundary_loads(mesh: Mesh, g, times) -> np.ndarray:
    """The Neumann load of flux g at each time, on the mesh's boundary nodes.

    An edge of length L with fluxes g_i, g_j at its ends adds
    L (2 g_i + g_j) / 6 to its first node and L (g_i + 2 g_j) / 6 to its
    second, the exact load of a flux linear along the edge; the load
    reaches no other node.  Boundary edge e runs from boundary node e to
    node e + 1, the last one back to node 0 (the Mesh derives its edges
    so), so the second node's share is a roll by one along the loop.
    Each time takes one call of g, at the first endpoints of every edge
    stacked over the second ones, each with its edge's normal.  Shape
    (n_boundary, len(times)) or (n_boundary, len(times), m).
    """
    nb = mesh.n_boundary
    ends = mesh.vertices[mesh.boundary_edges.T].reshape(2 * nb, 2)
    normals = np.tile(mesh.boundary_normals, (2, 1))
    fluxes = np.stack([np.asarray(g(ends, t, normals), dtype=float) for t in times], axis=1)
    first, second = fluxes[:nb], fluxes[nb:]
    sixth = (mesh.edge_lengths() / 6.0).reshape((nb,) + (1,) * (fluxes.ndim - 1))
    return sixth * (2 * first + second) + np.roll(sixth * (first + 2 * second), 1, axis=0)


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
    mesh: Mesh, alpha: float, inclusions: InclusionSet, f, u0, g, grid: TimeGrid
) -> SpaceTimeField:
    """March the L1 / P1 scheme for the conductivity of one inclusion set:
    march's one-set case, one data set with an optional source f."""
    (values,) = march(mesh, alpha, [inclusions], u0, g, grid, f)
    return SpaceTimeField(mesh=mesh, grid=grid, values=values)


# OpenBLAS takes a gemm (m x k) @ (k x n) on the calling thread when
# m n k <= 65536 * GEMM_MULTITHREAD_THRESHOLD = 262144 (interface/gemm.c).
_ONE_THREAD_GEMM = 262_144

# Levels per block of the blocked history (see march).
_BLOCK = 16


def _block_history(weights, levels, out):
    """out = weights @ levels for weights (m, k) and levels (k, width).

    Zeros for k = 0.  The product is taken in column chunks of
    m n k <= _ONE_THREAD_GEMM, so OpenBLAS runs each on the calling
    thread (numpy takes a one-row chunk as a gemv, whose threads start
    only from 460800 entries): the bits do not depend on the BLAS thread
    count, and idle BLAS threads do not spin while the march threads
    solve.
    """
    m, k = weights.shape
    step = max(1, _ONE_THREAD_GEMM // max(m * k, 1))
    for lo in range(0, levels.shape[1], step):
        np.matmul(weights, levels[:, lo : lo + step], out=out[:, lo : lo + step])


def side_by_side(calls, caller=0):
    """Call every function of calls at the same time; return their results in order.

    calls[caller] runs on the calling thread and each other call on a
    worker thread of its own, under the caller's floating-point state
    (np.geterr()).  No worker outlives side_by_side: once every call has
    stopped, the error of the first call in calls that raised, if any,
    reaches the caller as it was raised.
    """
    state = np.geterr()
    with ThreadPoolExecutor(max_workers=max(len(calls) - 1, 1)) as pool:
        futures = [
            None if i == caller else pool.submit(np.errstate(**state)(call)) for i, call in enumerate(calls)
        ]
        futures[caller] = here = Future()
        try:
            here.set_result(calls[caller]())
        except BaseException as exc:
            here.set_exception(exc)
    return [future.result() for future in futures]


def march(mesh: Mesh, alpha: float, conductivities, u0, g, grid: TimeGrid, f=None):
    """March one block of data sets at the conductivity of each inclusion set.

    The one setup and L1 time loop of every march.  Inclusion set c of
    conductivities gives c.gamma0 in the background and each inclusion's
    gamma on the triangles its region tag selects; the background
    conductivity is InclusionSet((), gamma0).  u0(points) -> (k,)
    or (k, m) and g(points, t, normals) -> the same shape give one
    column per data set; u0 = None is a zero start of one data set, and
    f adds the volumetric load M f(points, t).  The fluxes g and the
    source values f of every step are evaluated once, before the
    march, for all conductivities.  The conductivities then march side
    by side (see side_by_side), the first on the calling thread; an
    error reaches the caller once every march has stopped, the first
    conductivity's first.  Each conductivity is assembled and factored
    once (see _factor).

    The L1 history of step n is the sum of w[n, j] u^j over the levels
    j < n.  It is taken in blocks of _BLOCK levels [n0, n1): at the start
    of a block, one matrix product of its steps' weight rows with the
    levels before n0 (see _block_history) sums those far levels for all
    its steps at once, into the block's rows of the levels, which no
    step has solved yet (the far sums of the first block, n0 = 0, are
    0).  Step n then adds its near levels n0..n-1 to the far sum in its
    own row, in a one-row product of (w[n, n0:n], 1) with levels n0..n
    (see _block_history) into one buffer of the march, and takes one
    product with beta M, its Neumann load on the boundary nodes (see
    _boundary_loads, one flux call per step, all taken before the
    march), the product of M with its f values, if any, and one solve.
    The levels are checked for finiteness once, after the loop (see cli).
    Returns one array of shape (n_steps + 1, n_nodes) or (n_steps + 1,
    n_nodes, m) per conductivity.
    """
    beta, b = l1_constants(alpha, grid)
    vertices = mesh.vertices
    init = np.zeros(len(vertices)) if u0 is None else np.asarray(u0(vertices), dtype=float)
    n_levels = grid.n_steps + 1
    steps = grid.nodes[1:]
    sources = None if f is None else [np.asarray(f(vertices, t), dtype=float) for t in steps]
    # the boundary nodes are the first ones (see Mesh), so rhs[:nb] is the rim
    rim_loads = None if g is None else _boundary_loads(mesh, g, steps)
    # d[k] = b[k] - b[k+1], with b[n_steps] taken as 0
    d = -np.diff(b, append=0.0)

    def run(inclusions):
        M, K = assemble_matrices(mesh, inclusions.gamma_of_tag(mesh.region_tag))
        lu = _factor(M, K, beta)
        beta_m = beta * M
        values = np.zeros((n_levels,) + init.shape)
        values[0] = init
        levels = values.reshape(n_levels, -1)
        near = np.empty((1, levels.shape[1]))
        for n0 in range(0, n_levels, _BLOCK):
            n1 = min(n0 + _BLOCK, n_levels)
            first = max(n0, 1)
            # row n - first weighs u^0 by b[n-1] and u^j, 0 < j < n, by
            # d[n-1-j]; its column n, where step n finds the far sum
            # (0 in the first block), by 1, and its later columns by 0
            lag = np.arange(first, n1)[:, None] - np.arange(n1)
            w = np.where(lag > 0, d[np.maximum(lag, 1) - 1], lag == 0)
            w[:, 0] = b[first - 1 : n1 - 1]
            # the first block has no far levels, but its rows are still
            # written (as zeros) before its steps read them: reading a
            # page of the fresh levels before writing it costs two page
            # faults instead of one
            _block_history(w[:, :n0], levels[:n0], levels[first:n1])
            for n in range(first, n1):
                _block_history(w[n - first : n - first + 1, n0 : n + 1], levels[n0 : n + 1], near)
                rhs = beta_m @ near.reshape(init.shape)
                if rim_loads is not None:
                    rhs[: len(rim_loads)] += rim_loads[:, n - 1]
                if f is not None:
                    rhs += M @ sources[n - 1]
                values[n] = lu.solve(rhs)
        return values

    # a worker thread raised the peak RSS of a one-conductivity op by
    # 1-2 MB, so the calling thread marches the first conductivity itself
    # the worker pays: marched in turn, multi-scan ops took 1.24x as long (10 of 10 pairs, 2-core VM)
    fields = side_by_side([partial(run, inclusions) for inclusions in conductivities])
    finite = np.all([np.isfinite(v.reshape(n_levels, -1)).all(axis=1) for v in fields], axis=0)
    if not finite.all():
        raise SolverError(f"non-finite solution at time step {int(np.argmin(finite))}")
    return fields


def solve_background(
    mesh: Mesh, alpha: float, f, u0, g, grid: TimeGrid, gamma0: float = 1.0
) -> SpaceTimeField:
    """The same march with homogeneous conductivity gamma0."""
    return solve_subdiffusion(mesh, alpha, InclusionSet(items=(), gamma0=gamma0), f, u0, g, grid)


def boundary_restrict(field: SpaceTimeField) -> BoundaryTrace:
    """Restrict a field to the boundary nodes of its mesh, the first ones."""
    mesh = field.mesh
    return BoundaryTrace(mesh, field.grid, field.values[:, : mesh.n_boundary])


def _check_sigma(sigma: float) -> None:
    """Refuse a noise level outside [0, 1].  Every noise level of a run
    meets this one rule: the config's, each swept one and add_noise's.  At
    sigma = 1 the noise is already about as large as the data (see add_noise)."""
    if sigma < 0.0:
        raise ConfigError(f"noise level must be nonnegative, got {sigma}")
    if sigma > 1.0:
        raise ConfigError(f"noise level must be at most 1, got {sigma}")


def add_noise(trace: BoundaryTrace, sigma: float, seed) -> BoundaryTrace:
    """Additive nodal Gaussian noise with a prescribed relative L1 level.

    Draws i.i.d. standard normal values per (node, level), then rescales
    the whole sample so the ratio noise-L1 / signal-L1 equals |delta|
    with delta ~ N(0, sigma^2).  Deterministic for a fixed seed (any
    seed numpy.random.default_rng takes); sigma = 0 returns the trace
    unchanged.  A noisy trace that is not finite is a SolverError.
    """
    _check_sigma(sigma)
    rng = np.random.default_rng(seed)
    zeta = rng.standard_normal(trace.values.shape)
    delta = rng.normal(0.0, sigma)
    noise_l1 = replace(trace, values=zeta).l1_norm()
    if noise_l1 == 0.0:
        raise SolverError("degenerate noise draw with zero L1 norm")
    values = trace.values + abs(delta) * trace.l1_norm() / noise_l1 * zeta
    if not np.isfinite(values).all():
        raise SolverError("the noisy boundary trace is not finite")
    return replace(trace, values=values)


def boundary_diffs(mesh: Mesh, grid: TimeGrid, u, U, sigma: float = 0.0, seed=None):
    """Noisy boundary traces of u[..., j] - U[..., j], one per column j.

    u and U are blocks of shape (n_steps + 1, n_nodes, m), U possibly a
    broadcast view.  With sigma != 0 the u trace of column j gets
    add_noise seeded by the j-th child spawned from seed, so the columns
    draw independent noise; U is the noiseless reference.  Returns a
    list of m BoundaryTraces.
    """
    children = np.random.SeedSequence(seed).spawn(u.shape[-1])
    # the boundary rows of every column at once, column j C-ordered in
    # rows[j] like the trace boundary_restrict makes of a C-ordered field,
    # since l1_norm rounds by memory order; the march has checked that the
    # levels are finite
    nb = mesh.n_boundary
    u_rows, U_rows = (np.ascontiguousarray(np.moveaxis(v[:, :nb], -1, 0)) for v in (u, U))
    reference = BoundaryTrace(mesh, grid, U_rows[0])
    diffs = []
    for j, child in enumerate(children):
        tr = replace(reference, values=u_rows[j])
        if sigma != 0.0:
            tr = add_noise(tr, sigma, child)
        diffs.append(tr.diff(replace(reference, values=U_rows[j])))
    return diffs
