"""Release gate: ten end-to-end checks, one test per contract line.

Each criterion gets exactly one test function so `pytest -v` on this
file prints one pass/fail line per criterion.  The checks run the real
pipeline (no mocks): fractional calculus primitives, the reduced-kernel
series against its quadrature oracle, the forward solver against a
manufactured solution and a classical backward-Euler oracle, the two
measurement routes against each other, the small-volume expansion, and
both locators on synthetic and finite-element data.

Shared heavy solves are module-scoped fixtures.  Expected values and
tolerances are frozen here on purpose; loosening them is an interface
change, not a test fix.
"""

import math

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from fracloc.forward import (
    add_noise,
    assemble_matrices,
    boundary_restrict,
    solve_background,
    solve_subdiffusion,
)
from fracloc.fracmath import TimeGrid, caputo_l1_apply, rl_integral
from fracloc.greenfn import (
    fit_green_coeffs,
    reduced_green_oracle,
    reduced_green_series,
    s_kernel,
)
from fracloc.locate_one import (
    ProbeSegment,
    default_segments,
    intersect,
    locate_one_inclusion,
    root_on_patch,
    root_on_segment,
)
from fracloc.locate_multi import (
    DataMatrix,
    KernelRows,
    build_data_matrix,
    g_matrix,
    indicator,
    peak_extract,
    scan_indicator,
    select_truncation,
    source_configuration,
)
from fracloc.measure import (
    OracleKernelProbe,
    leading_term,
    measurement_boundary,
    measurement_interior,
    polarization_disk,
)
from fracloc.mesh import Inclusion, InclusionSet, build_mesh

ALPHA = 0.5
PROBE_SRC = 2.0 * np.array([math.cos(math.radians(40.0)), math.sin(math.radians(40.0))])

# the four single-disk benchmark configurations: center, radius
ONE_DISK_CONFIGS = (
    ((0.2, 0.3), 0.05),
    ((0.2, 0.3), 0.1),
    ((0.6, 0.6), 0.05),
    ((0.6, 0.5), 0.1),
)
TWO_DISK_CENTERS = ((0.3, 0.2), (-0.4, 0.0))
THREE_DISK_CENTERS = ((-0.2, 0.0), (0.2, 0.3), (0.5, -0.1))


@pytest.fixture(scope="module")
def coeffs():
    return fit_green_coeffs(ALPHA)


def _solve_pair(incs, grid, direction, h_far=0.15, h_near=None, mesh=None):
    """u and U boundary traces for a linear background a.x, shared mesh."""
    a = np.asarray(direction, dtype=float)
    if mesh is None:
        mesh = build_mesh(incs, h_far, h_near if h_near is not None else h_far)
    u = solve_subdiffusion(
        mesh, ALPHA, incs, None, lambda p: p @ a, lambda p, t, n: n @ a, grid
    )
    U = solve_background(
        mesh, ALPHA, None, lambda p: p @ a, lambda p, t, n: n @ a, grid
    )
    return u, boundary_restrict(u), boundary_restrict(U)


def synthetic_probe(coeffs, z1, direction, grid):
    """Leading-order probe functional for a point inclusion at z1.

    (a . (z1 - P)) times a P-dependent negative time integral built from
    the first-order reduced kernel, so the zero set in P is exactly the
    axis through z1 orthogonal to a.  Duplicated from the locator unit
    tests on purpose: the gate must not share helpers with the suites it
    is meant to double-check.
    """
    z1 = np.asarray(z1, dtype=float)
    a = np.asarray(direction, dtype=float)
    d = z1.size
    s = grid.t_final - grid.nodes
    mask = s > 0.0
    lam = s[mask] ** ALPHA
    weights = np.full(grid.n_steps + 1, grid.dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    weights = weights[mask]

    def probe(P):
        r = z1 - np.asarray(P, dtype=float)
        rho2 = float(r @ r)
        vals = s_kernel(coeffs, d, 1, rho2 / lam) * lam ** (-(d + 2) / 2.0)
        return float((a @ r) * (weights @ vals))

    return probe


def test_criterion_01_fractional_primitives():
    """L1 derivative of t, integral/derivative round trip, product-rule sign."""
    grid = TimeGrid(2**10, 1.0)
    t = grid.nodes
    got = caputo_l1_apply(ALPHA, t, grid)[-1]
    assert abs(got - 1.0 / math.gamma(1.5)) < 1e-3

    grid9 = TimeGrid(2**9, 1.0)
    t9 = grid9.nodes
    for w in (1.3 + np.sin(2.0 * t9) + 0.5 * t9**2, np.cos(t9) + t9):
        d_full = np.concatenate([[0.0], caputo_l1_apply(ALPHA, w, grid9)])
        rec = rl_integral(ALPHA, d_full, grid9) + w[0]
        assert np.abs(rec - w).max() / np.abs(w).max() < 1e-2

    grid512 = TimeGrid(512, 1.0)
    ts = grid512.nodes
    for w in (np.sin(3 * ts) + 0.2, ts**1.5 - 0.4, np.exp(-ts) * np.cos(5 * ts)):
        lhs = w[1:] * caputo_l1_apply(ALPHA, w, grid512)
        rhs = 0.5 * caputo_l1_apply(ALPHA, w**2, grid512)
        assert np.min(lhs - rhs) >= -1e-6


def test_criterion_02_series_vs_oracle(coeffs):
    """Three-term series: accuracy, remainder decay rate, dimension recursion."""
    for d in (1, 2):
        ref = reduced_green_oracle(d, ALPHA, 10.0)
        got = reduced_green_series(coeffs, d, 3, 10.0)
        assert abs(got - ref) / ref <= 1e-3, d

    # first dropped term scales like r^(-2Nq) with q = 2/(2 - alpha),
    # so the relative remainder slope should sit near -4 for N = 3
    rs = np.geomspace(8.0, 30.0, 9)
    rel = np.abs(
        reduced_green_series(coeffs, 2, 3, rs) - reduced_green_oracle(2, ALPHA, rs)
    ) / reduced_green_oracle(2, ALPHA, rs)
    slope = np.polyfit(np.log(rs), np.log(rel), 1)[0]
    target = -2.0 * 3.0 / (2.0 - ALPHA)
    assert abs(slope - target) <= 0.15 * abs(target), slope

    # psi_3(r) = -(2 pi r)^(-1) psi_1'(r); differentiate log psi_1 to
    # dodge cancellation where psi_1 is ~1e-15
    for r in (4.0, 10.0, 25.0):
        h = 1e-3 * r
        lf = lambda x: math.log(reduced_green_series(coeffs, 1, 3, x))
        dlog = (-lf(r + 2 * h) + 8 * lf(r + h) - 8 * lf(r - h) + lf(r - 2 * h)) / (
            12 * h
        )
        ref = -reduced_green_series(coeffs, 1, 3, r) * dlog / (2.0 * math.pi * r)
        got = reduced_green_series(coeffs, 3, 3, r)
        assert abs(got - ref) / abs(ref) < 1e-10, r


def test_criterion_03_gradient_kernels(coeffs):
    """S profile matches the differentiated series; first-order S negative."""
    r = 8.0
    h = 1e-4 * r
    for d in (2, 3):
        der = (
            reduced_green_series(coeffs, d, 3, r + h)
            - reduced_green_series(coeffs, d, 3, r - h)
        ) / (2.0 * h)
        sk = r * s_kernel(coeffs, d, 3, r * r)
        assert abs(der - sk) / abs(der) < 1e-5, d

    y = np.logspace(-2, 4, 121)
    assert np.all(s_kernel(coeffs, 2, 1, y) < 0.0)


def test_criterion_04_forward_solver():
    """Manufactured-solution refinement and the classical-limit cross-check."""
    c = 2.0 / math.gamma(3.0 - ALPHA)

    def f(p, t):
        return c * t ** (2.0 - ALPHA) * (p**2).sum(1) - 4.0 * (1.0 + t * t)

    def u0(p):
        return (p**2).sum(1)

    def g(p, t, n):
        return 2.0 * (1.0 + t * t) * (p * n).sum(1)

    rels = []
    for h, n_steps in [(0.35, 16), (0.22, 32), (0.14, 64)]:
        mesh = build_mesh(InclusionSet(items=()), h, h)
        grid = TimeGrid(n_steps, 1.0)
        field = solve_background(mesh, ALPHA, f, u0, g, grid)
        exact = 2.0 * (mesh.vertices**2).sum(1)
        e = field.values[-1] - exact
        M, _ = assemble_matrices(mesh, np.ones(len(mesh.triangles)))
        rels.append(math.sqrt((e @ (M @ e)) / (exact @ (M @ exact))))
    assert rels[0] > rels[1] > rels[2], rels

    mesh = build_mesh(InclusionSet(items=()), 0.2, 0.2)
    grid = TimeGrid(128, 1.0)
    gauss = lambda p: np.exp(-(p**2).sum(1))
    field = solve_background(mesh, 0.999, None, gauss, None, grid)
    M, K = assemble_matrices(mesh, np.ones(len(mesh.triangles)))
    lu = splu((M / grid.dt + K).tocsc())
    u = gauss(mesh.vertices)
    for _ in range(grid.n_steps):
        u = lu.solve(M @ u / grid.dt)
    assert np.abs(field.values[-1] - u).max() / np.abs(u).max() < 0.01


def test_criterion_05_measurement_equivalence(coeffs):
    """Boundary and interior measurement routes agree to 1% (exact probe)."""
    probe = OracleKernelProbe(2, ALPHA, PROBE_SRC, 1.0)
    grid = TimeGrid(1024, 1.0)
    for z, eps in ONE_DISK_CONFIGS:
        incs = InclusionSet(items=(Inclusion(z, eps, 50.0),))
        u, u_tr, U_tr = _solve_pair(incs, grid, (1.0, 0.0), h_near=eps / 4.0)
        I_b = measurement_boundary(u_tr.diff(U_tr), probe.normal_derivative, 1.0).value
        I_i = measurement_interior(u, probe.gradient, incs).value
        assert abs(I_b - I_i) / abs(I_i) < 0.01, (z, eps)


def test_criterion_06_asymptotic_expansion():
    """Small-volume expansion: remainder order and leading-term scaling."""
    probe = OracleKernelProbe(2, ALPHA, PROBE_SRC, 1.0)
    grid = TimeGrid(512, 1.0)
    pol = polarization_disk(2, 1.0, 50.0, math.pi)
    z = (0.2, 0.3)
    zc = np.array([z])
    n_levels = grid.n_steps + 1
    gu = np.tile([1.0, 0.0], (n_levels, 1, 1))
    gp = np.stack([probe.gradient(zc, t) for t in grid.nodes])

    ratios, remainders = [], []
    for eps in (0.1, 0.05, 0.025):
        incs = InclusionSet(items=(Inclusion(z, eps, 50.0),))
        _, u_tr, U_tr = _solve_pair(incs, grid, (1.0, 0.0), h_near=eps / 4.0)
        I_b = measurement_boundary(u_tr.diff(U_tr), probe.normal_derivative, 1.0).value
        lead = leading_term(incs, [pol], gu, gp, grid)
        remainders.append(abs(I_b - lead) / (eps**3 * abs(math.log(eps)) ** 0.5))
        ratios.append(I_b / eps**2)

    assert max(remainders) / min(remainders) < 3.0, remainders
    spread = (max(ratios) - min(ratios)) / abs(np.mean(ratios))
    assert spread < 0.25, ratios


def test_criterion_07_synthetic_exact_recovery(coeffs):
    """Idealized data: recovery to 1e-6 over random 2D and 3D configurations."""
    grid = TimeGrid(64, 1.0)
    rng = np.random.default_rng(2024)

    for _ in range(20):
        z1 = rng.uniform(-0.55, 0.55, size=2)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(angle), np.sin(angle)
        R = np.array([[c, -s], [s, c]])
        segments = tuple(
            ProbeSegment(
                seg.index,
                tuple(R @ seg.direction),
                tuple(R @ seg.origin),
                (tuple(R @ seg.spans[0]),),
            )
            for seg in default_segments()
        )
        roots = [
            root_on_segment(
                seg, synthetic_probe(coeffs, z1, seg.direction, grid), tol=1e-7
            )
            for seg in segments
        ]
        rec = intersect(roots[0], roots[1], segments)
        assert np.linalg.norm(rec.P - z1) <= 1e-6

    seg1 = ProbeSegment(
        0, (1.0, 0.0, 0.0), (-1.0, 2.0, -1.0), ((2.0, 0.0, 0.0), (0.0, 0.0, 2.0))
    )
    seg2 = ProbeSegment(
        1, (0.0, 1.0, 0.0), (2.0, -1.0, -1.0), ((0.0, 2.0, 0.0), (0.0, 0.0, 2.0))
    )
    a3 = np.array([0.0, 0.0, 1.0])
    for _ in range(20):
        z1 = rng.uniform(-0.45, 0.45, size=3)
        roots = []
        for seg in (seg1, seg2):
            inner = synthetic_probe(coeffs, z1, a3, grid)
            outer = synthetic_probe(coeffs, z1, seg.direction, grid)
            roots.append(root_on_patch(seg, inner, outer, tol=1e-7))
        rec = intersect(roots[0], roots[1], (seg1, seg2))
        assert np.linalg.norm(rec.P - z1) <= 1e-6


def test_criterion_08_fem_recovery(coeffs):
    """Finite-element data: clean error within eps, noisy median within 2 eps."""
    grid = TimeGrid(128, 1.0)
    for z, eps in ONE_DISK_CONFIGS:
        incs = InclusionSet(items=(Inclusion(z, eps, 50.0),))
        mesh = build_mesh(incs, 0.15, eps / 4.0)
        pairs = []
        for a in ((1.0, 0.0), (0.0, 1.0)):
            _, u_tr, U_tr = _solve_pair(incs, grid, a, mesh=mesh)
            pairs.append((u_tr, U_tr))
        rec = locate_one_inclusion([u.diff(U) for u, U in pairs], coeffs, tol=1e-4)
        assert np.linalg.norm(rec.P - np.array(z)) <= eps, (z, eps)

        errs = []
        for seed in range(10):
            children = np.random.SeedSequence(seed).spawn(2)
            diffs = [
                add_noise(u, 0.01, ch).diff(U) for (u, U), ch in zip(pairs, children)
            ]
            noisy = locate_one_inclusion(diffs, coeffs, tol=1e-4)
            errs.append(np.linalg.norm(noisy.P - np.array(z)))
        assert np.median(errs) <= 2.0 * eps, (z, eps, sorted(errs))


def test_criterion_09_multi_recovery(coeffs):
    """Subspace indicator finds every center, full and limited aperture."""
    grid = TimeGrid(128, 1.0)
    sets = {
        2: InclusionSet(items=tuple(Inclusion(c, 0.05, 3.0) for c in TWO_DISK_CENTERS)),
        3: InclusionSet(
            items=tuple(Inclusion(c, 0.05, 3.0) for c in THREE_DISK_CENTERS)
        ),
    }
    meshes = {m: build_mesh(incs, 0.15, 0.05 / 4.0) for m, incs in sets.items()}
    centers = {2: TWO_DISK_CENTERS, 3: THREE_DISK_CENTERS}

    # full aperture: rank choice from the singular-value gap; limited
    # apertures: spectra collapse faster, so the rank is pinned per case
    cases = [
        ("full", 2, None, 0.05),
        ("full", 3, None, 0.05),
        ("half", 2, 4, 0.08),
        ("half", 3, 7, 0.08),
        ("quarter", 2, 4, 0.08),
        ("quarter", 3, 9, 0.08),
    ]
    for kind, m, k, bound in cases:
        src = source_configuration(kind)
        data = build_data_matrix(src, sets[m], ALPHA, coeffs, meshes[m], grid)
        if kind == "full" and m == 2:
            s = data.singular_values
            assert s[6] / s[0] <= 1e-2, s[6] / s[0]
        if k is None:
            k = select_truncation(data.singular_values, tau=1e-3)
        igrid = scan_indicator(data, KernelRows(src, ALPHA, coeffs, resolution=101), k)
        peaks = peak_extract(igrid, m, min_separation=0.1)
        errs = [
            min(np.linalg.norm(p - np.array(c)) for c in centers[m]) for p in peaks
        ]
        assert max(errs) <= bound, (kind, m, k, errs)


def test_criterion_10_indicator_invariants(coeffs):
    """W bounded below by one, monotone in rank; projector exact."""
    rng = np.random.default_rng(7)
    src = source_configuration("full")
    n = src.n
    for _ in range(5):
        data = DataMatrix(rng.standard_normal((n, n)))
        V = data.left_vectors
        for k in (1, 3, n - 1):
            Q = np.eye(n) - V[:, :k] @ V[:, :k].T
            assert np.abs(Q @ Q - Q).max() <= 1e-12
            assert np.abs(Q - Q.T).max() <= 1e-12
        for _ in range(4):
            z = rng.uniform(-0.6, 0.6, size=2)
            g = g_matrix(z, src, ALPHA, coeffs)
            ws = [indicator(data, k, g) for k in range(n + 1)]
            assert min(ws) >= 1.0 - 1e-12
            assert np.all(np.diff(ws) >= -1e-12), ws
