"""Tests for the multi-inclusion data matrix, kernels and indicator scan."""

import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracloc.errors import ConfigError, QuadratureError, ReconstructionError, SolverError
from fracloc.fracmath import TimeGrid
from fracloc import cli, forward, locate_multi
from fracloc.greenfn import fit_green_coeffs, grad_approx_fundamental, s_kernel
from fracloc.locate_multi import (
    DataMatrix,
    IndicatorGrid,
    KernelRows,
    SourceSet,
    _gauss_panels,
    build_data_matrix,
    g_matrix,
    indicator,
    march_sources,
    measure_data_matrix,
    peak_extract,
    scan_indicator,
    select_truncation,
    source_configuration,
    truncation_level,
)
from fracloc.measure import KernelProbe, OracleKernelProbe, tabulate_normal_derivative
from fracloc.mesh import Inclusion, InclusionSet, build_mesh


def nan_factor(rho2, times):
    """A kernel factor that is NaN at every point and time node."""
    return np.full(np.shape(rho2) + times.rate.shape, np.nan)


class TestSourceSet:
    def test_full_circle_layout(self):
        src = source_configuration("full")
        assert src.n == 10
        pts = src.points
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.0)
        gaps = np.diff(np.sort(src.angles))
        assert np.allclose(gaps, 2.0 * np.pi / 10)

    def test_limited_aperture_defaults(self):
        half = source_configuration("half")
        quarter = source_configuration("quarter")
        assert (half.n, quarter.n) == (15, 20)
        assert np.isclose(half.aperture, np.pi)
        assert np.isclose(quarter.aperture, 0.5 * np.pi)
        # all angles fall inside the stated arc
        for src in (half, quarter):
            half_width = 0.5 * src.aperture
            assert np.all(np.abs(src.angles) < half_width)

    def test_points_pairwise_distinct(self):
        pts = source_configuration("quarter").points
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1e-3

    def test_validation(self):
        with pytest.raises(ConfigError):
            SourceSet(n=10, radius=1.0)
        with pytest.raises(ConfigError):
            SourceSet(n=1)
        with pytest.raises(ConfigError):
            SourceSet(n=10, aperture=7.0)
        with pytest.raises(ConfigError):
            source_configuration("sideways")


def kernel_entries(z, sources, coeffs, **kw):
    """The time-integral factor C of g_matrix: G[i, j] / ((z - x_i).(z - x_j))."""
    G = g_matrix(z, sources, 0.5, coeffs, **kw)
    rel = z - sources.points
    return G / (rel @ rel.T)


def scalar_kernel(z, j_fwd, j_bwd, sources, coeffs, n_terms=3, t_final=1.0):
    """Reference C entry for one source pair, one scalar sum over time nodes."""
    t, w = _gauss_panels(t_final)

    def factor(j, s):
        lam = s**0.5
        rho2 = np.sum((z - sources.points[j]) ** 2)
        return s_kernel(coeffs, 2, n_terms, rho2 / lam) * lam**-2.0

    return float(np.sum(factor(j_fwd, t) * factor(j_bwd, t_final - t) * w))


def direct_g_matrix(z, sources, alpha, coeffs, n_terms=3, t_final=1.0):
    """Reference G: the forward factor from s_kernel at every point and time node."""
    rel = z[..., None, :] - sources.points
    rho2 = np.sum(rel * rel, axis=-1)
    t, w = _gauss_panels(t_final)
    lam = t**alpha
    fwd = s_kernel(coeffs, 2, n_terms, rho2[..., None] / lam) * lam**-2.0
    C = (fwd[..., ::-1] * w) @ np.swapaxes(fwd, -1, -2)
    return (rel @ np.swapaxes(rel, -1, -2)) * C


class TestKernelC:
    def test_swap_symmetry(self, coeffs_half):
        # swapping the source roles is undone by t -> T - t, which the
        # symmetric quadrature reproduces to rounding
        src = source_configuration("full")
        C = kernel_entries(np.array([0.25, -0.1]), src, coeffs_half, n_terms=3)
        assert abs(C[2, 7] - C[7, 2]) <= 1e-13 * abs(C[2, 7])

    def test_equal_radii_symmetry(self, coeffs_half):
        src = source_configuration("full")
        # z on the symmetry axis between sources 0 and 1
        mid = 0.5 * (src.angles[0] + src.angles[1])
        z = 0.3 * np.array([np.cos(mid), np.sin(mid)])
        C = kernel_entries(z, src, coeffs_half)
        assert abs(C[0, 1] - C[1, 0]) <= 1e-13 * abs(C[0, 1])

    def test_first_order_positivity(self, coeffs_half):
        src = source_configuration("full")
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = rng.uniform(-0.6, 0.6, 2)
            i, j = rng.integers(0, src.n, 2)
            assert kernel_entries(z, src, coeffs_half, n_terms=1)[i, j] > 0.0

    def test_against_adaptive_quadrature(self, coeffs_half):
        # independent route: the entry equals the time integral of the
        # two approximate-fundamental gradients paired head to tail
        src = source_configuration("full")
        z = np.array([0.25, -0.1])
        i, j = 2, 7
        G = g_matrix(z, src, 0.5, coeffs_half, n_terms=3)

        def integrand(t):
            ga = grad_approx_fundamental(
                coeffs_half, 2, 3, z[None, :], t, tuple(src.points[j])
            )[0]
            gb = grad_approx_fundamental(
                coeffs_half, 2, 3, z[None, :], 1.0 - t, tuple(src.points[i])
            )[0]
            return ga @ gb

        ref, _ = quad(integrand, 0.0, 1.0, epsabs=0, epsrel=1e-10, limit=200)
        assert abs(G[i, j] - ref) <= 1e-7 * abs(ref)

    @pytest.mark.parametrize("t_final", [1.0, 0.3, 2.5])
    def test_gauss_nodes_symmetric(self, t_final):
        # g_matrix takes the backward factor as the forward one reversed
        t, w = _gauss_panels(t_final)
        assert np.max(np.abs(t[::-1] - (t_final - t))) <= 4e-16 * t_final
        assert np.max(np.abs(w[::-1] - w)) <= 4e-16 * t_final

    def test_decay_in_source_radius(self, coeffs_half):
        z = np.array([0.25, -0.1])
        near = kernel_entries(z, SourceSet(n=10, radius=2.0), coeffs_half)
        far = kernel_entries(z, SourceSet(n=10, radius=3.0), coeffs_half)
        assert abs(far[0, 1]) < abs(near[0, 1])


class TestGMatrix:
    def test_symmetric(self, coeffs_half):
        src = source_configuration("full")
        G = g_matrix(np.array([0.25, -0.1]), src, 0.5, coeffs_half)
        assert np.max(np.abs(G - G.T)) <= 1e-13 * np.max(np.abs(G))

    def test_matches_kernel_entries(self, coeffs_half):
        src = source_configuration("full")
        z = np.array([0.1, 0.35])
        G = g_matrix(z, src, 0.5, coeffs_half)
        for i, j in ((0, 0), (2, 7), (9, 4)):
            rel_i = z - src.points[i]
            rel_j = z - src.points[j]
            want = (rel_i @ rel_j) * scalar_kernel(z, j, i, src, coeffs_half)
            assert abs(G[i, j] - want) <= 1e-12 * max(abs(want), 1e-300)

    def test_row_matches_per_point(self, coeffs_half):
        src = source_configuration("full")
        zs = np.column_stack([np.linspace(-0.6, 0.6, 7), np.full(7, 0.2)])
        rows = g_matrix(zs, src, 0.5, coeffs_half)
        assert rows.shape == (7, src.n, src.n)
        rng = np.random.default_rng(4)
        data = DataMatrix(rng.standard_normal((src.n, src.n)))
        w_row = indicator(data, 4, rows)
        assert w_row.shape == (7,)
        for m, z in enumerate(zs):
            g = g_matrix(z, src, 0.5, coeffs_half)
            assert np.max(np.abs(rows[m] - g)) <= 1e-13 * np.max(np.abs(g))
            w = indicator(data, 4, g)
            assert abs(w_row[m] - w) <= 1e-12 * w

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("radius, rtol", [(1.2, 1e-10), (1.5, 1e-12), (2.0, 1e-12), (4.0, 1e-12)])
    def test_table_matches_direct_quadrature(self, alpha, radius, rtol):
        # points out to |z| = 0.99, where the quarter arc sees only far
        # sources and G is smallest against the profile's range in rho
        rng = np.random.default_rng(11)
        r = 0.99 * np.sqrt(rng.uniform(0.0, 1.0, 60))
        r[:12] = 0.99
        th = rng.uniform(0.0, 2.0 * np.pi, r.size)
        zs = np.column_stack([r * np.cos(th), r * np.sin(th)])
        coeffs = fit_green_coeffs(alpha)
        for kind in ("full", "quarter"):
            src = source_configuration(kind, radius=radius)
            want = direct_g_matrix(zs, src, alpha, coeffs)
            got = g_matrix(zs, src, alpha, coeffs)
            err = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
            assert err.max() <= rtol, (kind, err.max())

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.8, 1.0])
    def test_separated_factor_matches_direct_profile(self, alpha):
        # from sources almost on the unit circle to far ones, where the
        # decay underflows: G from the separated factor against s_kernel
        # at every point and time node
        rng = np.random.default_rng(11)
        r = 0.99 * np.sqrt(rng.uniform(0.0, 1.0, 60))
        r[:12] = 0.99
        th = rng.uniform(0.0, 2.0 * np.pi, r.size)
        zs = np.column_stack([r * np.cos(th), r * np.sin(th)])
        coeffs = fit_green_coeffs(alpha)
        for radius in (1.01, 1.05, 1.2, 1.5, 2.0, 4.0, 10.0, 60.0):
            for kind in ("full", "quarter"):
                src = source_configuration(kind, radius=radius)
                want = direct_g_matrix(zs, src, alpha, coeffs)
                got = g_matrix(zs, src, alpha, coeffs)
                assert np.all(np.isfinite(got)), (radius, kind)
                err = np.linalg.norm(got - want, axis=(1, 2))
                scale = np.linalg.norm(want, axis=(1, 2))
                assert np.all(err <= 1e-13 * scale), (radius, kind, np.max(err / scale))

    def test_nonfinite_factor_raises(self, coeffs_half, monkeypatch):
        src = source_configuration("full", radius=1.2)
        z = np.array([0.1, 0.2])
        assert np.all(np.isfinite(g_matrix(z, src, 0.5, coeffs_half)))
        monkeypatch.setattr(locate_multi, "_separated", nan_factor)
        with pytest.raises(QuadratureError):
            g_matrix(z, src, 0.5, coeffs_half)

    def test_scan_point_outside_rejected(self, coeffs_half):
        src = source_configuration("full")
        with pytest.raises(ConfigError):
            g_matrix(np.array([1.2, 0.0]), src, 0.5, coeffs_half)
        with pytest.raises(ConfigError):
            g_matrix(np.array([[0.1, 0.0], [0.0, 1.0]]), src, 0.5, coeffs_half)

    def test_alpha_must_match_the_coefficients(self, coeffs_half, monkeypatch):
        src = source_configuration("full")
        with pytest.raises(ConfigError, match="alpha 0.9"):
            g_matrix(np.array([0.1, 0.2]), src, 0.9, coeffs_half)
        with pytest.raises(ConfigError, match="alpha 0.9"):
            scan_indicator(DataMatrix(np.eye(src.n)), KernelRows(src, 0.9, coeffs_half), 1)
        monkeypatch.setattr(locate_multi, "march", lambda *a: pytest.fail("marched"))
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.1, 50.0),))
        mesh = build_mesh(incs, 0.3, 0.025)
        with pytest.raises(ConfigError, match="alpha 0.9"):
            build_data_matrix(src, incs, 0.9, coeffs_half, mesh, TimeGrid(8, 1.0))


class TestDataMatrix:
    def test_svd_sorted_nonnegative(self):
        rng = np.random.default_rng(5)
        data = DataMatrix(rng.standard_normal((7, 7)))
        s = data.singular_values
        assert np.all(s >= 0.0)
        assert np.all(np.diff(s) <= 0.0)
        assert data.left_vectors.shape == (7, 7)
        assert data.n == 7

    def test_non_square_rejected(self):
        with pytest.raises(ConfigError):
            DataMatrix(np.zeros((3, 4)))

    def test_non_finite_rejected(self):
        B = np.zeros((3, 3))
        B[1, 2] = np.nan
        with pytest.raises(SolverError):
            DataMatrix(B)

    def test_no_inclusions_gives_zero_matrix(self, coeffs_half):
        empty = InclusionSet(items=())
        mesh = build_mesh(empty, 0.3, 0.3)
        grid = TimeGrid(8, 1.0)
        src = SourceSet(n=3)
        data = build_data_matrix(src, empty, 0.5, coeffs_half, mesh, grid, n_terms=1)
        assert np.all(data.B == 0.0)
        assert data.singular_values[0] == 0.0


    @pytest.mark.parametrize("sigma, gamma0", [(0.0, 1.0), (0.01, 2.0)])
    def test_matches_a_per_probe_reference(self, coeffs_half, sigma, gamma0):
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.1, 50.0),))
        mesh = build_mesh(incs, 0.3, 0.025)
        grid = TimeGrid(8, 1.0)
        src = SourceSet(n=5)
        u, U = march_sources(src, incs, 0.5, coeffs_half, mesh, grid)
        data = measure_data_matrix(src, coeffs_half, mesh, grid, u, U, 3, gamma0, sigma, seed=4)
        # each probe tabulated on its own, then the same contraction
        diffs = forward.boundary_diffs(mesh, grid, u, U, sigma=sigma, seed=4)
        phin = np.stack([
            tabulate_normal_derivative(
                KernelProbe(coeffs_half, 3, p, t_final=1.0, gamma0=gamma0).normal_derivative, diffs[0]
            )
            for p in src.points
        ])
        weights = np.outer(grid.weights, mesh.arc_weights)
        deltas = np.stack([d.values for d in diffs]).reshape(src.n, -1)
        B = gamma0 * ((phin * weights).reshape(src.n, -1) @ deltas.T)
        assert np.array_equal(data.B, B)
        assert np.any(B != 0.0)


    @pytest.mark.parametrize("gamma0", [0.0, -1.0])
    def test_nonpositive_gamma0_is_a_config_error(self, coeffs_half, gamma0):
        # the probe table refuses it before any kernel value or warning
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.1, 50.0),))
        mesh = build_mesh(incs, 0.3, 0.025)
        grid = TimeGrid(8, 1.0)
        src = SourceSet(n=5)
        u, U = march_sources(src, incs, 0.5, coeffs_half, mesh, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="gamma0 must be positive"):
                measure_data_matrix(src, coeffs_half, mesh, grid, u, U, 3, gamma0)


class TestBuildMarch:
    def test_one_factorization_per_conductivity(self, coeffs_half, monkeypatch):
        calls = []
        real_splu = forward.splu

        def counting_splu(mat, *args, **kwargs):
            calls.append(mat.shape)
            return real_splu(mat, *args, **kwargs)

        monkeypatch.setattr(forward, "splu", counting_splu)
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.1, 50.0),))
        mesh = build_mesh(incs, 0.3, 0.025)
        data = build_data_matrix(
            SourceSet(n=5), incs, 0.5, coeffs_half, mesh, TimeGrid(8, 1.0)
        )
        assert len(calls) == 2
        assert np.any(data.B != 0.0)

    def test_one_kernel_call_covers_every_source(self, coeffs_half, monkeypatch):
        counts = {"value": 0, "flux": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            locate_multi, "approx_fundamental", counting("value", locate_multi.approx_fundamental)
        )
        monkeypatch.setattr(
            locate_multi, "_normal_derivative", counting("flux", locate_multi._normal_derivative)
        )
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.1, 50.0),))
        mesh = build_mesh(incs, 0.3, 0.025)
        grid = TimeGrid(8, 1.0)
        build_data_matrix(SourceSet(n=5), incs, 0.5, coeffs_half, mesh, grid)
        # the initial datum once; the flux once per step, at both endpoints
        # of every boundary edge
        assert counts == {"value": 1, "flux": grid.n_steps}

    def test_kernels_take_the_set_gamma0(self, coeffs_half, monkeypatch):
        seen = set()
        real = locate_multi._gradient_time_half

        def recording(coeffs, d, n_terms, s, gamma0):
            seen.add(gamma0)
            return real(coeffs, d, n_terms, s, gamma0)

        monkeypatch.setattr(locate_multi, "_gradient_time_half", recording)
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.1, 50.0),), gamma0=2.0)
        mesh = build_mesh(incs, 0.3, 0.025)
        build_data_matrix(SourceSet(n=5), incs, 0.5, coeffs_half, mesh, TimeGrid(8, 1.0))
        assert seen == {2.0}

    def test_flux_is_the_gradient_kernel_along_the_normal(self, coeffs_half, monkeypatch):
        # the flux takes ((x - src).n) f without a gradient array; it is
        # gamma0 grad Psi . n up to rounding at every step
        marched = {}
        monkeypatch.setattr(locate_multi, "march", lambda *args: marched.update(g=args[4]))
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.1, 50.0),), gamma0=2.0)
        mesh = build_mesh(incs, 0.3, 0.025)
        grid = TimeGrid(16, 1.0)
        sources = SourceSet(n=5)
        march_sources(sources, incs, 0.5, coeffs_half, mesh, grid, n_terms=3)
        ends = mesh.vertices[mesh.boundary_edges.T].reshape(-1, 2)
        normals = np.tile(mesh.boundary_normals, (2, 1))
        t_init = grid.t_final / 2.0**7
        for t in grid.nodes[1:]:
            grads = grad_approx_fundamental(
                coeffs_half, 2, 3, ends, t, sources.points[:, None, :], t0=-t_init, gamma0=2.0
            )
            ref = 2.0 * np.sum(grads * normals, axis=-1).T
            got = marched["g"](ends, t, normals)
            assert got.shape == ref.shape == (len(ends), sources.n)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestBuildNoise:
    def _build(self, coeffs, sigma, seed):
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.1, 50.0),))
        mesh = build_mesh(incs, 0.2, 0.025)
        grid = TimeGrid(16, 1.0)
        src = source_configuration("full", n=6)
        return build_data_matrix(
            src, incs, 0.5, coeffs, mesh, grid, sigma=sigma, seed=seed
        )

    def test_seed_reproducible(self, coeffs_half):
        a = self._build(coeffs_half, 0.01, 42)
        b = self._build(coeffs_half, 0.01, 42)
        assert np.array_equal(a.B, b.B)

    def test_tail_rises_with_noise(self, coeffs_half):
        def tail(sigma):
            vals = []
            for seed in (0, 1):
                s = self._build(coeffs_half, sigma, seed).singular_values
                vals.append(np.mean(s[3:]))
            return np.mean(vals)

        assert tail(0.05) > tail(0.005)


class TestSelectTruncation:
    def test_frozen_examples(self):
        assert select_truncation([1.0, 0.5, 1e-9]) == 2
        assert select_truncation([1.0, 1e-9, 1e-12], tau=0.5) == 1
        assert select_truncation([3.0], tau=0.9) == 1

    def test_minimum_is_one(self):
        # every ratio below tau still returns k=1
        assert select_truncation([1.0, 1e-8, 1e-9], tau=1e-3) == 1

    def test_smaller_tau_keeps_more(self):
        s = [1.0, 0.3, 1e-2, 1e-4, 1e-7]
        ks = [select_truncation(s, tau) for tau in (0.5, 1e-3, 1e-5, 1e-8)]
        assert ks == [1, 3, 4, 5]

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ConfigError):
            select_truncation([0.0, 0.0])

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            select_truncation([1.0, 0.5], tau=2.0)



class TestTruncationLevel:
    # s / s_1 in near-equal pairs, as a two-disk data matrix of 10 sources
    # gives them; tau = 1e-3 counts the first 4
    PAIRED = DataMatrix(np.diag([1.0, 0.85, 0.021, 0.019, 1.6e-4, 1.0e-4, 2e-6, 1.5e-6, 3e-8, 2e-8]))

    def test_set_k_is_used_as_given(self):
        for k in (1, 3, 9):
            assert truncation_level(self.PAIRED, 1e-3, 2, k) == k

    def test_count_is_floored_at_two_per_peak_plus_one(self):
        assert select_truncation(self.PAIRED.singular_values, 1e-3) == 4
        assert truncation_level(self.PAIRED, 1e-3, 1, None) == 4
        # the floor of 5 splits the third pair
        assert truncation_level(self.PAIRED, 1e-3, 2, None) == 5
        assert truncation_level(self.PAIRED, 1e-3, 3, None) == 7

    def test_capped_at_n_minus_one(self):
        assert truncation_level(self.PAIRED, 1e-3, 6, None) == 9
        assert truncation_level(self.PAIRED, 1e-9, 1, None) == 9

    @pytest.mark.parametrize("k", [None, 3])
    def test_zero_data_carry_no_signal(self, k):
        # a reconstruction failure at any k; select_truncation keeps its config error
        with pytest.raises(ReconstructionError, match="the data carry no signal"):
            truncation_level(DataMatrix(np.zeros((6, 6))), 1e-3, 1, k)

class TestIndicator:
    def test_no_projection_is_one(self):
        rng = np.random.default_rng(0)
        data = DataMatrix(rng.standard_normal((6, 6)))
        G = rng.standard_normal((6, 6))
        assert indicator(data, 0, G) == 1.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_at_least_one_and_monotone(self, seed):
        rng = np.random.default_rng(seed)
        data = DataMatrix(rng.standard_normal((6, 6)))
        G = rng.standard_normal((6, 6))
        ws = [indicator(data, k, G) for k in range(7)]
        assert min(ws) >= 1.0 - 1e-12
        assert all(ws[k + 1] >= ws[k] - 1e-12 for k in range(6))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_projector_idempotent_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        data = DataMatrix(rng.standard_normal((6, 6)))
        k = int(rng.integers(1, 7))
        Vk = data.left_vectors[:, :k]
        Q = np.eye(6) - Vk @ Vk.T
        assert np.max(np.abs(Q @ Q - Q)) <= 1e-12
        assert np.max(np.abs(Q - Q.T)) <= 1e-12
        G = rng.standard_normal((6, 6))
        assert np.linalg.norm(Q @ G) <= np.linalg.norm(G) + 1e-12

    def test_sentinel_when_g_in_span(self):
        rng = np.random.default_rng(2)
        G = rng.standard_normal((5, 5))
        data = DataMatrix(G)
        v = indicator(data, 5, G)
        assert v == 1e14

    def test_zero_g_is_one(self):
        data = DataMatrix(np.eye(4))
        assert indicator(data, 2, np.zeros((4, 4))) == 1.0

    def test_stack_applies_the_same_rule(self):
        # sentinel, zero and ordinary matrices in one stack
        rng = np.random.default_rng(2)
        G = rng.standard_normal((5, 5))
        data = DataMatrix(G)
        H = rng.standard_normal((5, 5))
        stack = np.stack([G, np.zeros((5, 5)), H])
        w = indicator(data, 3, stack)
        assert w[0] == indicator(data, 3, G)
        assert w[1] == 1.0
        assert w[2] == pytest.approx(indicator(data, 3, H), rel=1e-14)
        assert indicator(data, 5, stack)[0] == 1e14

    def test_k_out_of_range(self):
        data = DataMatrix(np.eye(4))
        with pytest.raises(ConfigError):
            indicator(data, 5, np.eye(4))


class TestIndicatorGrid:
    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            IndicatorGrid(xs=np.arange(3.0), ys=np.arange(4.0), values=np.ones((3, 3)))

    def test_csv_layout(self, tmp_path):
        grid = IndicatorGrid(
            xs=np.array([0.0, 0.1]),
            ys=np.array([-0.1, 0.0, 0.1]),
            values=np.arange(6.0).reshape(3, 2) + 1.0,
        )
        out = tmp_path / "w.csv"
        grid.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,W"
        assert len(lines) == 7

    def test_csv_bytes(self, tmp_path):
        # one "%.18e,%.18e,%.18e" line per point, x fastest
        xs = np.array([-0.5, -0.0, 5e-324, 0.25])
        ys = np.array([-0.7, 1e-3, 0.6])
        values = np.array(
            [
                [1.0, -0.0, 5e-324, 1e16],
                [locate_multi.SENTINEL_VALUE, 1.0 + 2.0**-52, 3.5, -2.0],
                [np.pi, 1e-300, 7.0, 1.0],
            ]
        )
        out = tmp_path / "w.csv"
        digest = IndicatorGrid(xs=xs, ys=ys, values=values).to_csv(out)
        expected = "x,y,W\n" + "".join(
            "%.18e,%.18e,%.18e\n" % (x, y, w)
            for y, row in zip(ys.tolist(), values.tolist())
            for x, w in zip(xs.tolist(), row)
        )
        assert out.read_bytes() == expected.encode("ascii")
        for text in ("\n-0.000000000000000000e+00,", ",4.940656458412465442e-324\n", ",1.000000000000000000e+14\n"):
            assert text in expected
        assert digest == hashlib.sha256(expected.encode("ascii")).hexdigest()


class TestKernelRows:
    """Kernel rows computed ahead are those of a plain scan."""

    SCAN = dict(region=(-0.4, 0.4, -0.3, 0.3), resolution=7, n_terms=3, t_final=1.0, gamma0=1.0)

    def rows(self, coeffs):
        return KernelRows(SourceSet(n=5), 0.5, coeffs, **self.SCAN)

    @pytest.mark.parametrize("held", [0, 1, 3, 7])
    def test_rows_ahead_are_the_inline_rows(self, coeffs_half, monkeypatch, held):
        row_bytes = 8 * 7 * 5**2
        monkeypatch.setattr(locate_multi, "SCAN_AHEAD_BYTES", held * row_bytes + row_bytes - 1)
        inline = list(self.rows(coeffs_half))
        rows = self.rows(coeffs_half)
        rows.ahead()
        assert len(rows._done) == held
        ahead = list(rows)
        assert len(ahead) == len(inline) == 7
        for a, b in zip(ahead, inline):
            assert a.tobytes() == b.tobytes()

    def test_scan_over_rows_ahead_is_the_plain_scan(self, coeffs_half):
        data = DataMatrix(np.random.default_rng(2).standard_normal((5, 5)))
        plain = scan_indicator(data, self.rows(coeffs_half), 2)
        rows = self.rows(coeffs_half)
        rows.ahead()
        grid = scan_indicator(data, rows, 2)
        assert grid.values.tobytes() == plain.values.tobytes()
        assert np.array_equal(grid.xs, plain.xs) and np.array_equal(grid.ys, plain.ys)

    def test_worker_error_is_raised_by_the_scan(self, coeffs_half, monkeypatch):
        monkeypatch.setattr(locate_multi, "_separated", nan_factor)
        rows = self.rows(coeffs_half)
        # ahead stops at its first error and raises nothing
        rows.ahead()
        assert not rows._done
        with pytest.raises(QuadratureError, match="not finite"):
            scan_indicator(DataMatrix(np.eye(5)), rows, 2)


class TestScanValidation:
    def test_region_outside_disk(self, coeffs_half):
        data = DataMatrix(np.eye(4))
        src = SourceSet(n=4)
        with pytest.raises(ConfigError):
            scan_indicator(data, KernelRows(src, 0.5, coeffs_half, region=(-0.9, 0.9, -0.9, 0.9)), 1)

    def test_degenerate_region(self, coeffs_half):
        data = DataMatrix(np.eye(4))
        src = SourceSet(n=4)
        with pytest.raises(ConfigError):
            scan_indicator(data, KernelRows(src, 0.5, coeffs_half, region=(0.3, 0.3, -0.2, 0.2)), 1)

    def test_kernel_points_independent_of_resolution(self, coeffs_half, monkeypatch):
        # the scan takes the kernel's time half once, on the Gauss nodes,
        # and each grid row only its point half
        times, rows = [], []
        real_times, real_rows = locate_multi._gradient_time_half, locate_multi._separated

        def counting_times(coeffs, d, n_terms, s, gamma0):
            times.append(np.size(s))
            return real_times(coeffs, d, n_terms, s, gamma0)

        def counting_rows(rho2, factors):
            rows.append(np.shape(rho2))
            return real_rows(rho2, factors)

        monkeypatch.setattr(locate_multi, "_gradient_time_half", counting_times)
        monkeypatch.setattr(locate_multi, "_separated", counting_rows)
        data = DataMatrix(np.random.default_rng(1).standard_normal((10, 10)))
        src = source_configuration("full")
        n_nodes = _gauss_panels(1.0)[0].size
        for resolution in (3, 41):
            times.clear()
            rows.clear()
            scan_indicator(data, KernelRows(src, 0.5, coeffs_half, resolution=resolution), 3)
            assert times == [n_nodes]
            assert rows == [(resolution, src.n)] * resolution

    def test_small_scan_runs(self, coeffs_half):
        rng = np.random.default_rng(1)
        data = DataMatrix(rng.standard_normal((4, 4)))
        src = SourceSet(n=4)
        rows = KernelRows(src, 0.5, coeffs_half, region=(-0.3, 0.3, -0.3, 0.3), resolution=5)
        grid = scan_indicator(data, rows, 2)
        assert grid.values.shape == (5, 5)
        assert np.all(grid.values >= 1.0 - 1e-12)

    def test_nonfinite_kernel_names_one_point(self, coeffs_half, monkeypatch):
        # a 41x41 scan whose kernel is NaN everywhere names its first
        # point on one line, not the whole grid row
        monkeypatch.setattr(locate_multi, "_separated", nan_factor)
        rows = KernelRows(source_configuration("full"), 0.5, coeffs_half, resolution=41)
        with pytest.raises(QuadratureError) as info:
            scan_indicator(DataMatrix(np.eye(10)), rows, 3)
        point = np.array([rows.xs[0], rows.ys[0]])
        assert str(info.value) == f"kernel integrand not finite at scan point {point}"
        assert "\n" not in str(info.value)


def bump_field(centers, xs, ys, width=0.05):
    X, Y = np.meshgrid(xs, ys)
    v = np.ones_like(X)
    for cx, cy, h in centers:
        v = v + h * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * width**2))
    return v


class TestPeakExtract:
    xs = np.linspace(-0.6, 0.6, 41)
    ys = np.linspace(-0.6, 0.6, 41)

    def test_two_bumps_found(self):
        v = bump_field([(0.3, 0.2, 5.0), (-0.4, 0.0, 3.0)], self.xs, self.ys)
        grid = IndicatorGrid(xs=self.xs, ys=self.ys, values=v)
        peaks = peak_extract(grid, 2, min_separation=0.1)
        # strongest bump first
        assert np.linalg.norm(peaks[0] - [0.3, 0.2]) < 0.03
        assert np.linalg.norm(peaks[1] - [-0.4, 0.0]) < 0.03

    def test_uniform_field_has_no_peaks(self):
        grid = IndicatorGrid(xs=self.xs, ys=self.ys, values=np.ones((41, 41)))
        with pytest.raises(ReconstructionError):
            peak_extract(grid, 1)

    def test_min_separation_suppresses_twin(self):
        # two bumps 0.06 apart merge under a 0.1 separation radius
        v = bump_field([(0.0, 0.0, 5.0), (0.06, 0.0, 4.0)], self.xs, self.ys, width=0.02)
        grid = IndicatorGrid(xs=self.xs, ys=self.ys, values=v)
        with pytest.raises(ReconstructionError):
            peak_extract(grid, 2, min_separation=0.1)
        peaks = peak_extract(grid, 2, min_separation=0.01)
        assert len(peaks) == 2

    def test_too_many_requested(self):
        v = bump_field([(0.0, 0.0, 5.0)], self.xs, self.ys)
        grid = IndicatorGrid(xs=self.xs, ys=self.ys, values=v)
        with pytest.raises(ReconstructionError):
            peak_extract(grid, 4)

    def test_bad_count(self):
        grid = IndicatorGrid(xs=self.xs, ys=self.ys, values=np.ones((41, 41)))
        with pytest.raises(ConfigError):
            peak_extract(grid, 0)


class TestEndToEnd:
    def test_two_disks_full_aperture(self, coeffs_half):
        centers = [(0.3, 0.2), (-0.4, 0.0)]
        incs = InclusionSet(items=tuple(Inclusion(c, 0.05, 3.0) for c in centers))
        mesh = build_mesh(incs, 0.15, 0.05 / 4.0)
        grid = TimeGrid(128, 1.0)
        src = source_configuration("full")
        data = build_data_matrix(src, incs, 0.5, coeffs_half, mesh, grid)
        s = data.singular_values
        assert s[6] / s[0] <= 1e-2
        k = select_truncation(s, tau=1e-3)
        assert 4 <= k <= 6
        igrid = scan_indicator(data, KernelRows(src, 0.5, coeffs_half, resolution=61), k)
        peaks = peak_extract(igrid, 2, min_separation=0.1)
        errs = [min(np.linalg.norm(p - np.array(c)) for c in centers) for p in peaks]
        assert max(errs) <= 0.05


def march_exact_sources(sources, inclusions, alpha, coeffs, mesh, grid, n_terms=3):
    """march_sources with the exact kernel in place of the series one.

    Source j's initial datum and flux come from an OracleKernelProbe at
    that source whose final time is T + t_init, t_init = T/2^7 (as in
    march_sources): value(x, T) is the kernel at elapsed time t_init, and
    normal_derivative(x, T - t, n) its normal derivative at t + t_init.
    coeffs and n_terms are not used.
    """
    T, gamma0 = grid.t_final, inclusions.gamma0
    probes = [OracleKernelProbe(2, alpha, source, T + T / 2**7, gamma0) for source in sources.points]

    def u0(p):
        return np.stack([probe.value(p, T) for probe in probes], axis=1)

    def g(p, t, nrm):
        return gamma0 * np.stack([probe.normal_derivative(p, T - t, nrm) for probe in probes], axis=1)

    return forward.march(mesh, alpha, [inclusions, InclusionSet((), gamma0)], u0, g, grid)


class TestExactKernelData:
    """The locator finds the centers in data that its series kernel did not make."""

    def test_example43_from_exact_kernel_data(self, tmp_path, monkeypatch):
        config = str(Path(__file__).parents[1] / "configs" / "example43.json")
        series, exact = tmp_path / "series", tmp_path / "exact"
        assert cli.main(["locate-multi", "--config", config, "--out", str(series)]) == 0
        # measured and scanned with the series kernel, as the CLI does
        monkeypatch.setattr(cli, "march_sources", march_exact_sources)
        assert cli.main(["locate-multi", "--config", config, "--out", str(exact)]) == 0
        B, B_series = (np.loadtxt(out / "data_matrix.csv", delimiter=",") for out in (exact, series))
        # the series kernel's model error moves B by about 8%
        assert 0.02 < np.linalg.norm(B - B_series) / np.linalg.norm(B_series) < 0.2
        errors = np.loadtxt(exact / "peaks.csv", delimiter=",", skiprows=1)[:, 2]
        assert errors.shape == (2,) and errors.max() <= 0.1
