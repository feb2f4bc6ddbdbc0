"""Tests for boundary measurements, the interior oracle, and the leading term."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from fracloc.errors import ConfigError, SolverError
from fracloc.forward import (
    SpaceTimeField,
    boundary_restrict,
    solve_background,
    solve_subdiffusion,
)
from fracloc.fracmath import TimeGrid
from fracloc import measure
from fracloc.greenfn import _gradient_factor, approx_fundamental, reduced_green_oracle
from fracloc.measure import (
    KernelProbe,
    Measurement,
    OracleKernelProbe,
    ProbeTable,
    leading_term,
    measurement_boundary,
    measurement_interior,
    polarization_disk,
    tabulate_normal_derivative,
)
from fracloc.mesh import Inclusion, InclusionSet, build_mesh


class TestPolarization:
    def test_frozen_contrast_three(self):
        pol = polarization_disk(2, 1.0, 3.0, math.pi)
        np.testing.assert_allclose(pol.matrix, -(math.pi / 2.0) * np.eye(2), rtol=1e-12)

    def test_frozen_contrast_fifty(self):
        pol = polarization_disk(2, 1.0, 50.0, math.pi)
        np.testing.assert_allclose(pol.matrix, -(2.0 * math.pi / 51.0) * np.eye(2), rtol=1e-12)

    def test_three_dimensional(self):
        vol = 4.0 * math.pi / 3.0
        pol = polarization_disk(3, 1.0, 3.0, vol)
        np.testing.assert_allclose(pol.matrix, -(3.0 * vol / 5.0) * np.eye(3), rtol=1e-12)
        assert pol.dim == 3

    def test_symmetric(self):
        pol = polarization_disk(2, 2.0, 0.5, 1.0)
        np.testing.assert_array_equal(pol.matrix, pol.matrix.T)

    def test_validation(self):
        with pytest.raises(ConfigError):
            polarization_disk(2, 1.0, 1.0, math.pi)  # no contrast
        with pytest.raises(ConfigError):
            polarization_disk(4, 1.0, 3.0, math.pi)
        with pytest.raises(ConfigError):
            polarization_disk(2, -1.0, 3.0, math.pi)
        with pytest.raises(ConfigError):
            polarization_disk(2, 1.0, 3.0, 0.0)

    def test_measurement_requires_finite(self):
        with pytest.raises(ConfigError):
            Measurement(value=float("nan"))


@pytest.fixture(scope="module")
def flat_trace():
    """Constant-in-time trace of the field x1 on a coarse empty mesh."""
    mesh = build_mesh(InclusionSet(items=()), 0.2, 0.2)
    grid = TimeGrid(16, 1.0)
    field = solve_background(mesh, 0.5, None, lambda p: p[:, 0], None, grid)
    return boundary_restrict(field)


class TestMeasurementBoundary:
    def test_cosine_pairing_matches_circle_integral(self, flat_trace):
        # the boundary nodes sit on the unit circle: x1 is the cosine of their angle
        cos = flat_trace.points[:, 0]
        tr = replace(flat_trace, values=np.tile(cos, (flat_trace.grid.n_steps + 1, 1)))
        phin = np.tile(cos, (flat_trace.grid.n_steps + 1, 1))
        got = measurement_boundary(tr, phin, 2.0).value
        # gamma0 * T * int_circle cos^2 = 2pi, up to polygonal arc error
        assert got == pytest.approx(2.0 * math.pi, rel=2e-3)

    def test_zero_diff_gives_zero(self, flat_trace):
        tr = replace(flat_trace, values=np.zeros_like(flat_trace.values))
        assert measurement_boundary(tr, np.ones_like(tr.values), 1.0).value == 0.0

    def test_linear_in_trace_and_gamma0(self, flat_trace):
        x, y = flat_trace.points.T
        # cos(2 theta) on the unit circle
        phin = (x * x - y * y)[None, :] * np.ones((flat_trace.grid.n_steps + 1, 1))
        base = measurement_boundary(flat_trace, phin, 1.0).value
        doubled = replace(flat_trace, values=2.0 * flat_trace.values)
        assert measurement_boundary(doubled, phin, 1.0).value == pytest.approx(
            2.0 * base, rel=1e-12
        )
        assert measurement_boundary(flat_trace, phin, 3.0).value == pytest.approx(
            3.0 * base, rel=1e-12
        )

    def test_callable_and_array_paths_agree(self, flat_trace):
        # a handle takes one time or an array of times, one row per time
        def phi(p, t, n):
            return (1.0 + np.asarray(t)[..., None]) * p[:, 1]

        assert phi(np.ones((3, 2)), 0.5, None).shape == (3,)

        pts = flat_trace.points
        arr = np.array([(1.0 + t) * pts[:, 1] for t in flat_trace.grid.nodes])
        a = measurement_boundary(flat_trace, phi, 1.0).value
        b = measurement_boundary(flat_trace, arr, 1.0).value
        assert a == pytest.approx(b, rel=1e-14)

    def test_shape_mismatch_rejected(self, flat_trace):
        with pytest.raises(ConfigError):
            measurement_boundary(flat_trace, np.ones((2, 3)), 1.0)
        with pytest.raises(ConfigError):
            measurement_boundary(flat_trace, np.ones_like(flat_trace.values), -1.0)


class TestMeasurementInterior:
    def test_linear_field_exact(self):
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.05, 50.0),))
        mesh = build_mesh(incs, 0.15, 0.0125)
        grid = TimeGrid(16, 1.0)
        c = np.array([0.8, -0.3])
        e = np.array([0.4, 1.1])
        vals = np.tile(mesh.vertices @ c, (grid.n_steps + 1, 1))
        field = SpaceTimeField(mesh=mesh, grid=grid, values=vals)
        got = measurement_interior(
            field, lambda p, t: np.tile(e, (len(p), 1)), incs
        ).value
        expected = (1.0 - 50.0) * (c @ e) * mesh.region_area(0) * 1.0
        assert got == pytest.approx(expected, rel=1e-12)
        # gamma_l > gamma0 with aligned gradients: negative sign
        aligned = measurement_interior(
            field, lambda p, t: np.tile(c, (len(p), 1)), incs
        ).value
        assert aligned < 0.0

    def test_empty_inclusions_zero(self):
        mesh = build_mesh(InclusionSet(items=()), 0.2, 0.2)
        grid = TimeGrid(4, 1.0)
        field = solve_background(mesh, 0.5, None, lambda p: p[:, 0], None, grid)
        got = measurement_interior(
            field, lambda p, t: np.ones((len(p), 2)), InclusionSet(items=())
        )
        assert got.value == 0.0

    def test_missing_tags_rejected(self):
        mesh = build_mesh(InclusionSet(items=()), 0.2, 0.2)
        grid = TimeGrid(4, 1.0)
        field = solve_background(mesh, 0.5, None, lambda p: p[:, 0], None, grid)
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.05, 50.0),))
        with pytest.raises(ConfigError):
            measurement_interior(field, lambda p, t: np.ones((len(p), 2)), incs)


class TestKernelProbe:
    def test_zero_at_and_beyond_final_time(self, coeffs_half):
        probe = KernelProbe(coeffs=coeffs_half, n_terms=3, source=(2.0, 0.0), t_final=1.0)
        pts = np.array([[0.3, 0.1], [-0.5, 0.4]])
        np.testing.assert_array_equal(probe.value(pts, 1.0), 0.0)
        np.testing.assert_array_equal(probe.gradient(pts, 1.2), 0.0)
        np.testing.assert_array_equal(
            probe.normal_derivative(pts, 1.0, np.ones_like(pts)), 0.0
        )

    def test_time_reversal_matches_kernel(self, coeffs_half):
        probe = KernelProbe(coeffs=coeffs_half, n_terms=3, source=(2.0, 0.0), t_final=1.0)
        pts = np.array([[0.3, 0.1]])
        t = 0.25
        direct = approx_fundamental(coeffs_half, 2, 3, pts, 1.0 - t, np.array([2.0, 0.0]))
        np.testing.assert_allclose(probe.value(pts, t), direct, rtol=1e-14)

    def test_normal_derivative_is_projected_gradient(self, coeffs_half):
        probe = KernelProbe(coeffs=coeffs_half, n_terms=3, source=(2.0, 0.0), t_final=1.0)
        pts = np.array([[0.9, 0.0], [0.0, -0.9]])
        normals = pts / np.linalg.norm(pts, axis=1)[:, None]
        grad = probe.gradient(pts, 0.5)
        np.testing.assert_allclose(
            probe.normal_derivative(pts, 0.5, normals), (grad * normals).sum(1), rtol=1e-14
        )

    def test_normal_derivative_at_the_source_is_a_config_error(self, coeffs_half):
        probe = KernelProbe(coeffs=coeffs_half, n_terms=3, source=(2.0, 0.0), t_final=1.0)
        pts = np.array([[0.9, 0.0], [2.0, 0.0]])
        with pytest.raises(ConfigError, match="pole"):
            probe.normal_derivative(pts, np.array([0.2, 0.5]), np.ones_like(pts))

    @pytest.mark.parametrize("gamma0", [0.0, -1.0])
    def test_nonpositive_gamma0_refused(self, coeffs_half, gamma0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="gamma0 must be positive"):
                KernelProbe(coeffs=coeffs_half, n_terms=3, source=(2.0, 0.0), t_final=1.0, gamma0=gamma0)

    def test_validation(self, coeffs_half):
        with pytest.raises(ConfigError):
            KernelProbe(coeffs=coeffs_half, n_terms=3, source=(2.0, 0.0, 0.0, 0.0), t_final=1.0)
        assert KernelProbe(coeffs=coeffs_half, n_terms=3, source=(2.0, 0.0, 0.0), t_final=1.0).d == 3
        with pytest.raises(ConfigError):
            KernelProbe(coeffs=coeffs_half, n_terms=3, source=(2.0, 0.0), t_final=0.0)


class TestHandleContract:
    """Every handle takes one time or a 1-D array of times."""

    @pytest.fixture(params=["series", "exact"])
    def any_probe(self, request, coeffs_half):
        src = (2.0 * math.cos(0.7), 2.0 * math.sin(0.7))
        if request.param == "series":
            return KernelProbe(coeffs=coeffs_half, n_terms=3, source=src, t_final=1.0)
        return OracleKernelProbe(2, 0.5, src, 1.0)

    def test_array_of_times_matches_scalar_calls(self, any_probe):
        angles = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        # levels past the final time included: those rows are zero
        times = np.concatenate([np.linspace(0.0, 1.0, 17), [1.25]])
        handles = (
            lambda t: any_probe.value(pts, t),
            lambda t: any_probe.gradient(pts, t),
            lambda t: any_probe.normal_derivative(pts, t, pts),
        )
        for handle in handles:
            got = handle(times)
            ref = np.stack([handle(t) for t in times])
            assert got.shape == ref.shape == (len(times),) + handle(0.5).shape
            np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)
            assert np.all(got[-2:] == 0.0)
            assert np.all(got[:-2] != 0.0)

    def test_tabulation_is_one_handle_call(self, flat_trace, any_probe):
        calls = []

        def phi(p, t, n):
            calls.append(np.shape(t))
            return any_probe.normal_derivative(p, t, n)

        tab = tabulate_normal_derivative(phi, flat_trace)
        assert calls == [(flat_trace.grid.n_steps + 1,)]
        assert tab.shape == flat_trace.values.shape


class TestProbeTable:
    """One table per trace; each call takes dPhi/dn for a stack of sources."""

    @staticmethod
    def sources(n, seed):
        rng = np.random.default_rng(seed)
        angle = rng.uniform(0.0, 2.0 * math.pi, n)
        return rng.uniform(1.02, 4.0, n)[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])

    @pytest.mark.parametrize("n_terms, gamma0", [(3, 1.0), (1, 2.5), (5, 0.4)])
    def test_matches_kernel_probe_bitwise(self, flat_trace, coeffs_half, n_terms, gamma0):
        sources = self.sources(9, n_terms)
        got = ProbeTable(flat_trace, coeffs_half, n_terms, gamma0).normal_derivative(sources)
        assert got.shape == (9,) + flat_trace.values.shape
        # the formula as KernelProbe took it before the table: ((x - P).n)
        # times greenfn's gradient factor at the live elapsed times, on the
        # boundary vertices themselves, each its own normal
        mesh = flat_trace.mesh
        pts = mesh.vertices[: mesh.n_boundary].copy()
        s = flat_trace.grid.t_final - flat_trace.grid.nodes
        live = s > 0.0
        for src, row in zip(sources, got):
            probe = KernelProbe(coeffs_half, n_terms, src, t_final=1.0, gamma0=gamma0)
            assert np.array_equal(row, tabulate_normal_derivative(probe.normal_derivative, flat_trace))
            rel = pts - src
            ref = np.zeros_like(row)
            ref[live] = np.sum(rel * pts, axis=-1) * _gradient_factor(
                coeffs_half, 2, n_terms, np.sum(rel * rel, axis=-1), s[live], 0.0, gamma0
            )
            assert np.array_equal(row, ref)
        assert np.all(got[:, ~live] == 0.0) and np.all(got[:, live] != 0.0)

    def test_time_half_is_taken_once(self, flat_trace, coeffs_half, monkeypatch):
        calls = []
        real = measure._gradient_time_half

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(measure, "_gradient_time_half", counting)
        table = ProbeTable(flat_trace, coeffs_half, 3)
        for seed in (1, 2, 3):
            table.normal_derivative(self.sources(seed, seed))
        assert len(calls) == 1

    def test_points_are_the_boundary_vertices(self, flat_trace, coeffs_half):
        table = ProbeTable(flat_trace, coeffs_half, 3)
        mesh = flat_trace.mesh
        first = mesh.vertices[: mesh.n_boundary]
        assert table.points.view(np.int64).tolist() == first.view(np.int64).tolist()
        assert np.shares_memory(table.points, mesh.vertices)

    def test_sources_must_be_planar(self, flat_trace, coeffs_half):
        table = ProbeTable(flat_trace, coeffs_half, 3)
        with pytest.raises(ConfigError, match="R\\^2"):
            table.normal_derivative([[2.0, 0.0, 0.0]])

    @staticmethod
    def traces(trace):
        """Three traces on the mesh and grid of trace: x1, (1 + t) x2 and
        t (x1^2 - x2^2) at its nodes."""
        x, y = trace.points.T
        t = trace.grid.nodes[:, None]
        fields = (x + 0.0 * t, (1.0 + t) * y, t * (x * x - y * y))
        return [replace(trace, values=v) for v in fields]

    def test_measure_is_measurement_boundary_of_each_pair(self, flat_trace, coeffs_half):
        anchors = self.sources(4, 11)
        traces = self.traces(flat_trace)
        got = ProbeTable(flat_trace, coeffs_half, 3, 2.5).measure(anchors, traces)
        assert got.shape == (4, 3)
        for i, anchor in enumerate(anchors):
            probe = KernelProbe(coeffs_half, 3, anchor, t_final=1.0, gamma0=2.5)
            for j, trace in enumerate(traces):
                want = measurement_boundary(trace, probe.normal_derivative, 2.5).value
                assert got[i, j] == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_one_pair_is_measurement_boundary_bitwise(self, flat_trace, coeffs_half):
        # a 1 x 1 table and measurement_boundary are the same contraction
        table = ProbeTable(flat_trace, coeffs_half, 3, 2.5)
        for anchor in self.sources(4, 11):
            probe = KernelProbe(coeffs_half, 3, anchor, t_final=1.0, gamma0=2.5)
            for trace in self.traces(flat_trace):
                want = measurement_boundary(trace, probe.normal_derivative, 2.5).value
                assert table.measure([anchor], [trace])[0, 0] == want

    def test_measurement_not_finite_is_a_solver_error(self, flat_trace, coeffs_half):
        # inf meets the probe's zero row at t = T (nan) and its live rows (inf)
        table = ProbeTable(flat_trace, coeffs_half, 3)
        bad = replace(flat_trace, values=np.full_like(flat_trace.values, np.inf))
        huge = replace(flat_trace, values=np.full_like(flat_trace.values, 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="boundary measurement is not finite"):
                table.measure([[2.0, 0.0]], [flat_trace, bad])
            with pytest.raises(SolverError, match="boundary measurement is not finite"):
                measurement_boundary(huge, np.full_like(huge.values, 1e300), 1.0)

    def test_measure_refuses_anchors_in_the_disk(self, flat_trace, coeffs_half):
        table = ProbeTable(flat_trace, coeffs_half, 3)
        with pytest.raises(ConfigError, match=r"probe anchor \[1\. 0\.\] must lie outside"):
            table.measure([[2.0, 0.0], [1.0, 0.0]], [flat_trace])

    def test_measure_refuses_traces_off_the_table(self, flat_trace, coeffs_half):
        table = ProbeTable(flat_trace, coeffs_half, 3)
        mesh = flat_trace.mesh
        other_grid = boundary_restrict(
            solve_background(mesh, 0.5, None, lambda p: p[:, 0], None, TimeGrid(8, 1.0))
        )
        copy = replace(mesh, vertices=mesh.vertices.copy())
        other_mesh = replace(flat_trace, mesh=copy)
        for other in (other_grid, other_mesh):
            with pytest.raises(ConfigError, match="different meshes or time grids"):
                table.measure([[2.0, 0.0]], [flat_trace, other])

    @pytest.mark.parametrize("gamma0", [0.0, -1.0])
    def test_nonpositive_gamma0_refused(self, flat_trace, coeffs_half, gamma0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="gamma0 must be positive"):
                ProbeTable(flat_trace, coeffs_half, 3, gamma0)


def _psi_half_quad(d: int, r: float) -> float:
    """Exact radial profile at order 1/2 by subordination quadrature.

    At alpha = 1/2 the subordination density is exp(-tau^2/4)/sqrt(pi),
    so the profile is a smooth one-dimensional integral against the heat
    kernel, independent of the Zolotarev route in fracloc.greenfn.
    """

    def integrand(tau):
        return (
            math.pi**-0.5
            * math.exp(-0.25 * tau * tau)
            * (4.0 * math.pi * tau) ** (-d / 2.0)
            * math.exp(-r * r / (4.0 * tau))
        )

    val, _ = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return val


@pytest.fixture(scope="module")
def probe():
    return OracleKernelProbe(2, 0.5, (2.0, 0.0), 1.0)


class TestOracleProbe:
    def test_subordination_matches_contour_oracle(self):
        # independent route: Gaussian subordination density vs the profiles
        for d, r in [(2, 1.0), (2, 10.0), (3, 2.0), (3, 10.0)]:
            assert _psi_half_quad(d, r) == pytest.approx(
                reduced_green_oracle(d, 0.5, r), rel=1e-11
            )

    def test_value_matches_profile(self, probe):
        # s = 1 so the scaling factor is 1 and value = profile at the distance
        pts = np.array([[0.0, 0.0]])
        assert probe.value(pts, 0.0)[0] == pytest.approx(
            reduced_green_oracle(2, 0.5, 2.0), rel=1e-8
        )

    def test_gradient_matches_finite_difference(self, probe):
        p = np.array([0.3, 0.2])
        t = 0.4
        h = 1e-6
        grad = probe.gradient(p[None], t)[0]
        for k in range(2):
            dp = np.zeros(2)
            dp[k] = h
            fd = (probe.value((p + dp)[None], t)[0] - probe.value((p - dp)[None], t)[0]) / (
                2.0 * h
            )
            assert grad[k] == pytest.approx(fd, rel=1e-6)

    def test_gradient_points_toward_source(self, probe):
        p = np.array([[0.5, 0.1]])
        grad = probe.gradient(p, 0.3)[0]
        to_src = np.array([2.0, 0.0]) - p[0]
        assert grad @ to_src > 0.0

    def test_zero_beyond_table_and_error_below(self, probe):
        # far point at tiny elapsed time: scaled radius beyond the table
        assert probe.value(np.array([[0.0, 0.0]]), 1.0 - 1e-12)[0] == 0.0
        with pytest.raises(ConfigError):
            # scaled radius below r_min: artificially close point
            OracleKernelProbe(2, 0.5, (0.55, 0.0), 1.0).value(np.array([[0.5, 0.0]]), 0.0)

    def test_probes_at_one_order_share_one_profile(self, monkeypatch):
        # the profile depends on d and alpha only: ten probes, one table
        profile = measure.log_reduced_green
        calls = []

        def counting(d, alpha, r):
            calls.append((d, alpha))
            return profile(d, alpha, r)

        monkeypatch.setattr(measure, "log_reduced_green", counting)
        measure._oracle_profile.cache_clear()
        angles = np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
        probes = [OracleKernelProbe(2, 0.5, (2.0 * math.cos(a), 2.0 * math.sin(a)), 1.0 + a) for a in angles]
        assert calls == [(2, 0.5)]
        assert all(p._spline is probes[0]._spline for p in probes)


class TestLeadingTerm:
    def _setup(self, eps=0.05):
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), eps, 50.0),))
        grid = TimeGrid(16, 1.0)
        pol = polarization_disk(2, 1.0, 50.0, math.pi)
        return incs, grid, pol

    def test_hand_value(self):
        incs, grid, pol = self._setup()
        a = np.array([1.0, 0.0])
        b = np.array([0.3, 0.4])
        n_levels = grid.n_steps + 1
        gu = np.tile(a, (n_levels, 1, 1))
        gp = np.tile(b, (n_levels, 1, 1))
        got = leading_term(incs, [pol], gu, gp, grid)
        expected = -(0.05**2) * (1.0 - 50.0) * pol.matrix[0, 0] * (a @ b) * 1.0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_perpendicular_gradients_vanish(self):
        incs, grid, pol = self._setup()
        n_levels = grid.n_steps + 1
        gu = np.tile([1.0, 0.0], (n_levels, 1, 1))
        gp = np.tile([0.0, 1.0], (n_levels, 1, 1))
        assert leading_term(incs, [pol], gu, gp, grid) == 0.0

    def test_sign_flip_and_eps_scaling(self):
        incs, grid, pol = self._setup()
        incs_half, _, _ = self._setup(eps=0.025)
        n_levels = grid.n_steps + 1
        gu = np.tile([1.0, 0.0], (n_levels, 1, 1))
        gp = np.tile([0.6, -0.2], (n_levels, 1, 1))
        base = leading_term(incs, [pol], gu, gp, grid)
        assert leading_term(incs, [pol], -gu, gp, grid) == -base
        assert leading_term(incs_half, [pol], gu, gp, grid) == pytest.approx(
            base / 4.0, rel=1e-14
        )

    def test_validation(self):
        incs, grid, pol = self._setup()
        n_levels = grid.n_steps + 1
        gu = np.tile([1.0, 0.0], (n_levels, 1, 1))
        with pytest.raises(ConfigError):
            leading_term(incs, [], gu, gu, grid)
        with pytest.raises(ConfigError):
            leading_term(incs, [pol], gu[:-1], gu, grid)
        assert leading_term(InclusionSet(items=()), [], np.zeros(0), np.zeros(0), grid) == 0.0


@pytest.fixture(scope="module")
def pipeline():
    incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.05, 50.0),))
    mesh = build_mesh(incs, 0.15, 0.0125)
    grid = TimeGrid(512, 1.0)
    a = np.array([1.0, 0.0])
    u = solve_subdiffusion(mesh, 0.5, incs, None, lambda p: p @ a, lambda p, t, n: n @ a, grid)
    U = solve_background(mesh, 0.5, None, lambda p: p @ a, lambda p, t, n: n @ a, grid)
    diff = boundary_restrict(u).diff(boundary_restrict(U))
    src = 2.0 * np.array([math.cos(math.radians(40)), math.sin(math.radians(40))])
    return incs, u, diff, src


class TestBoundaryInteriorEquivalence:
    """Lemma-style cross-check of the two measurement computations.

    The identity requires Phi to solve the backward equation with zero
    terminal data; the exact-profile probe satisfies it, so the residual
    gap is time discretization and shrinks roughly linearly in dt.
    """

    def test_exact_probe_agreement(self, pipeline):
        incs, u, diff, src = pipeline
        probe = OracleKernelProbe(2, 0.5, src, 1.0)
        I_b = measurement_boundary(diff, probe.normal_derivative, 1.0).value
        I_i = measurement_interior(u, probe.gradient, incs).value
        assert abs(I_b - I_i) / abs(I_i) < 0.02

    def test_truncated_probe_consistent_with_exact(self, pipeline, coeffs_half):
        """The series probe carries its asymptotic residual at moderate
        scaled radius; the measurement still tracks the exact-probe value
        in sign and to leading order."""
        incs, u, diff, src = pipeline
        exact = OracleKernelProbe(2, 0.5, src, 1.0)
        series = KernelProbe(coeffs=coeffs_half, n_terms=3, source=src, t_final=1.0)
        I_exact = measurement_boundary(diff, exact.normal_derivative, 1.0).value
        I_series = measurement_boundary(diff, series.normal_derivative, 1.0).value
        assert np.sign(I_exact) == np.sign(I_series)
        assert abs(I_series - I_exact) / abs(I_exact) < 0.25
