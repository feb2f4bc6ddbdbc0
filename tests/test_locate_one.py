"""Tests for the single-inclusion locator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracloc.errors import ConfigError, ReconstructionError
from fracloc.forward import (
    boundary_diffs,
    boundary_restrict,
    march,
    solve_background,
    solve_subdiffusion,
)
from fracloc.fracmath import TimeGrid
from fracloc.greenfn import s_kernel
from fracloc.locate_one import (
    ProbeSegment,
    Reconstruction1,
    _bisect,
    default_segments,
    intersect,
    locate_one_inclusion,
    probe_value,
    root_on_patch,
    root_on_segment,
)
from fracloc.mesh import Inclusion, InclusionSet, build_mesh


def synthetic_probe(coeffs, z1, direction, grid):
    """Idealized probe functional for a point inclusion at z1.

    For a single small inclusion the leading term of the boundary
    measurement against the moving-source probe is

        (a . (z1 - P)) * integral_0^T w(t) dt,   w < 0,

    so the zero set in P is exactly the axis {a . (z1 - P) = 0}.  This
    builds the time integral directly from the reduced-kernel series
    (first order), bypassing the solver, so recovery should be exact up
    to bisection tolerance.
    """
    z1 = np.asarray(z1, dtype=float)
    a = np.asarray(direction, dtype=float)
    d = z1.size
    s = grid.t_final - grid.nodes
    mask = s > 0.0
    lam = s[mask] ** 0.5
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


class TestProbeSegment:
    def test_point_at_endpoints(self):
        seg = ProbeSegment(0, (1.0, 0.0), (-1.0, 2.0), ((2.0, 0.0),))
        assert np.allclose(seg.point_at(0.0), [-1.0, 2.0])
        assert np.allclose(seg.point_at(1.0), [1.0, 2.0])
        assert np.allclose(seg.point_at(0.25), [-0.5, 2.0])

    def test_axis_normal_2d(self):
        seg = ProbeSegment(0, (1.0, 0.0), (-1.0, 2.0), ((2.0, 0.0),))
        n = seg.axis_normal()
        assert np.allclose(np.abs(n), [0.0, 1.0])
        assert np.isclose(np.linalg.norm(n), 1.0)

    def test_axis_normal_3d_patch(self):
        seg = ProbeSegment(
            0, (1.0, 0.0, 0.0), (-1.0, 2.0, -1.0), ((2.0, 0.0, 0.0), (0.0, 0.0, 2.0))
        )
        n = seg.axis_normal()
        # normal to the patch plane y = 2
        assert np.allclose(np.abs(n), [0.0, 1.0, 0.0])

    def test_axis_normal_3d_single_span_rejected(self):
        seg = ProbeSegment(0, (1.0, 0.0, 0.0), (-1.0, 2.0, -1.0), ((2.0, 0.0, 0.0),))
        with pytest.raises(ConfigError):
            seg.axis_normal()

    def test_touching_domain_rejected(self):
        # segment from (-1, 0.5) to (1, 0.5) dips inside the unit disk
        with pytest.raises(ConfigError):
            ProbeSegment(0, (1.0, 0.0), (-1.0, 0.5), ((2.0, 0.0),))

    def test_dependent_spans_rejected(self):
        with pytest.raises(ConfigError):
            ProbeSegment(
                0,
                (1.0, 0.0, 0.0),
                (-1.0, 2.0, -1.0),
                ((2.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            )

    def test_bad_dimension_rejected(self):
        with pytest.raises(ConfigError):
            ProbeSegment(0, (1.0,), (2.0,), ((1.0,),))

    def test_span_count_rejected(self):
        with pytest.raises(ConfigError):
            ProbeSegment(0, (1.0, 0.0), (-1.0, 2.0), ())


class TestReconstruction1:
    def test_fields_coerced(self):
        rec = Reconstruction1([0.2, 0.3], [0.2, 2.0], [2.0, 0.3], 0.0)
        assert isinstance(rec.P, np.ndarray)
        assert rec.rho0 == 0.0

    def test_outside_domain_rejected(self):
        with pytest.raises(ReconstructionError):
            Reconstruction1([1.5, 0.3], [0.2, 2.0], [2.0, 0.3], 0.0)

    def test_negative_rho0_rejected(self):
        with pytest.raises(ConfigError):
            Reconstruction1([0.2, 0.3], [0.2, 2.0], [2.0, 0.3], -0.1)


class TestDefaultSegments:
    def test_geometry(self):
        seg1, seg2 = default_segments()
        assert np.allclose(seg1.point_at(0.0), [-1.0, 2.0])
        assert np.allclose(seg1.point_at(1.0), [1.0, 2.0])
        assert np.allclose(seg2.point_at(0.0), [2.0, -1.0])
        assert np.allclose(seg2.point_at(1.0), [2.0, 1.0])
        assert np.allclose(seg1.direction, [1.0, 0.0])
        assert np.allclose(seg2.direction, [0.0, 1.0])

    def test_distance_inside_domain_rejected(self):
        with pytest.raises(ConfigError):
            default_segments(distance=1.0)


class TestRootOnSegment:
    def test_linear_probe_root(self):
        seg = default_segments()[0]
        root = root_on_segment(seg, lambda P: P[0] - 0.3, tol=1e-8)
        assert abs(root[0] - 0.3) < 4e-8
        assert root[1] == 2.0

    def test_tolerance_controls_error(self):
        seg = default_segments()[0]
        errs = []
        for tol in (1e-2, 1e-4, 1e-6):
            root = root_on_segment(seg, lambda P: P[0] + 0.137, tol=tol)
            errs.append(abs(root[0] + 0.137))
        assert errs[0] > errs[1] > errs[2]
        # parameter tolerance maps to coordinates through the span length
        assert errs[2] < 2.0 * 1e-6

    def test_tolerance_below_double_spacing_ends(self):
        # near the root, s = 0.65, the bracket stops shrinking at one ulp
        # (1.1e-16), above this tolerance; the bisection still stops once
        # its rounds have halved the width below it
        seg = default_segments()[0]
        root = root_on_segment(seg, lambda P: P[0] - 0.3, tol=1e-17)
        assert abs(root[0] - 0.3) <= 1e-15

    def test_descending_sign_change(self):
        seg = default_segments()[0]
        root = root_on_segment(seg, lambda P: 0.3 - P[0], tol=1e-8)
        assert abs(root[0] - 0.3) < 4e-8

    def test_no_sign_change_raises(self):
        seg = default_segments()[0]
        with pytest.raises(ReconstructionError):
            root_on_segment(seg, lambda P: 1.0 + P[0] ** 2, tol=1e-6)

    def test_patch_segment_rejected(self):
        seg = ProbeSegment(
            0, (1.0, 0.0, 0.0), (-1.0, 2.0, -1.0), ((2.0, 0.0, 0.0), (0.0, 0.0, 2.0))
        )
        with pytest.raises(ConfigError):
            root_on_segment(seg, lambda P: P[0], tol=1e-6)


def linear_brackets(roots, slopes, calls):
    """f for _bisect over brackets j with values slopes[j] (s - roots[j])."""
    roots = np.asarray(roots, dtype=float)
    slopes = np.asarray(slopes, dtype=float)

    def f(params):
        calls.append(len(params))
        return slopes * (np.asarray(params, dtype=float) - roots)

    return f


class TestLockstepBisect:
    # dyadic roots j/64 are hit exactly at a midpoint (or an end) within
    # six rounds, the others only bracketed
    root = st.one_of(st.integers(0, 64).map(lambda j: j / 64.0), st.floats(0.0, 1.0))

    @settings(max_examples=80, deadline=None)
    @given(
        brackets=st.lists(st.tuples(root, st.sampled_from([-1.0, 1.0])), min_size=1, max_size=4),
        tol=st.sampled_from([0.3, 1e-2, 1e-4, 1e-7, 1e-12]),
    )
    def test_equals_separate_runs(self, brackets, tol):
        roots, slopes = zip(*brackets)
        calls = []
        f = linear_brackets(roots, slopes, calls)
        k = len(roots)
        got = _bisect(f, f(np.zeros(k)), f(np.ones(k)), tol)
        alone = []
        for r, sl in brackets:
            one = []
            g = linear_brackets([r], [sl], one)
            (root,) = _bisect(g, g([0.0]), g([1.0]), tol)
            alone.append((root, len(one)))
            assert one == [1] * len(one)
            exact = (r * 64.0).is_integer() and tol < 1.0 / 64
            assert root == r if exact else abs(root - r) <= tol
        assert got.tolist() == [root for root, _ in alone]
        # one call of f per round, for every bracket
        assert calls == [k] * max(n for _, n in alone)

    def test_no_sign_change_names_its_bracket(self):
        f = linear_brackets([0.4, 1.5], [1.0, 1.0], [])
        with pytest.raises(ReconstructionError, match=r"-1\.500e\+00 and -5\.000e-01"):
            _bisect(f, f(np.zeros(2)), f(np.ones(2)), 1e-6)

    def test_zero_at_both_ends_names_its_bracket(self):
        # bracket 0 changes sign, bracket 1 is 0 at both ends: no signal
        def f(params):
            return [params[0] - 0.4, 0.0]

        with pytest.raises(ReconstructionError, match="bracket 1; the data carry no signal"):
            _bisect(f, [-0.4, 0.0], [0.6, 0.0], 1e-6)


class TestIntersect:
    def test_frozen_crossing(self):
        seg1, seg2 = default_segments()
        rec = intersect(np.array([0.2, 2.0]), np.array([2.0, 0.3]), (seg1, seg2))
        assert np.allclose(rec.P, [0.2, 0.3], atol=1e-12)
        assert rec.rho0 < 1e-12

    def test_meeting_axes_3d(self):
        seg1 = ProbeSegment(
            0, (1.0, 0.0, 0.0), (-1.0, 2.0, -1.0), ((2.0, 0.0, 0.0), (0.0, 0.0, 2.0))
        )
        seg2 = ProbeSegment(
            1, (0.0, 1.0, 0.0), (2.0, -1.0, -1.0), ((0.0, 2.0, 0.0), (0.0, 0.0, 2.0))
        )
        rec = intersect(
            np.array([0.1, 2.0, 0.4]), np.array([2.0, 0.2, 0.4]), (seg1, seg2)
        )
        assert np.allclose(rec.P, [0.1, 0.2, 0.4], atol=1e-12)
        assert rec.rho0 < 1e-12

    def test_skew_axes_midpoint(self):
        # offset the two axis feet in the shared z coordinate by delta;
        # the common perpendicular has length delta and the reported
        # center sits halfway
        seg1 = ProbeSegment(
            0, (1.0, 0.0, 0.0), (-1.0, 2.0, -1.0), ((2.0, 0.0, 0.0), (0.0, 0.0, 2.0))
        )
        seg2 = ProbeSegment(
            1, (0.0, 1.0, 0.0), (2.0, -1.0, -1.0), ((0.0, 2.0, 0.0), (0.0, 0.0, 2.0))
        )
        delta = 0.06
        rec = intersect(
            np.array([0.1, 2.0, 0.4 - delta / 2]),
            np.array([2.0, 0.2, 0.4 + delta / 2]),
            (seg1, seg2),
        )
        assert np.allclose(rec.P, [0.1, 0.2, 0.4], atol=1e-12)
        assert np.isclose(rec.rho0, delta / 2, atol=1e-12)

    def test_parallel_axes_rejected(self):
        seg1 = ProbeSegment(0, (1.0, 0.0), (-1.0, 2.0), ((2.0, 0.0),))
        seg2 = ProbeSegment(1, (1.0, 0.0), (-1.0, -2.0), ((2.0, 0.0),))
        with pytest.raises(ReconstructionError):
            intersect(np.array([0.2, 2.0]), np.array([0.3, -2.0]), (seg1, seg2))


class TestSyntheticRecovery:
    """Recovery against the idealized leading-order probe is exact."""

    @settings(max_examples=10, deadline=None)
    @given(
        cx=st.floats(-0.55, 0.55),
        cy=st.floats(-0.55, 0.55),
        angle=st.floats(0.0, 2.0 * np.pi),
    )
    def test_two_dim_recovery(self, coeffs_half, cx, cy, angle):
        z1 = np.array([cx, cy])
        grid = TimeGrid(64, 1.0)
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
                seg, synthetic_probe(coeffs_half, z1, seg.direction, grid), tol=1e-7
            )
            for seg in segments
        ]
        rec = intersect(roots[0], roots[1], segments)
        assert np.linalg.norm(rec.P - z1) <= 1e-6
        assert rec.rho0 <= 1e-6

    def test_three_dim_recovery(self, coeffs_half):
        rng = np.random.default_rng(11)
        grid = TimeGrid(64, 1.0)
        seg1 = ProbeSegment(
            0, (1.0, 0.0, 0.0), (-1.0, 2.0, -1.0), ((2.0, 0.0, 0.0), (0.0, 0.0, 2.0))
        )
        seg2 = ProbeSegment(
            1, (0.0, 1.0, 0.0), (2.0, -1.0, -1.0), ((0.0, 2.0, 0.0), (0.0, 0.0, 2.0))
        )
        a3 = np.array([0.0, 0.0, 1.0])
        for _ in range(3):
            z1 = rng.uniform(-0.45, 0.45, size=3)
            roots = []
            for seg in (seg1, seg2):
                inner = synthetic_probe(coeffs_half, z1, a3, grid)
                outer = synthetic_probe(coeffs_half, z1, seg.direction, grid)
                roots.append(root_on_patch(seg, inner, outer, tol=1e-7))
            rec = intersect(roots[0], roots[1], (seg1, seg2))
            assert np.linalg.norm(rec.P - z1) <= 1e-6
            assert rec.rho0 <= 1e-6

    def test_probe_sign_flip_same_root(self, coeffs_half):
        z1 = np.array([0.2, 0.3])
        grid = TimeGrid(64, 1.0)
        seg = default_segments()[0]
        plus = synthetic_probe(coeffs_half, z1, seg.direction, grid)
        minus = lambda P: -plus(P)
        r1 = root_on_segment(seg, plus, tol=1e-9)
        r2 = root_on_segment(seg, minus, tol=1e-9)
        assert np.linalg.norm(r1 - r2) < 1e-8

    def test_rotation_equivariance(self, coeffs_half):
        z1 = np.array([0.31, -0.12])
        grid = TimeGrid(64, 1.0)
        theta = 0.7
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])

        def recover(z, segments):
            roots = [
                root_on_segment(
                    seg, synthetic_probe(coeffs_half, z, seg.direction, grid), tol=1e-10
                )
                for seg in segments
            ]
            return intersect(roots[0], roots[1], segments).P

        base = default_segments()
        rotated = tuple(
            ProbeSegment(
                seg.index,
                tuple(R @ seg.direction),
                tuple(R @ seg.origin),
                (tuple(R @ seg.spans[0]),),
            )
            for seg in base
        )
        P_base = recover(z1, base)
        P_rot = recover(R @ z1, rotated)
        assert np.linalg.norm(P_rot - R @ P_base) < 1e-8


class TestEndToEnd:
    def test_fem_recovery_within_radius(self, coeffs_half):
        z1 = np.array([0.2, 0.3])
        eps = 0.1
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), eps, 50.0),))
        mesh = build_mesh(incs, 0.15, eps / 4.0)
        grid = TimeGrid(128, 1.0)
        diffs = []
        for a in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            u = solve_subdiffusion(
                mesh, 0.5, incs, None, lambda p: p @ a,
                lambda p, t, n: n @ a, grid,
            )
            U = solve_background(
                mesh, 0.5, None, lambda p: p @ a, lambda p, t, n: n @ a, grid
            )
            diffs.append(boundary_restrict(u).diff(boundary_restrict(U)))
        rec = locate_one_inclusion(diffs, coeffs_half, tol=1e-4)
        assert np.linalg.norm(rec.P - z1) <= eps

    def test_lockstep_roots_are_the_per_segment_roots(self, coeffs_half):
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.1, 50.0),))
        mesh = build_mesh(incs, 0.3, 0.025)
        grid = TimeGrid(16, 1.0)
        (u,) = march(mesh, 0.5, [incs], lambda p: p, lambda p, t, n: n, grid)
        diffs = boundary_diffs(mesh, grid, u, np.broadcast_to(mesh.vertices, u.shape))
        rec = locate_one_inclusion(diffs, coeffs_half, tol=1e-3)
        for seg, diff, root in zip(default_segments(), diffs, (rec.P1, rec.P2)):
            alone = root_on_segment(seg, lambda P: probe_value(P, diff, coeffs_half), tol=1e-3)
            assert np.array_equal(root, alone)

    def test_traces_on_other_nodes_rejected(self, coeffs_half):
        grid = TimeGrid(8, 1.0)
        traces = []
        for h in (0.3, 0.25):
            mesh = build_mesh(InclusionSet(items=()), h, h)
            U = solve_background(mesh, 0.5, None, lambda p: p[:, 0], lambda p, t, n: n[:, 0], grid)
            traces.append(boundary_restrict(U).diff(boundary_restrict(U)))
        with pytest.raises(ConfigError, match="different meshes or time grids"):
            locate_one_inclusion(traces, coeffs_half)

    def test_traces_on_other_time_grids_rejected(self, coeffs_half):
        mesh = build_mesh(InclusionSet(items=()), 0.3, 0.3)
        traces = []
        for t_final in (1.0, 2.0):
            grid = TimeGrid(8, t_final)
            U = solve_background(mesh, 0.5, None, lambda p: p[:, 0], lambda p, t, n: n[:, 0], grid)
            traces.append(boundary_restrict(U).diff(boundary_restrict(U)))
        with pytest.raises(ConfigError, match="different meshes or time grids"):
            locate_one_inclusion(traces, coeffs_half)

    def test_probe_value_rejects_interior_point(self, coeffs_half):
        grid = TimeGrid(8, 1.0)
        incs = InclusionSet(items=())
        mesh = build_mesh(incs, 0.3, 0.3)
        a = np.array([1.0, 0.0])
        U = solve_background(mesh, 0.5, None, lambda p: p @ a, lambda p, t, n: n @ a, grid)
        diff = boundary_restrict(U).diff(boundary_restrict(U))
        with pytest.raises(ConfigError):
            probe_value(np.array([0.5, 0.5]), diff, coeffs_half)

    def test_wrong_number_of_diffs(self, coeffs_half):
        with pytest.raises(ConfigError):
            locate_one_inclusion([], coeffs_half)
