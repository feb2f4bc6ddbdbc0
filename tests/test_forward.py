"""Tests for the L1 / P1 forward solver and the boundary data model."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from fracloc import forward
from fracloc.errors import ConfigError, SolverError
from fracloc.forward import (
    BoundaryTrace,
    SpaceTimeField,
    add_noise,
    assemble_matrices,
    boundary_diffs,
    boundary_restrict,
    solve_background,
    solve_subdiffusion,
)
from fracloc.fracmath import TimeGrid, caputo_l1_apply, l1_constants
from fracloc.greenfn import approx_fundamental, grad_approx_fundamental
from fracloc.mesh import Inclusion, InclusionSet, build_mesh


def march_pair(mesh, alpha, incs, u0, g, grid):
    """The march of a block at incs and at its background InclusionSet((), gamma0)."""
    return forward.march(mesh, alpha, [incs, InclusionSet((), incs.gamma0)], u0, g, grid)


def neumann_load(mesh, g, t):
    """The march's boundary load of flux g at time t, on every node."""
    rim = forward._boundary_loads(mesh, g, [t])[:, 0]
    load = np.zeros((len(mesh.vertices),) + rim.shape[1:])
    load[: mesh.n_boundary] = rim
    return load


@pytest.fixture(scope="module")
def coarse_mesh():
    return build_mesh(InclusionSet(items=()), 0.2, 0.2)


class TestAssembly:
    def test_mass_total_is_area(self, coarse_mesh):
        gamma = np.ones(len(coarse_mesh.triangles))
        M, _ = assemble_matrices(coarse_mesh, gamma)
        assert M.sum() == pytest.approx(coarse_mesh.triangle_areas().sum(), rel=1e-12)

    def test_stiffness_symmetric_psd_constants_in_kernel(self, coarse_mesh):
        gamma = np.full(len(coarse_mesh.triangles), 3.0)
        _, K = assemble_matrices(coarse_mesh, gamma)
        dense = K.toarray()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        np.testing.assert_allclose(K @ np.ones(dense.shape[0]), 0.0, atol=1e-12)
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = rng.standard_normal(dense.shape[0])
            assert v @ (K @ v) >= -1e-12

    def test_neumann_load_of_unit_flux_is_perimeter(self, coarse_mesh):
        load = neumann_load(coarse_mesh, lambda p, t, n: np.ones(len(p)), 0.0)
        assert load.sum() == pytest.approx(coarse_mesh.edge_lengths().sum(), rel=1e-12)
        assert np.all(load[: coarse_mesh.n_boundary] > 0.0)

    def test_neumann_load_block_is_columnwise(self, coarse_mesh):
        fluxes = [lambda p, t, n: n[:, 0] * t, lambda p, t, n: (p * n).sum(1) + 1.0]
        block = neumann_load(
            coarse_mesh, lambda p, t, n: np.column_stack([g(p, t, n) for g in fluxes]), 0.7
        )
        assert block.shape == (len(coarse_mesh.vertices), 2)
        for j, g in enumerate(fluxes):
            np.testing.assert_array_equal(block[:, j], neumann_load(coarse_mesh, g, 0.7))

    def test_neumann_load_matches_edge_by_edge_sum(self):
        # reference: each edge's load added into its two nodes in turn
        def edge_by_edge(mesh, g, t):
            i, j = mesh.boundary_edges.T
            pi, pj = mesh.vertices[i], mesh.vertices[j]
            lengths = np.hypot(pj[:, 0] - pi[:, 0], pj[:, 1] - pi[:, 1])[:, None]
            gi = g(pi, t, mesh.boundary_normals)
            gj = g(pj, t, mesh.boundary_normals)
            load = np.zeros((len(mesh.vertices),) + gi.shape[1:])
            np.add.at(load, i, lengths * (2.0 * gi + gj) / 6.0)
            np.add.at(load, j, lengths * (gi + 2.0 * gj) / 6.0)
            return load

        incs = InclusionSet(
            items=(Inclusion((0.3, 0.2), 0.05, 5.0), Inclusion((-0.3, -0.2), 0.08, 0.2))
        )
        mesh = build_mesh(incs, 0.1, 0.0125)

        def g(p, t, n):
            return np.column_stack(
                [n[:, 0] * t + p[:, 1] ** 2, np.sin(3.0 * p[:, 0]) * n[:, 1], (p * n).sum(1) + 1.0]
            )

        ref = edge_by_edge(mesh, g, 0.35)
        load = neumann_load(mesh, g, 0.35)
        assert load.shape == ref.shape == (len(mesh.vertices), 3)
        np.testing.assert_allclose(load, ref, rtol=0.0, atol=1e-15 * np.abs(ref).max())


class TestMarch:
    def test_constant_is_conserved(self, coarse_mesh):
        grid = TimeGrid(64, 1.0)
        field = solve_background(
            coarse_mesh, 0.5, None, lambda p: np.ones(len(p)), None, grid
        )
        assert np.max(np.abs(field.values - 1.0)) < 1e-10

    def test_harmonic_background_is_exact(self, coarse_mesh):
        a = np.array([0.3, -0.2])
        grid = TimeGrid(32, 1.0)
        field = solve_background(
            coarse_mesh,
            0.5,
            None,
            lambda p: p @ a,
            lambda p, t, n: n @ a,
            grid,
        )
        exact = coarse_mesh.vertices @ a
        assert np.max(np.abs(field.values - exact)) < 1e-8

    def test_manufactured_solution_converges(self):
        alpha = 0.5
        c = 2.0 / math.gamma(3.0 - alpha)

        def f(p, t):
            r2 = (p**2).sum(1)
            return c * t ** (2.0 - alpha) * r2 - 4.0 * (1.0 + t * t)

        def u0(p):
            return (p**2).sum(1)

        def g(p, t, n):
            return 2.0 * (1.0 + t * t) * (p * n).sum(1)

        rels = []
        for h, n_steps in [(0.35, 16), (0.22, 32), (0.14, 64)]:
            mesh = build_mesh(InclusionSet(items=()), h, h)
            grid = TimeGrid(n_steps, 1.0)
            field = solve_background(mesh, alpha, f, u0, g, grid)
            exact = 2.0 * (mesh.vertices**2).sum(1)
            err = np.abs(field.values[-1] - exact).max()
            rels.append(err / np.abs(exact).max())
        assert rels[0] < 0.04
        assert rels[0] > rels[1] > rels[2]
        assert rels[2] < 5e-3

    def test_alpha_near_one_matches_backward_euler_heat(self, coarse_mesh):
        grid = TimeGrid(128, 1.0)

        def u0(p):
            return np.exp(-(p**2).sum(1))

        field = solve_background(coarse_mesh, 0.999, None, u0, None, grid)

        # backward Euler oracle for the classical heat equation
        gamma = np.ones(len(coarse_mesh.triangles))
        M, K = assemble_matrices(coarse_mesh, gamma)
        from scipy.sparse.linalg import splu

        lu = splu((M / grid.dt + K).tocsc())
        u = u0(coarse_mesh.vertices)
        for _ in range(grid.n_steps):
            u = lu.solve(M @ u / grid.dt)
        rel = np.abs(field.values[-1] - u).max() / np.abs(u).max()
        assert rel < 0.01

    def test_empty_inclusion_set_equals_background(self, coarse_mesh):
        grid = TimeGrid(16, 1.0)
        empty = InclusionSet(items=(), gamma0=2.0)

        def u0(p):
            return p[:, 0]

        a = solve_subdiffusion(coarse_mesh, 0.5, empty, None, u0, None, grid)
        b = solve_background(coarse_mesh, 0.5, None, u0, None, grid, gamma0=2.0)
        np.testing.assert_array_equal(a.values, b.values)

    def test_inclusion_perturbs_boundary_and_grows_with_eps(self):
        grid = TimeGrid(32, 1.0)

        def u0(p):
            return p[:, 0]

        def g(p, t, n):
            return n[:, 0]

        norms = {}
        for eps in (0.05, 0.1):
            incs = InclusionSet(items=(Inclusion((0.3, 0.2), eps, 50.0),))
            mesh = build_mesh(incs, 0.15, eps / 4.0)
            u = solve_subdiffusion(mesh, 0.5, incs, None, u0, g, grid)
            bg = solve_background(mesh, 0.5, None, u0, g, grid)
            norms[eps] = boundary_restrict(u).diff(boundary_restrict(bg)).l1_norm()
        assert norms[0.05] > 0.0
        assert norms[0.1] / norms[0.05] > 2.0

    def test_validation(self, coarse_mesh):
        grid = TimeGrid(4, 1.0)
        with pytest.raises(ConfigError):
            solve_background(coarse_mesh, 1.5, None, None, None, grid)
        with pytest.raises(ConfigError):
            march_pair(coarse_mesh, 1.5, InclusionSet(items=()), lambda p: p, None, grid)
        with pytest.raises(ConfigError):
            solve_background(coarse_mesh, 0.5, None, None, None, grid, gamma0=-1.0)


class TestMarchSteps:
    def test_ordered_factorization_solves_like_default_splu(self):
        from scipy.sparse.linalg import splu

        incs = InclusionSet(items=(Inclusion((0.3, 0.2), 0.05, 50.0),))
        mesh = build_mesh(incs, 0.1, 0.0125)
        M, K = assemble_matrices(mesh, incs.gamma_of_tag(mesh.region_tag))
        beta = 3.2
        rhs = np.random.default_rng(3).standard_normal((len(mesh.vertices), 4))
        lu = forward._factor(M, K, beta)
        default = splu((beta * M + K).tocsc())
        ref = default.solve(rhs)
        assert np.abs(lu.solve(rhs) - ref).max() <= 1e-12 * np.abs(ref).max()
        # the symmetric minimum-degree ordering is the point: less fill
        assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz

    def test_singular_step_matrix_is_solver_error(self):
        from scipy.sparse import csr_matrix, diags

        with pytest.raises(SolverError, match="factorization"):
            forward._factor(csr_matrix((3, 3)), diags([1.0, 0.0, 1.0]).tocsr(), 1.0)

    @staticmethod
    def _nan_from(g, t_bad):
        def flux(p, t, n):
            return np.full(len(p), np.nan) if t >= t_bad else g(p, t, n)

        return flux

    @pytest.mark.parametrize("k", [1, 5, 16])
    def test_non_finite_flux_names_its_step(self, coarse_mesh, k):
        grid = TimeGrid(16, 1.0)
        g = self._nan_from(lambda p, t, n: n[:, 0], grid.nodes[k])
        with pytest.raises(SolverError, match=rf"non-finite solution at time step {k}$"):
            solve_background(coarse_mesh, 0.5, None, lambda p: p[:, 0], g, grid)

    def test_non_finite_march_exits_3(self, tmp_path, monkeypatch, capsys):
        from fracloc import cli

        config = tmp_path / "c.json"
        config.write_text(
            '{"config_version": 1, "time_steps": 8, "mesh": {"h_far": 0.25},'
            ' "inclusions": [{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}]}'
        )

        def solve(mesh, alpha, incs, f, u0, g, grid):
            g = self._nan_from(g, grid.nodes[3])
            return solve_subdiffusion(mesh, alpha, incs, f, u0, g, grid)

        monkeypatch.setattr(cli, "solve_subdiffusion", solve)
        assert cli.main(["forward", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        assert "non-finite solution at time step 3" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pair_case():
    """A three-column block around one inclusion, with gamma0 = 2."""
    incs = InclusionSet(items=(Inclusion((0.3, 0.2), 0.1, 50.0),), gamma0=2.0)
    mesh = build_mesh(incs, 0.25, 0.025)
    grid = TimeGrid(12, 1.0)
    dirs = np.array([[1.0, 0.0], [0.6, -0.8], [-0.3, 0.5]])

    def u0(p):
        return np.exp(-(p**2).sum(1))[:, None] * (1.0 + p @ dirs.T)

    def g(p, t, n):
        return (1.0 + t) * (n @ dirs.T)

    return mesh, incs, u0, g, grid


def second_factorization_fails(monkeypatch, error):
    """Make the second _factor call of any thread raise error."""
    factor = forward._factor
    calls = []
    lock = threading.Lock()

    def failing(*args):
        with lock:
            calls.append(1)
            if len(calls) == 2:
                raise error
        return factor(*args)

    monkeypatch.setattr(forward, "_factor", failing)


class TestSolvePair:
    def test_columns_match_single_marches(self, pair_case):
        # gamma0 = 2 also checks that the background takes the set's gamma0
        mesh, incs, u0, g, grid = pair_case
        u, U = march_pair(mesh, 0.5, incs, u0, g, grid)
        assert u.shape == U.shape == (grid.n_steps + 1, len(mesh.vertices), 3)
        for j in range(3):

            def u0_j(p, j=j):
                return u0(p)[:, j]

            def g_j(p, t, n, j=j):
                return g(p, t, n)[:, j]

            one = solve_subdiffusion(mesh, 0.5, incs, None, u0_j, g_j, grid).values
            bg = solve_background(mesh, 0.5, None, u0_j, g_j, grid, gamma0=2.0).values
            assert np.max(np.abs(u[..., j] - one)) <= 1e-12 * np.max(np.abs(one))
            assert np.max(np.abs(U[..., j] - bg)) <= 1e-12 * np.max(np.abs(bg))

    def test_pair_is_bitwise_two_separate_marches(self, pair_case):
        mesh, incs, u0, g, grid = pair_case
        u, U = march_pair(mesh, 0.5, incs, u0, g, grid)
        for field, conductivity in zip((u, U), (incs, InclusionSet((), 2.0))):
            (alone,) = forward.march(mesh, 0.5, [conductivity], u0, g, grid)
            assert np.array_equal(field, alone)

    def test_worker_error_reaches_the_caller(self, pair_case, monkeypatch):
        # either worker may make the second call; its error must reach
        # the caller as it was raised, after both workers have stopped
        mesh, incs, u0, g, grid = pair_case
        error = SolverError("factorization of the time-step matrix failed: injected")
        second_factorization_fails(monkeypatch, error)
        with pytest.raises(SolverError) as info:
            march_pair(mesh, 0.5, incs, u0, g, grid)
        assert info.value is error

    def test_worker_error_exits_3(self, tmp_path, monkeypatch, capsys):
        from fracloc import cli

        config = tmp_path / "c.json"
        config.write_text(
            json.dumps(
                {
                    "config_version": 1,
                    "time_steps": 8,
                    "mesh": {"h_far": 0.25},
                    "inclusions": [{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
                    "sources": {"n": 6},
                    "scan": {"region": [-0.5, 0.5, -0.5, 0.5], "resolution": 11, "k": 3},
                }
            )
        )
        second_factorization_fails(monkeypatch, SolverError("injected"))
        out = tmp_path / "out"
        assert cli.main(["locate-multi", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "fracloc: solver error: injected\n"


class TestSideBySide:
    """forward.side_by_side: every worker computes under the caller's
    floating-point state, and the first failing call in the list wins."""

    @pytest.mark.parametrize("state", [{}, {"over": "raise"}], ids=["default", "over-raise"])
    def test_worker_sees_the_callers_error_state(self, state):
        with np.errstate(**state):
            expected = np.geterr()
            seen = forward.side_by_side([np.geterr, np.geterr, np.geterr])
        assert seen == [expected] * 3

    def test_worker_overflow_raises_under_the_callers_state(self):
        def overflow():
            return np.array(1e308) * 10.0

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            forward.side_by_side([lambda: None, overflow])

    @pytest.mark.parametrize("caller", [0, 1])
    @pytest.mark.parametrize("later", [0, 1])
    def test_first_failing_call_wins(self, caller, later):
        # both calls raise, call `later` only once the other one has
        errors = [SolverError("first"), SolverError("second")]
        raising = [threading.Event(), threading.Event()]

        def failing(i):
            if i == later:
                assert raising[1 - i].wait(timeout=60)
            raising[i].set()
            raise errors[i]

        with pytest.raises(SolverError) as info:
            forward.side_by_side([partial(failing, 0), partial(failing, 1)], caller=caller)
        assert info.value is errors[0]


class TestThreadCountDeterminism:
    """The march's bits do not depend on the number of BLAS threads."""

    @staticmethod
    def _env(one_thread):
        env = dict(os.environ, PYTHONPATH=str(Path(forward.__file__).parents[1]))
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(var, None)
        if one_thread:
            env["OPENBLAS_NUM_THREADS"] = "1"
        return env

    @classmethod
    def outputs(cls, tmp_path, command, example):
        """The manifest outputs of command on a bundled example, run in a
        process of its own with one BLAS thread and with the default count."""
        config = Path(__file__).parents[1] / "configs" / f"{example}.json"
        outputs = []
        for one_thread in (True, False):
            out = tmp_path / f"threads-{'one' if one_thread else 'default'}"
            argv = [command, "--config", str(config), "--out", str(out)]
            run = subprocess.run(
                [sys.executable, "-m", "fracloc.cli", *argv],
                env=cls._env(one_thread),
                capture_output=True,
                timeout=300,
            )
            assert run.returncode == 0, run.stderr
            outputs.append(json.loads((out / "manifest.json").read_text())["outputs"])
        return outputs

    def test_locate_multi_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        one, default = self.outputs(tmp_path, "locate-multi", "example43")
        assert one == default

    def test_forward_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # u marches while a worker writes the background files beside it
        one, default = self.outputs(tmp_path, "forward", "example42")
        assert "solution_trace.csv" in one
        assert one == default


class TestBlockedHistoryThreadCount:
    """The blocked history product and the outputs of a one-conductivity
    march have the bits of one BLAS thread under the default thread count."""

    def test_block_product_is_the_one_thread_product(self, tmp_path):
        # a block's far product (forward._BLOCK rows) and a step's near one (1 row)
        shapes = [
            (m, k, w)
            for m in (forward._BLOCK, 1)
            for k in (1, 2, 17, 129, 512)
            for w in (1805, 18050, 51600)
        ]
        # the blocked product of each shape, in a process of its own per thread setting
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from fracloc import forward\n"
            f"for m, k, w in {shapes!r}:\n"
            "    rng = np.random.default_rng([m, k, w])\n"
            "    weights = rng.standard_normal((m, k))\n"
            "    levels = rng.standard_normal((k, w))\n"
            "    out = np.empty((m, w))\n"
            "    forward._block_history(weights, levels, out)\n"
            "    np.save(f'{sys.argv[1]}/{m}-{k}-{w}.npy', out)\n"
        )
        for one_thread in (True, False):
            out = tmp_path / ("one" if one_thread else "default")
            out.mkdir()
            env = TestThreadCountDeterminism._env(one_thread)
            run = subprocess.run([sys.executable, "-c", code, str(out)], env=env, timeout=300)
            assert run.returncode == 0
        for m, k, w in shapes:
            name = f"{m}-{k}-{w}.npy"
            assert np.array_equal(np.load(tmp_path / "one" / name), np.load(tmp_path / "default" / name))

    def test_locate_one_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        one, default = TestThreadCountDeterminism.outputs(tmp_path, "locate-one", "example41")
        assert one == default


def l1_residual(mesh, alpha, gamma_tri, values, grid, g, f=None):
    """The largest relative residual over the steps n of the L1 equations

        M L1(u)^n + K u^n = load^n,

    L1 being caputo_l1_apply.  A step's residual is taken relative to the
    largest entry of beta |M| |u^n|, |K| |u^n| and |load^n|, the sizes
    of the terms before they cancel."""
    M, K = assemble_matrices(mesh, gamma_tri)
    beta, _ = l1_constants(alpha, grid)
    levels = values.reshape(len(values), len(mesh.vertices), -1)
    caputo = caputo_l1_apply(alpha, levels.reshape(len(levels), -1), grid).reshape(levels[1:].shape)
    worst = 0.0
    for n, t in enumerate(grid.nodes[1:], start=1):
        load = neumann_load(mesh, g, t).reshape(len(mesh.vertices), -1)
        if f is not None:
            load = load + M @ f(mesh.vertices, t).reshape(len(mesh.vertices), -1)
        residual = M @ caputo[n - 1] + K @ levels[n] - load
        size = abs(beta * M) @ abs(levels[n]) + abs(K) @ abs(levels[n]) + abs(load)
        worst = max(worst, np.abs(residual).max() / size.max())
    return worst


class TestBlockedHistory:
    """The march solves the L1 equations at every step, before, across and
    after block boundaries, in whatever order it sums the history."""

    @pytest.mark.parametrize("columns", [1, 3])
    @pytest.mark.parametrize(
        "n_steps", [1, forward._BLOCK - 1, forward._BLOCK, forward._BLOCK + 1, 129]
    )
    def test_pair_solves_the_l1_equations(self, pair_case, n_steps, columns):
        mesh, incs, u0, g, _ = pair_case
        grid = TimeGrid(n_steps, 1.0)
        if columns == 1:
            u0_, g_ = (lambda p: u0(p)[:, 1]), (lambda p, t, n: g(p, t, n)[:, 1])
        else:
            u0_, g_ = u0, g
        u, U = march_pair(mesh, 0.5, incs, u0_, g_, grid)
        gammas = [incs.gamma_of_tag(mesh.region_tag), np.full(len(mesh.triangles), incs.gamma0)]
        for values, gamma_tri in zip((u, U), gammas):
            assert l1_residual(mesh, 0.5, gamma_tri, values, grid, g_) <= 1e-12

    def test_source_march_solves_the_l1_equations(self, pair_case):
        mesh, incs, u0, g, _ = pair_case
        grid = TimeGrid(forward._BLOCK + 5, 1.0)

        def f(p, t):
            return (1.0 + t**2) * np.cos(p[:, 0] + 2.0 * p[:, 1])

        def g1(p, t, n):
            return g(p, t, n)[:, 0]

        field = solve_subdiffusion(mesh, 0.5, incs, f, lambda p: u0(p)[:, 0], g1, grid)
        gamma_tri = incs.gamma_of_tag(mesh.region_tag)
        assert l1_residual(mesh, 0.5, gamma_tri, field.values, grid, g1, f) <= 1e-12


class TestFundamentalTracking:
    def test_marched_field_follows_point_source_kernel(self, coeffs_half):
        """FEM march started from the translated kernel stays close to it.

        The deviation mixes the restarted fractional history, the series
        truncation at moderate range, and discretization; it shrinks as t
        grows past the restart.  Bound reflects measured behaviour, not a
        convergence rate.
        """
        src = np.array([2.0, 0.0])
        t_init = 1.0 / 128.0
        mesh = build_mesh(InclusionSet(items=()), 0.12, 0.12)
        grid = TimeGrid(128, 1.0)

        def u0(p):
            return approx_fundamental(coeffs_half, 2, 3, p, 0.0, src, t0=-t_init)

        def g(p, t, n):
            grad = grad_approx_fundamental(coeffs_half, 2, 3, p, t, src, t0=-t_init)
            return (grad * n).sum(1)

        field = solve_background(mesh, 0.5, None, u0, g, grid)
        rels = []
        for level in (8, 32, 64, 128):
            t = grid.nodes[level]
            exact = approx_fundamental(coeffs_half, 2, 3, mesh.vertices, t, src, t0=-t_init)
            rels.append(np.abs(field.values[level] - exact).max() / np.abs(exact).max())
        assert max(rels) < 0.15
        assert rels[-1] < 0.03


class TestBoundaryTrace:
    def test_restrict_constant_field(self, coarse_mesh):
        grid = TimeGrid(8, 1.0)
        field = solve_background(
            coarse_mesh, 0.5, None, lambda p: np.full(len(p), 2.5), None, grid
        )
        trace = boundary_restrict(field)
        np.testing.assert_allclose(trace.values, 2.5, atol=1e-10)
        assert trace.mesh is coarse_mesh
        assert coarse_mesh.arc_weights.sum() == pytest.approx(
            coarse_mesh.edge_lengths().sum(), rel=1e-12
        )
        # |2.5| over boundary x [0, 1]: perimeter times 2.5
        assert trace.l1_norm() == pytest.approx(2.5 * coarse_mesh.arc_weights.sum(), rel=1e-12)

    def test_weights_are_the_time_trapezoid_times_the_arc_weights(self, coarse_mesh):
        grid = TimeGrid(8, 2.0)
        trace = BoundaryTrace(coarse_mesh, grid, np.zeros((9, coarse_mesh.n_boundary)))
        weights = trace.weights
        assert np.array_equal(weights, grid.weights[:, None] * coarse_mesh.arc_weights[None, :])
        assert weights.sum() == pytest.approx(2.0 * coarse_mesh.arc_weights.sum(), rel=1e-12)

    def test_fields_are_mesh_grid_values(self):
        assert [f.name for f in fields(BoundaryTrace)] == ["mesh", "grid", "values"]

    def test_points_are_the_first_vertices(self, coarse_mesh):
        grid = TimeGrid(2, 1.0)
        trace = BoundaryTrace(coarse_mesh, grid, np.zeros((3, coarse_mesh.n_boundary)))
        first = coarse_mesh.vertices[: coarse_mesh.n_boundary]
        assert trace.points.view(np.int64).tolist() == first.view(np.int64).tolist()
        assert np.shares_memory(trace.points, coarse_mesh.vertices)

    def test_shape_must_match_mesh_and_grid(self, coarse_mesh):
        with pytest.raises(ConfigError, match="trace shape"):
            BoundaryTrace(coarse_mesh, TimeGrid(4, 1.0), np.zeros((5, coarse_mesh.n_boundary - 1)))
        with pytest.raises(ConfigError, match="trace shape"):
            BoundaryTrace(coarse_mesh, TimeGrid(4, 1.0), np.zeros((4, coarse_mesh.n_boundary)))

    def test_diff_requires_same_nodes(self, coarse_mesh):
        grid = TimeGrid(4, 1.0)
        field = solve_background(coarse_mesh, 0.5, None, lambda p: p[:, 0], None, grid)
        trace = boundary_restrict(field)
        # an equal copy of the mesh is still another mesh
        other = BoundaryTrace(replace(coarse_mesh), grid, trace.values)
        with pytest.raises(ConfigError, match="different meshes or time grids"):
            trace.diff(other)

    def test_diff_requires_same_grid(self, coarse_mesh):
        # the same shape on another time grid: same level count, other t_final
        trace = BoundaryTrace(coarse_mesh, TimeGrid(4, 1.0), np.ones((5, coarse_mesh.n_boundary)))
        other = replace(trace, grid=TimeGrid(4, 2.0))
        with pytest.raises(ConfigError, match="different meshes or time grids"):
            trace.diff(other)
        with pytest.raises(ConfigError, match="different meshes or time grids"):
            other.diff(trace)


@pytest.fixture(scope="module")
def trace():
    mesh = build_mesh(InclusionSet(items=()), 0.25, 0.25)
    grid = TimeGrid(16, 1.0)
    field = solve_background(mesh, 0.5, None, lambda p: 1.0 + p[:, 0], None, grid)
    return boundary_restrict(field)


class TestNoise:
    def test_sigma_zero_is_identity(self, trace):
        noisy = add_noise(trace, 0.0, seed=3)
        np.testing.assert_array_equal(noisy.values, trace.values)

    def test_seed_reproducible(self, trace):
        a = add_noise(trace, 0.01, seed=11)
        b = add_noise(trace, 0.01, seed=11)
        np.testing.assert_array_equal(a.values, b.values)
        c = add_noise(trace, 0.01, seed=12)
        assert not np.array_equal(a.values, c.values)

    def test_achieved_level_matches_draw(self, trace):
        sigma, seed = 0.01, 5
        noisy = add_noise(trace, sigma, seed=seed)
        rng = np.random.default_rng(seed)
        rng.standard_normal(trace.values.shape)
        delta = rng.normal(0.0, sigma)
        achieved = noisy.diff(trace).l1_norm() / trace.l1_norm()
        assert achieved == pytest.approx(abs(delta), rel=1e-12)

    def test_negative_sigma_rejected(self, trace):
        with pytest.raises(ConfigError):
            add_noise(trace, -0.1, seed=0)

    def test_noisy_trace_not_finite_is_a_solver_error(self, trace):
        # the signal's L1 norm, and so the noise, overflows at the largest
        # noise level; computed as the CLI computes, with no warning
        huge = replace(trace, values=np.full_like(trace.values, 1e308))
        with np.errstate(all="ignore"):
            with pytest.raises(SolverError, match="^the noisy boundary trace is not finite$"):
                add_noise(huge, 1.0, seed=1)

    def test_noise_level_above_one_rejected(self, trace):
        with pytest.raises(ConfigError, match="^noise level must be at most 1, got 1.5$"):
            add_noise(trace, 1.5, seed=0)
        assert np.isfinite(add_noise(trace, 1.0, seed=0).values).all()


class TestBoundaryDiffs:
    @pytest.fixture(scope="class")
    def block(self):
        incs = InclusionSet(items=(Inclusion((0.2, 0.3), 0.1, 50.0),))
        mesh = build_mesh(incs, 0.25, 0.025)
        grid = TimeGrid(8, 1.0)
        dirs = np.array([[1.0, 0.0], [0.6, -0.8], [-0.3, 0.5]])
        u, U = march_pair(mesh, 0.5, incs, lambda p: p @ dirs.T, lambda p, t, n: n @ dirs.T, grid)
        return mesh, grid, u, U

    def _traces(self, block, j):
        mesh, grid, u, U = block
        return [boundary_restrict(SpaceTimeField(mesh, grid, v[..., j])) for v in (u, U)]

    def test_noiseless_columns_are_trace_diffs(self, block):
        diffs = boundary_diffs(*block)
        assert len(diffs) == 3
        for j, diff in enumerate(diffs):
            u_j, U_j = self._traces(block, j)
            np.testing.assert_array_equal(diff.values, u_j.diff(U_j).values)
            assert diff.mesh is u_j.mesh and diff.grid == u_j.grid

    def test_column_j_draws_from_child_j(self, block):
        diffs = boundary_diffs(*block, sigma=0.01, seed=7)
        children = np.random.SeedSequence(7).spawn(3)
        for j, diff in enumerate(diffs):
            u_j, U_j = self._traces(block, j)
            expected = add_noise(u_j, 0.01, children[j]).diff(U_j)
            np.testing.assert_array_equal(diff.values, expected.values)
        # the columns draw independent noise
        clean = boundary_diffs(*block)
        noise = [d.values - c.values for d, c in zip(diffs, clean)]
        assert not np.allclose(noise[0], noise[1])

    def test_noise_does_not_depend_on_memory_order(self, coarse_mesh):
        # every column's noise is scaled as add_noise scales the trace
        # boundary_restrict makes of that column, bit for bit, whatever
        # the rounding of the L1 norms over the block's memory order
        grid = TimeGrid(16, 1.0)
        rng = np.random.default_rng(11)
        for seed in range(20):
            u, U = rng.standard_normal((2, grid.n_steps + 1, len(coarse_mesh.vertices), 3))
            diffs = boundary_diffs(coarse_mesh, grid, u, U, sigma=0.05, seed=seed)
            children = np.random.SeedSequence(seed).spawn(3)
            for j, diff in enumerate(diffs):
                u_j, U_j = (
                    boundary_restrict(SpaceTimeField(coarse_mesh, grid, v[..., j])) for v in (u, U)
                )
                expected = add_noise(u_j, 0.05, children[j]).diff(U_j)
                np.testing.assert_array_equal(diff.values, expected.values)

    def test_negative_sigma_rejected(self, block):
        with pytest.raises(ConfigError):
            boundary_diffs(*block, sigma=-0.01, seed=0)


class TestContainers:
    def test_field_shape_validated(self, coarse_mesh):
        grid = TimeGrid(4, 1.0)
        with pytest.raises(ConfigError):
            SpaceTimeField(coarse_mesh, grid, np.zeros((3, len(coarse_mesh.vertices))))

    def test_field_rejects_non_finite(self, coarse_mesh):
        grid = TimeGrid(1, 1.0)
        bad = np.zeros((2, len(coarse_mesh.vertices)))
        bad[1, 0] = np.nan
        with pytest.raises(SolverError):
            SpaceTimeField(coarse_mesh, grid, bad)

    def test_csv_round_numbers(self, coarse_mesh, tmp_path):
        grid = TimeGrid(2, 1.0)
        field = solve_background(
            coarse_mesh, 0.5, None, lambda p: p[:, 1], None, grid
        )
        fpath = tmp_path / "field.csv"
        field.to_csv(fpath)
        lines = fpath.read_text().splitlines()
        assert lines[0] == "node,t0,t1,t2"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(coarse_mesh.vertices[0, 1])

        trace = boundary_restrict(field)
        tpath = tmp_path / "trace.csv"
        trace.to_csv(tpath)
        tlines = tpath.read_text().splitlines()
        assert tlines[0].startswith("angle,")
        assert len(tlines) == 1 + coarse_mesh.n_boundary
        # the angle column is the polar angle of each boundary vertex
        angles = [float(line.split(",")[0]) for line in tlines[1:]]
        x, y = coarse_mesh.vertices[: coarse_mesh.n_boundary].T
        assert angles == np.arctan2(y, x).tolist()

    @pytest.mark.parametrize("case", ["constant", "signed-zero", "broadcast"])
    @pytest.mark.parametrize("repeated", [0.9, 0.2])
    def test_csv_is_repr_of_every_value(self, coarse_mesh, tmp_path, case, repeated):
        # the text of one repr per entry, for mostly repeated and mostly
        # distinct values, with columns whose levels are bitwise equal
        # (written from one repr), columns that mix 0.0 and -0.0 (equal
        # as floats but not bitwise, so one repr per value), and a
        # broadcast field like forward's U = a.x
        grid = TimeGrid(3, 1.0)
        n = len(coarse_mesh.vertices)
        special = [0.0, -0.0, 1.0, -3.0, 2.0**60, 1e16, -1.5e22, 9.999e-5, -3e-300, 5e-324, 0.1]
        rng = np.random.default_rng(3)
        values = np.where(
            rng.random((4, n)) < repeated,
            rng.choice(special, size=(4, n)),
            rng.standard_normal((4, n)),
        )
        if case == "constant":
            values[:, ::3] = values[0, ::3]
            values[:, [1, 4]] = [0.0, -0.0]
        elif case == "signed-zero":
            values[:, ::3] = [[0.0], [-0.0], [0.0], [0.0]]
            values[:, 1::3] = [[-0.0], [-0.0], [0.0], [-0.0]]
        else:
            row = values[0].copy()
            row[[1, 4]] = [0.0, -0.0]
            values = np.broadcast_to(row, (4, n))
        field = SpaceTimeField(coarse_mesh, grid, values)
        trace = boundary_restrict(field)
        digests = [field.to_csv(tmp_path / "field.csv"), trace.to_csv(tmp_path / "trace.csv")]

        def per_value(label, labels, block):
            lines = [label + ",t0,t1,t2,t3"]
            for lab, column in zip(labels, block.T):
                lines.append(lab + "," + ",".join(map(repr, column.tolist())))
            return ("\n".join(lines) + "\n").encode("ascii")

        assert {np.signbit(v) for v in values.ravel() if v == 0.0} == {False, True}
        assert (tmp_path / "field.csv").read_bytes() == per_value(
            "node", [str(i) for i in range(n)], values
        )
        x, y = coarse_mesh.vertices[: coarse_mesh.n_boundary].T
        angles = [repr(v) for v in np.arctan2(y, x).tolist()]
        assert (tmp_path / "trace.csv").read_bytes() == per_value("angle", angles, trace.values)
        assert digests == [
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("field.csv", "trace.csv")
        ]
