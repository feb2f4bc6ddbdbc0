"""Tests for the command-line driver."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracloc import cli, locate_multi, mesh
from fracloc.errors import ConfigError, ReconstructionError, SolverError


def write_config(path, **overrides):
    doc = {"config_version": 1}
    doc.update(overrides)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture
def cheap_one(tmp_path):
    """Coarse single-inclusion config that still reconstructs."""
    return write_config(
        tmp_path / "one.json",
        time_steps=32,
        mesh={"h_far": 0.2},
        inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
        probe={"tol": 1e-3},
        output_dir=str(tmp_path / "out"),
    )


@pytest.fixture
def cheap_multi(tmp_path):
    return write_config(
        tmp_path / "multi.json",
        time_steps=32,
        mesh={"h_far": 0.2},
        inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
        sources={"kind": "full", "n": 6},
        scan={"region": [-0.5, 0.5, -0.5, 0.5], "resolution": 21, "peaks": 1, "k": 3},
        output_dir=str(tmp_path / "out"),
    )


def test_cli_runs_without_mpmath():
    # mpmath is a test dependency only; the CLI must not import it
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = "import sys, fracloc.cli; sys.exit('mpmath' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_cli_starts_no_process_pool():
    # the indicator scan runs in the calling process
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = (
        "import sys, fracloc.cli; "
        "sys.exit(any(m in sys.modules for m in ('multiprocessing', 'concurrent.futures.process')))"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestLoadConfig:
    def test_defaults_filled(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path / "c.json"))
        assert cfg["alpha"] == 0.5
        assert cfg["time_steps"] == 128
        assert cfg["scan"]["resolution"] == 101
        assert cfg["inclusions"] == []

    def test_section_merge_keeps_unset_defaults(self, tmp_path):
        cfg = cli.load_config(
            write_config(tmp_path / "c.json", scan={"resolution": 41})
        )
        assert cfg["scan"]["resolution"] == 41
        assert cfg["scan"]["tau"] == 1e-3

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(write_config(tmp_path / "c.json", banana=3))

    def test_unknown_section_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(write_config(tmp_path / "c.json", scan={"zoom": 2}))

    def test_wrong_version_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(write_config(tmp_path / "c.json", config_version=99))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            cli.load_config("/nonexistent/conf.json")

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            cli.load_config(str(p))


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
SECTIONS = [sorted(v) for v in cli.DEFAULTS.values() if isinstance(v, dict)]
INCLUSION_SPECS = st.dictionaries(
    st.sampled_from(sorted(cli.INCLUSION_DEFAULTS)),
    JSON_VALUES | st.lists(st.floats(), min_size=2, max_size=2),
    max_size=4,
)
# mostly real keys with values of every JSON kind, so every check is reached
CONFIG_DOCS = st.dictionaries(
    st.sampled_from(sorted(cli.DEFAULTS)) | st.text(max_size=4),
    JSON_VALUES
    | st.one_of([st.dictionaries(st.sampled_from(keys), JSON_VALUES, max_size=3) for keys in SECTIONS])
    | st.lists(INCLUSION_SPECS, max_size=2),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(doc=CONFIG_DOCS)
def test_load_config_returns_or_raises_config_error(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "c.json"
    path.write_text(json.dumps(doc))
    try:
        cfg = cli.load_config(str(path))
    except ConfigError:
        return
    assert set(cfg) == set(cli.DEFAULTS)


# small configs, mostly valid with a few out-of-range values mixed in,
# so every command runs to its end on a coarse mesh in well under a second
SMALL_INCLUSIONS = st.fixed_dictionaries(
    {
        "center": st.lists(st.floats(-0.6, 0.6), min_size=2, max_size=2),
        "eps": st.floats(0.05, 0.2),
        "gamma": st.sampled_from([0.5, 3.0, 50.0, 1.0]),
    },
    optional={"aspect": st.sampled_from([1.0, 2.0, 3.0, 0.5])},
)
SMALL_CONFIGS = st.fixed_dictionaries(
    {
        "alpha": st.sampled_from([0.35, 0.5, 0.7, 0.9, 1.0, 1.5]),
        "time_steps": st.integers(0, 16),
        "series_terms": st.integers(1, 5) | st.just(6),
        "mesh": st.fixed_dictionaries(
            {"h_far": st.floats(0.3, 0.6)},
            optional={"h_near": st.none() | st.floats(0.05, 0.6)},
        ),
        "inclusions": st.lists(SMALL_INCLUSIONS, max_size=2),
        "noise": st.fixed_dictionaries({"sigma": st.sampled_from([0.0, 0.01, 0.1, -0.1])}),
        "probe": st.fixed_dictionaries(
            {
                "tol": st.sampled_from([1e-2, 1e-3, 0.0]),
                "distance": st.sampled_from([2.0, 3.0, 1.5, 0.5]),
                "kind": st.sampled_from([None, "exact", "series", "bogus"]),
            }
        ),
        "sources": st.fixed_dictionaries(
            {
                "kind": st.sampled_from(["full", "half", "quarter", "bogus"]),
                "n": st.none() | st.integers(1, 8),
            }
        ),
        "scan": st.fixed_dictionaries(
            {
                "resolution": st.integers(1, 11),
                "k": st.none() | st.integers(0, 8),
                "peaks": st.integers(0, 3),
                "tau": st.sampled_from([1e-3, 0.1, 0.5, 2.0]),
            }
        ),
        "sweep": st.fixed_dictionaries(
            {
                "parameter": st.sampled_from(["eps", "sigma", "aspect", "bogus"]),
                "values": st.lists(
                    st.sampled_from([0.0, 0.01, 0.1, 2.0, -1.0]), min_size=1, max_size=2
                ),
                "algorithm": st.sampled_from(["one", "multi", "bogus"]),
            }
        ),
    }
)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(cli.COMMANDS)), doc=SMALL_CONFIGS)
def test_main_exits_with_a_code(tmp_path_factory, command, doc):
    tmp = tmp_path_factory.mktemp("run")
    cfg = write_config(tmp / "c.json", output_dir=str(tmp / "out"), **doc)
    assert cli.main([command, "--config", cfg]) in (0, 2, 3, 4)


class TestExitCodes:
    def test_missing_config_is_2(self, capsys):
        assert cli.main(["forward", "--config", "/nonexistent/c.json"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_directory_config_is_2(self, tmp_path, capsys):
        assert cli.main(["forward", "--config", str(tmp_path)]) == 2
        assert "cannot be read" in capsys.readouterr().err

    def test_non_utf8_config_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert cli.main(["forward", "--config", str(cfg)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes",
        [{"h_far": 1e-4}, {"h_far": 0.15, "h_near": 1e-5}],
        ids=["tiny-h-far", "tiny-h-near"],
    )
    def test_huge_mesh_is_2(self, tmp_path, monkeypatch, capsys, sizes):
        # the cap must act before any mesh point is placed
        def placed(*args, **kwargs):
            pytest.fail("mesh points placed before the size check")

        monkeypatch.setattr(mesh, "_hex_lattice", placed)
        monkeypatch.setattr(mesh.Inclusion, "boundary_points", placed)
        cfg = write_config(
            tmp_path / "c.json",
            mesh=sizes,
            inclusions=[{"center": [0.2, 0.3], "eps": 0.05, "gamma": 5.0}],
            output_dir=str(tmp_path / "o"),
        )
        assert cli.main(["forward", "--config", cfg]) == 2
        assert f"over {cli.MAX_MESH_VERTICES} vertices" in capsys.readouterr().err

    def test_solver_error_is_3(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, out_dir):
            raise SolverError("synthetic failure")

        monkeypatch.setitem(cli.COMMANDS, "forward", boom)
        cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "o"))
        assert cli.main(["forward", "--config", cfg]) == 3

    def test_reconstruction_error_is_4(self, tmp_path, monkeypatch):
        def boom(cfg, out_dir):
            raise ReconstructionError("no sign change")

        monkeypatch.setitem(cli.COMMANDS, "locate-one", boom)
        cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "o"))
        assert cli.main(["locate-one", "--config", cfg]) == 4

    @pytest.mark.parametrize(
        "overrides",
        [
            {"inclusions": [{"center": [0.2, 0.3], "eps": 0.1, "gama": 50.0}]},
            {"inclusions": [{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0, "gama": 2.0}]},
            {"inclusions": [{"eps": 0.1, "gamma": 50.0}]},
            {"inclusions": [{"center": [0.2, 0.3], "eps": float("nan"), "gamma": 50.0}]},
            {"time_steps": "abc"},
            {"sweep": {"values": ["abc"]}},
            {"background": {"direction": ["x", 0]}},
            {"scan": {"region": [0.5]}},
            {"sources": {"n": "ten"}},
            {"sources": {"n": 2.7}},
            {"scan": {"k": "five"}},
            {"mesh": {"h_near": "fine"}},
            {"scan": {"resolution": 2.5}},
            {"noise": {"seed": -1}},
            {"noise": {"sigma": -0.01}},
            {"output_dir": 5},
            {"time_steps": cli.MAX_COUNTS["time_steps"] + 1},
            {"scan": {"resolution": cli.MAX_COUNTS["scan.resolution"] + 1}},
            {"sources": {"n": cli.MAX_COUNTS["sources.n"] + 1}},
            {"alpha": 1.5},
            {"alpha": 0.0},
            {"output_dir": os.devnull},
            {"output_dir": os.path.join(os.devnull, "o")},
        ],
        ids=[
            "misspelt-gamma",
            "unknown-key",
            "missing-center",
            "nan-eps",
            "text-time-steps",
            "text-sweep-value",
            "text-direction",
            "short-region",
            "text-source-count",
            "fractional-source-count",
            "text-k",
            "text-h-near",
            "fractional-resolution",
            "negative-seed",
            "negative-sigma",
            "number-output-dir",
            "huge-time-steps",
            "huge-resolution",
            "huge-source-count",
            "alpha-above-one",
            "zero-alpha",
            "output-dir-is-file",
            "output-dir-below-file",
        ],
    )
    def test_bad_input_is_2(self, tmp_path, capsys, overrides):
        overrides.setdefault("output_dir", str(tmp_path / "o"))
        cfg = write_config(tmp_path / "c.json", **overrides)
        assert cli.main(["forward", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["one", "multi"])
    def test_negative_sweep_sigma_is_2(self, tmp_path, capsys, algorithm):
        # a swept value bypasses load_config; the noise model rejects it
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=8,
            mesh={"h_far": 0.3},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            sources={"n": 4},
            sweep={"parameter": "sigma", "values": [-0.02, 0.0], "algorithm": algorithm},
            output_dir=str(tmp_path / "o"),
        )
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert "noise level must be nonnegative" in capsys.readouterr().err

    def test_bad_seed_override_is_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "o"))
        assert cli.main(["forward", "--config", cfg, "--seed", "-3"]) == 2

    def test_bad_jobs_is_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "o"))
        assert cli.main(["forward", "--config", cfg, "--jobs", "0"]) == 2

    @pytest.mark.parametrize(
        "command, name",
        [("forward", "mesh.txt"), ("locate-one", "reconstruction.csv"), ("forward", "manifest.json")],
    )
    def test_output_path_is_directory_is_2(self, tmp_path, capsys, cheap_one, command, name):
        (tmp_path / "out" / name).mkdir(parents=True)
        assert cli.main([command, "--config", cheap_one]) == 2
        assert name in capsys.readouterr().err

    def test_probe_distance_checked_before_march(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "solve_block", lambda *args: pytest.fail("marched"))
        cfg = write_config(
            tmp_path / "c.json",
            mesh={"h_far": 0.3},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            probe={"distance": 0.5},
            output_dir=str(tmp_path / "o"),
        )
        assert cli.main(["locate-one", "--config", cfg]) == 2
        assert "segment distance must exceed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [0.0, 1.0, 2.0])
    def test_probe_tol_checked_before_march(self, tmp_path, monkeypatch, capsys, tol):
        monkeypatch.setattr(cli, "solve_block", lambda *args: pytest.fail("marched"))
        cfg = write_config(
            tmp_path / "c.json",
            mesh={"h_far": 0.3},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            probe={"tol": tol},
            output_dir=str(tmp_path / "o"),
        )
        assert cli.main(["locate-one", "--config", cfg]) == 2
        assert "tolerance must lie in (0, 1)" in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(
        run=st.sampled_from(
            ["forward", "locate-one", "oracle-check", "locate-multi", "sweep:one", "sweep:multi"]
        ),
        # draws near the top of each range too, where the caps bind
        time_steps=st.integers(1, 4096) | st.integers(2048, 4096),
        n_sources=st.integers(2, 256),
        h_far=st.floats(0.005, 0.3) | st.floats(0.0045, 0.02),
        eps=st.lists(st.floats(0.01, 0.2), min_size=1, max_size=3),
    )
    def test_march_over_the_cap_is_2_before_any_work(
        self, tmp_path_factory, run, time_steps, n_sources, h_far, eps
    ):
        # the estimate, 8 B x levels x estimated vertices x marched fields,
        # is checked for every sweep value before any mesh or march
        class MeshReached(Exception):
            pass

        def mesh_reached(*args):
            raise MeshReached

        command, algorithm = run.split(":") if ":" in run else (run, "one")
        # u alone; u for both axis directions; u and U for every source
        fields = 1 if command == "forward" else 2 * n_sources if "multi" in run else 2
        sizes = []
        for e in eps[-1:] if command != "sweep" else eps:
            incs = mesh.InclusionSet(items=(mesh.Inclusion((0.2, 0.3), e, 5.0),))
            vertices = mesh.vertex_estimate(incs, h_far, min(e / 4.0, h_far))
            sizes.append((vertices, 8.0 * (time_steps + 1) * vertices * fields))
        tmp = tmp_path_factory.mktemp("cap")
        cfg = write_config(
            tmp / "c.json",
            time_steps=time_steps,
            mesh={"h_far": h_far},
            inclusions=[{"center": [0.2, 0.3], "eps": eps[-1], "gamma": 5.0}],
            sources={"n": n_sources},
            sweep={"parameter": "eps", "values": eps, "algorithm": algorithm},
            output_dir=str(tmp / "o"),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "build_mesh", mesh_reached)
            patch.setattr(cli, "solve_block", lambda *args: pytest.fail("marched"))
            patch.setattr(cli, "solve_subdiffusion", lambda *args: pytest.fail("marched"))
            patch.setattr(locate_multi, "solve_pair", lambda *args: pytest.fail("marched"))
            if all(v <= cli.MAX_MESH_VERTICES and b <= cli.MAX_MARCH_BYTES for v, b in sizes):
                with pytest.raises(MeshReached):
                    cli.main([command, "--config", cfg])
            else:
                assert cli.main([command, "--config", cfg]) == 2

    def test_sweep_checks_every_value_before_the_first(self, tmp_path, monkeypatch, capsys):
        # eps 0.05 marches about 381 MiB of levels, eps 0.3 about 651 MiB:
        # with h_near = h_far, a larger inclusion zone needs more vertices
        monkeypatch.setattr(cli, "build_mesh", lambda *args: pytest.fail("meshed"))
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=2600,
            mesh={"h_far": 0.02},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.05, "gamma": 5.0}],
            sweep={"parameter": "eps", "values": [0.05, 0.3], "algorithm": "one"},
            output_dir=str(tmp_path / "o"),
        )
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert "about 651 MiB" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [{"time_steps": 4096}, {"sources": {"n": 256}}])
    def test_example43_march_over_the_cap_is_2(self, tmp_path, monkeypatch, capsys, override):
        monkeypatch.setattr(cli, "build_mesh", lambda *args: pytest.fail("meshed"))
        root = Path(__file__).resolve().parents[1]
        doc = json.loads((root / "configs" / "example43.json").read_text())
        doc.update(override, output_dir=str(tmp_path / "o"))
        cfg = write_config(tmp_path / "c.json", **doc)
        assert cli.main(["locate-multi", "--config", cfg]) == 2
        assert f"over {cli.MAX_MARCH_BYTES // 2**20} MiB" in capsys.readouterr().err


class TestForwardCommand:
    def test_background_only_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=16,
            mesh={"h_far": 0.25},
            output_dir=str(out),
        )
        assert cli.main(["forward", "--config", cfg]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "mesh.txt",
            "background_trace.csv",
            "background_field.csv",
            "manifest.json",
        }
        first = (out / "background_trace.csv").read_text().splitlines()[0]
        assert first.startswith("angle,t0")

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=16,
            mesh={"h_far": 0.25},
            output_dir=str(out),
        )
        cli.main(["forward", "--config", cfg])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "forward"
        assert manifest["config"]["time_steps"] == 16
        assert set(manifest["outputs"]) == {
            "mesh.txt",
            "background_trace.csv",
            "background_field.csv",
        }
        for digest in manifest["outputs"].values():
            assert len(digest) == 64

    def test_does_not_fit_coefficients(self, tmp_path, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("forward must not fit kernel coefficients")

        monkeypatch.setattr(cli, "fit_green_coeffs", no_fit)
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=8,
            mesh={"h_far": 0.3},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            output_dir=str(tmp_path / "out"),
        )
        assert cli.main(["forward", "--config", cfg]) == 0

    def test_background_is_exact_for_any_gamma0(self, tmp_path):
        # U = a.x solves the background problem whatever its conductivity
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            gamma0=2.0,
            time_steps=8,
            mesh={"h_far": 0.3},
            background={"direction": [0.6, -0.8]},
            output_dir=str(out),
        )
        assert cli.main(["forward", "--config", cfg]) == 0
        trace = np.loadtxt(out / "background_trace.csv", delimiter=",", skiprows=1)
        ax = 0.6 * np.cos(trace[:, 0]) - 0.8 * np.sin(trace[:, 0])
        assert np.max(np.abs(trace[:, 1:] - ax[:, None])) <= 1e-9

    def test_background_files_are_exact_ax(self, tmp_path):
        # every level of U is the initial datum a.x of the march at the node,
        # written as repr of that float; BLAS may round the block product
        # differently from a one-node product in the last bit
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=8,
            mesh={"h_far": 0.3},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            background={"direction": [0.6, -0.8]},
            output_dir=str(out),
        )
        assert cli.main(["forward", "--config", cfg]) == 0
        _, mesh, _ = cli._build_setting(cli.load_config(cfg))
        ax = mesh.vertices @ np.array([0.6, -0.8])
        np.testing.assert_allclose(
            ax, 0.6 * mesh.vertices[:, 0] - 0.8 * mesh.vertices[:, 1], rtol=0.0, atol=1e-15
        )
        rows = [ln.split(",") for ln in (out / "background_field.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(len(mesh.vertices)))
        for row, v in zip(rows, ax.tolist()):
            assert row[1:] == [repr(v)] * 9
        rows = [ln.split(",") for ln in (out / "background_trace.csv").read_text().splitlines()[1:]]
        assert len(rows) == len(mesh.boundary_nodes)
        for row, v in zip(rows, ax[mesh.boundary_nodes].tolist()):
            assert row[1:] == [repr(v)] * 9

    def test_inclusion_adds_solution_trace(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=16,
            mesh={"h_far": 0.25},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            output_dir=str(out),
        )
        assert cli.main(["forward", "--config", cfg]) == 0
        assert (out / "solution_trace.csv").exists()


class TestLocateOneCommand:
    def test_reconstruction_and_rerun_bytes(self, tmp_path, cheap_one):
        assert cli.main(["locate-one", "--config", cheap_one]) == 0
        out = tmp_path / "out"
        rec = (out / "reconstruction.csv").read_text()
        err = float(rec.splitlines()[1].split(",")[-1])
        assert err <= 0.1
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main(["locate-one", "--config", cheap_one]) == 0
        for p in out.iterdir():
            assert p.read_bytes() == snapshot[p.name]

    def test_seed_override_recorded(self, tmp_path, cheap_one):
        cli.main(["locate-one", "--config", cheap_one, "--seed", "7"])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["noise"]["seed"] == 7

    def test_no_inclusions_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json", time_steps=16, mesh={"h_far": 0.25},
            output_dir=str(tmp_path / "o"),
        )
        assert cli.main(["locate-one", "--config", cfg]) == 2

    def test_one_factorization_and_one_kernel_call_per_probe(self, cheap_one, monkeypatch):
        from fracloc import forward, greenfn, locate_one

        counts = {"splu": 0, "kernel": 0, "probe": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(forward, "splu", counting("splu", forward.splu))
        # every kernel of the pipeline goes through the separated evaluator
        monkeypatch.setattr(greenfn, "_separated", counting("kernel", greenfn._separated))
        monkeypatch.setattr(locate_one, "probe_value", counting("probe", locate_one.probe_value))
        assert cli.main(["locate-one", "--config", cheap_one]) == 0
        # both directions march as one block; U = a.x is not marched
        assert counts["splu"] == 1
        # two segments at tol 1e-3: 2 endpoints and 10 halvings each
        assert counts["probe"] == 24
        assert counts["kernel"] == counts["probe"]

    # reconstruction.csv rows of the bundled examples, frozen at full precision
    FROZEN = {
        "example41": [
            0.19952392578125, 0.29937744140625, 0.19952392578125, 2.0,
            2.0, 0.29937744140625, 0.0, 0.00078372563082394916,
        ],
        "example42": [
            0.19964599609375, 0.30096435546875, 0.19964599609375, 2.0,
            2.0, 0.30096435546875, 0.0, 0.0010272780712875752,
        ],
    }

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_bundled_example_is_frozen(self, tmp_path, name):
        config = Path(__file__).parents[1] / "configs" / f"{name}.json"
        out = tmp_path / "out"
        assert cli.main(["locate-one", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "reconstruction.csv").read_text().splitlines()
        assert rows[0] == "Px,Py,P1x,P1y,P2x,P2y,rho0,err"
        assert [float(v) for v in rows[1].split(",")] == self.FROZEN[name]

    def test_noisy_example41_is_frozen(self, tmp_path):
        # freezes the noise stream: child j of SeedSequence(seed) per direction
        doc = json.loads((Path(__file__).parents[1] / "configs" / "example41.json").read_text())
        doc["noise"] = {"sigma": 0.01, "seed": 3}
        doc["output_dir"] = str(tmp_path / "out")
        cfg = write_config(tmp_path / "c.json", **doc)
        assert cli.main(["locate-one", "--config", cfg]) == 0
        row = (tmp_path / "out" / "reconstruction.csv").read_text().splitlines()[1]
        assert [float(v) for v in row.split(",")] == [
            0.31561279296875, 0.19097900390625, 0.31561279296875, 2.0,
            2.0, 0.19097900390625, 0.0, 0.158908450018583,
        ]


class TestLocateMultiCommand:
    def test_outputs_and_peak(self, tmp_path, cheap_multi):
        assert cli.main(["locate-multi", "--config", cheap_multi]) == 0
        out = tmp_path / "out"
        names = {p.name for p in out.iterdir()}
        assert {"data_matrix.csv", "singular_values.csv", "w_grid.csv", "peaks.csv"} <= names
        line = (out / "peaks.csv").read_text().splitlines()[1]
        x, y, err = (float(v) for v in line.split(","))
        assert err <= 0.05
        svals = np.loadtxt(out / "singular_values.csv", delimiter=",", skiprows=1)
        assert np.all(np.diff(svals[:, 1]) <= 0.0)
        wlines = (out / "w_grid.csv").read_text().splitlines()
        assert wlines[0] == "x,y,W"
        assert len(wlines) == 1 + 21 * 21

    @pytest.mark.parametrize(
        "inclusions",
        [
            # tau alone truncates at k = 4 here and the second center is
            # missed by 0.12; the k floor of 2 * peaks + 1 keeps both
            [
                {"center": [-0.0827, -0.1857], "eps": 0.0669, "gamma": 50.0},
                {"center": [-0.3395, -0.3473], "eps": 0.0669, "gamma": 50.0},
            ],
            [
                {"center": [0.3, 0.2], "eps": 0.06, "gamma": 50.0},
                {"center": [-0.35, 0.1], "eps": 0.06, "gamma": 50.0},
                {"center": [0.0, -0.4], "eps": 0.06, "gamma": 50.0},
            ],
        ],
        ids=["two-close", "three"],
    )
    def test_k_floor_locates_every_center(self, tmp_path, coeffs_half, inclusions):
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=16,
            inclusions=inclusions,
            sources={"kind": "full", "n": 10},
            scan={"resolution": 41, "peaks": len(inclusions), "min_separation": 0.1},
            output_dir=str(tmp_path / "out"),
        )
        assert cli.main(["locate-multi", "--config", cfg]) == 0
        peaks = np.loadtxt(tmp_path / "out" / "peaks.csv", delimiter=",", skiprows=1)
        assert np.max(peaks[:, 2]) <= 0.05
        centers = np.array([inc["center"] for inc in inclusions])
        dist = np.linalg.norm(centers[:, None, :] - peaks[None, :, :2], axis=2)
        assert np.max(np.min(dist, axis=1)) <= 0.05

    def test_noisy_run_is_frozen(self, tmp_path):
        # freezes the noise stream: child j of SeedSequence(seed) per source
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=32,
            mesh={"h_far": 0.2},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            sources={"kind": "full", "n": 6},
            scan={"region": [-0.5, 0.5, -0.5, 0.5], "resolution": 21, "peaks": 1, "k": 3},
            noise={"sigma": 0.01, "seed": 3},
            output_dir=str(out),
        )
        assert cli.main(["locate-multi", "--config", cfg]) == 0
        B = np.loadtxt(out / "data_matrix.csv", delimiter=",")
        np.testing.assert_allclose(
            np.diag(B),
            [
                -1.6187609055216186e-05, -1.377345839199206e-05, -3.0511447097136386e-05,
                -7.5836472023355e-05, -6.972769455464958e-05, -2.8700220717746895e-05,
            ],
            rtol=1e-12,
            atol=0.0,
        )
        peak = (out / "peaks.csv").read_text().splitlines()[1]
        assert [float(v) for v in peak.split(",")][:2] == [0.20000000000000007, 0.30000000000000004]

    def test_close_sources_run_and_nonfinite_kernel_is_3(self, tmp_path, monkeypatch, capsys):
        # sources at radius 1.2 come within 0.7 of the scan region
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=16,
            mesh={"h_far": 0.2},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            sources={"kind": "full", "n": 6, "radius": 1.2},
            scan={"region": [-0.5, 0.5, -0.5, 0.5], "resolution": 11, "peaks": 1, "k": 3},
            output_dir=str(out),
        )
        assert cli.main(["locate-multi", "--config", cfg]) == 0
        w = np.loadtxt(out / "w_grid.csv", delimiter=",", skiprows=1)
        assert w.shape == (121, 3) and np.all(np.isfinite(w))
        # a factor that is not finite stops the scan as a quadrature error
        monkeypatch.setattr(
            locate_multi,
            "_separated",
            lambda rho2, times: np.full(np.shape(rho2) + times.rate.shape, np.inf),
        )
        assert cli.main(["locate-multi", "--config", cfg]) == 3
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scan",
        [
            {"peaks": 0},
            {"region": [-0.9, 0.9, -0.9, 0.9]},
            {"region": [0.3, 0.3, -0.2, 0.2]},
            {"resolution": 1},
            {"resolution": 2},
            {"k": 7},
            {"k": -1},
            {"tau": 0.0},
            {"tau": 1.5},
        ],
        ids=[
            "no-peaks", "region-outside", "region-degenerate", "resolution-1",
            "resolution-2", "k-above-n", "k-negative", "tau-0", "tau-above-1",
        ],
    )
    def test_scan_ranges_checked_before_march(self, tmp_path, monkeypatch, scan):
        monkeypatch.setattr(locate_multi, "solve_pair", lambda *args: pytest.fail("marched"))
        monkeypatch.setattr(cli, "solve_block", lambda *args: pytest.fail("marched"))
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=16,
            mesh={"h_far": 0.3},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            sources={"kind": "full", "n": 6},
            scan=scan,
            output_dir=str(tmp_path / "o"),
        )
        assert cli.main(["locate-multi", "--config", cfg]) == 2

    def test_jobs_flag_matches_serial(self, tmp_path, cheap_multi):
        cli.main(["locate-multi", "--config", cheap_multi, "--out", str(tmp_path / "a")])
        cli.main(
            ["locate-multi", "--config", cheap_multi, "--out", str(tmp_path / "b"),
             "--jobs", "2"]
        )
        a = (tmp_path / "a" / "w_grid.csv").read_bytes()
        b = (tmp_path / "b" / "w_grid.csv").read_bytes()
        assert a == b


class TestOracleCheckCommand:
    def test_emits_two_rows(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=16,
            mesh={"h_far": 0.25},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            output_dir=str(out),
        )
        assert cli.main(["oracle-check", "--config", cfg]) == 0
        lines = (out / "equivalence.csv").read_text().splitlines()
        assert lines[0] == "background,boundary,interior,rel_diff"
        assert len(lines) == 3
        for ln in lines[1:]:
            parts = ln.split(",")
            assert parts[0] in ("U1", "U2")
            assert all(np.isfinite(float(v)) for v in parts[1:])

    def test_default_probe_is_exact_at_any_alpha(self, tmp_path, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the exact probe needs no fitted coefficients")

        monkeypatch.setattr(cli, "fit_green_coeffs", no_fit)
        cfg = write_config(
            tmp_path / "c.json",
            alpha=0.7,
            time_steps=8,
            mesh={"h_far": 0.3},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            output_dir=str(tmp_path / "out"),
        )
        assert cli.main(["oracle-check", "--config", cfg]) == 0


    def test_example41_is_frozen(self, tmp_path):
        # the interior route reads u alone and is frozen exactly; the
        # allclose bounds its drift from the values of the march before
        # the symmetric minimum-degree factorization.  The boundary route
        # also reads U = a.x, and was frozen from a marched U that
        # carries rounding drift
        config = Path(__file__).parents[1] / "configs" / "example41.json"
        out = tmp_path / "out"
        assert cli.main(["oracle-check", "--config", str(config), "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in (out / "equivalence.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["U1", "U2"]
        boundary = [float(r[1]) for r in rows]
        interior = [float(r[2]) for r in rows]
        assert interior == [-0.00051374323854431136, -0.00038004950456734725]
        np.testing.assert_allclose(
            interior, [-0.00051374323854427211, -0.00038004950456728523], rtol=1e-12, atol=0.0
        )
        np.testing.assert_allclose(
            boundary, [-0.00047545202101967175, -0.00035128882373352811], rtol=1e-11, atol=0.0
        )


@pytest.mark.parametrize(
    "command, config, factorizations",
    [
        # u alone; U = a.x is not marched
        ("forward", "cheap_one", 1),
        # u for both axis directions as one block; U = a.x is not marched
        ("locate-one", "cheap_one", 1),
        ("oracle-check", "cheap_one", 1),
        # the source block against the perturbed and the background conductivity
        ("locate-multi", "cheap_multi", 2),
    ],
)
def test_one_factorization_per_conductivity(request, monkeypatch, command, config, factorizations):
    from fracloc import forward

    splu = forward.splu
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(forward, "splu", counting)
    assert cli.main([command, "--config", request.getfixturevalue(config)]) == 0
    assert len(calls) == factorizations


CHEAP_INCLUSION = {"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("forward", {}),
        ("forward", {"inclusions": [CHEAP_INCLUSION]}),
        ("locate-one", {"inclusions": [CHEAP_INCLUSION]}),
        (
            "locate-multi",
            {
                "inclusions": [CHEAP_INCLUSION],
                "sources": {"n": 6},
                "scan": {"region": [-0.5, 0.5, -0.5, 0.5], "resolution": 11, "k": 3},
            },
        ),
        ("oracle-check", {"inclusions": [CHEAP_INCLUSION]}),
        (
            "sweep",
            {
                "inclusions": [CHEAP_INCLUSION],
                "sweep": {"parameter": "sigma", "values": [0.0, 0.01], "algorithm": "one"},
            },
        ),
    ],
    ids=["forward-background", "forward", "locate-one", "locate-multi", "oracle-check", "sweep"],
)
def test_manifest_digests_are_of_the_bytes_written(tmp_path, monkeypatch, command, overrides):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "c.json",
        time_steps=16,
        mesh={"h_far": 0.25},
        probe={"tol": 1e-3},
        output_dir=str(out),
        **overrides,
    )
    assert cli.main([command, "--config", cfg]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert outputs
    assert sorted(outputs) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    for name, digest in outputs.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    first = {p.name: p.read_bytes() for p in out.iterdir()}

    # a rerun reads no output back: each digest comes from the bytes as written
    def read_back(self):
        pytest.fail(f"{self} read back")

    monkeypatch.setattr(Path, "read_bytes", read_back)
    assert cli.main([command, "--config", cfg]) == 0
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


class TestSweepCommand:
    def test_sigma_sweep_rows(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=32,
            mesh={"h_far": 0.2},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            probe={"tol": 1e-3},
            sweep={"parameter": "sigma", "values": [0.0, 0.01], "algorithm": "one"},
            output_dir=str(out),
        )
        assert cli.main(["sweep", "--config", cfg]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,err,rho0"
        assert len(lines) == 3
        errs = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert all(np.isfinite(e) for e in errs)

    @pytest.mark.parametrize("failing", [[0.01], [0.0, 0.01, 0.02]])
    def test_failed_value_keeps_sweep(self, tmp_path, monkeypatch, capsys, failing):
        # stand-in setting and locator: the value 0.01 has no reconstruction
        incs = cli.InclusionSet(items=(cli.Inclusion((0.2, 0.3), 0.1, 50.0),))
        monkeypatch.setattr(cli, "_build_setting", lambda cfg: (incs, None, None))
        monkeypatch.setattr(cli, "_coeffs", lambda cfg: None)

        class Rec:
            P = np.array([0.2, 0.3])
            rho0 = 0.5

        def locate(cfg, *setting):
            if cfg["noise"]["sigma"] in failing:
                raise ReconstructionError("no sign change")
            return Rec()

        monkeypatch.setattr(cli, "_locate_one_run", locate)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "c.json",
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            sweep={"parameter": "sigma", "values": [0.0, 0.01, 0.02], "algorithm": "one"},
            output_dir=str(out),
        )
        rc = cli.main(["sweep", "--config", cfg])
        err = capsys.readouterr().err
        if len(failing) == 3:
            assert rc == 4
            assert not (out / "sweep.csv").exists()
            return
        assert rc == 0
        assert "sweep value 0.01 failed: no sign change" in err
        rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
        assert rows[:, 0].tolist() == [0.0, 0.01, 0.02]
        assert np.isnan(rows[1, 1:]).all()
        assert rows[[0, 2], 1].tolist() == [0.0, 0.0]

    def test_empty_values_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
            sweep={"parameter": "sigma", "values": [], "algorithm": "one"},
            output_dir=str(tmp_path / "o"),
        )
        assert cli.main(["sweep", "--config", cfg]) == 2


class TestShippedConfigs:
    def test_all_examples_parse(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        found = sorted(root.glob("example4*.json"))
        assert len(found) == 5
        for path in found:
            cfg = cli.load_config(str(path))
            assert cfg["alpha"] == 0.5
            assert cfg["inclusions"]
