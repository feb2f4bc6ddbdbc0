"""Tests for the command-line driver."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracloc import cli, forward, greenfn, locate_multi, mesh
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


def main_without_warnings(argv):
    """cli.main(argv), failing on a warning from any thread.

    The warnings are recorded, not raised: a worker thread that raised
    one as an error would drop it (the kernel-row worker stops at its
    first error), and the run would pass unseen.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert [f"{w.filename}:{w.lineno}: {w.message}" for w in caught] == []
    return code


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


# scipy.interpolate and what it pulls in; only oracle-check's spline needs them
SPLINE_MODULES = ("scipy.interpolate", "scipy.optimize", "scipy.fft")


def loaded_after_each(*runs):
    """Run cli.main on each (command, config) in order in one fresh
    interpreter; return (exit code, SPLINE_MODULES loaded) after the
    import and after each run."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = (
        "import json, sys\n"
        "from fracloc import cli\n"
        f"guarded = {SPLINE_MODULES!r}\n"
        "def loaded():\n"
        "    return [m for m in guarded if m in sys.modules]\n"
        "seen = [[None, loaded()]]\n"
        "for command, cfg in json.loads(sys.argv[1]):\n"
        "    seen.append([cli.main([command, '--config', cfg]), loaded()])\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(step) for step in json.loads(proc.stdout.splitlines()[-1])]


def test_cli_commands_load_no_spline_modules(tmp_path):
    # the ellipse exercises the arc-length equidistribution in mesh
    common = dict(
        time_steps=16,
        mesh={"h_far": 0.25},
        inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0, "aspect": 2.0}],
        probe={"tol": 1e-3},
        sources={"n": 6},
        scan={"region": [-0.5, 0.5, -0.5, 0.5], "resolution": 11, "k": 3},
    )
    runs = [
        (command, write_config(tmp_path / f"{command}.json", **common, **extra,
                               output_dir=str(tmp_path / command)))
        for command, extra in [
            ("forward", {}),
            ("locate-one", {}),
            ("locate-multi", {}),
            ("sweep", {"sweep": {"parameter": "sigma", "values": [0, 0.01], "algorithm": "multi"}}),
        ]
    ]
    assert loaded_after_each(*runs) == [(None, [])] + [(0, [])] * len(runs)


def test_oracle_check_imports_its_spline_on_first_use(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        time_steps=8,
        mesh={"h_far": 0.3},
        inclusions=[{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
        output_dir=str(tmp_path / "out"),
    )
    (_, before), (code, after) = loaded_after_each(("oracle-check", cfg))
    assert before == []
    assert code == 0
    assert "scipy.interpolate" in after


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


def below(bound, inclusive=True):
    return st.floats(-10.0, bound, exclude_max=not inclusive)


def above(bound, inclusive=True):
    return st.floats(bound, 10.0, exclude_min=not inclusive)


def outside_disk_or_degenerate(region):
    xmin, xmax, ymin, ymax = region
    corner = max(abs(xmin), abs(xmax)) ** 2 + max(abs(ymin), abs(ymax)) ** 2
    return not (xmin < xmax and ymin < ymax and corner < 1.0)


RUNS = ["forward", "locate-one", "oracle-check", "locate-multi", "sweep:one", "sweep:multi"]
LOCATORS = RUNS[1:]
ONE = ["locate-one", "sweep:one"]
MULTI = ["locate-multi", "sweep:multi"]
# a run every command completes, and each checked key with the runs that
# read it and overrides that put it out of range
PLAN_BASE = {
    "time_steps": 8,
    "mesh": {"h_far": 0.3},
    "inclusions": [{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0}],
    "sources": {"n": 6},
    "scan": {"region": [-0.5, 0.5, -0.5, 0.5], "resolution": 11, "k": 3},
}
OUT_OF_RANGE = {
    "t_final": (RUNS, st.builds(lambda v: {"t_final": v}, below(0.0))),
    "time_steps": (RUNS, st.builds(lambda v: {"time_steps": v}, st.integers(-50, 0))),
    "series_terms": (
        RUNS,
        st.builds(
            lambda v: {"series_terms": v},
            st.integers(-5, 0) | st.integers(greenfn.MAX_SERIES_TERMS + 1, 50),
        ),
    ),
    "alpha": (RUNS, st.builds(lambda v: {"alpha": v}, below(0.0) | above(1.0, inclusive=False))),
    "gamma0": (RUNS, st.builds(lambda v: {"gamma0": v}, below(0.0) | st.just(50.0))),
    "mesh.h_far": (RUNS, st.builds(lambda v: {"mesh": {"h_far": v}}, below(0.0))),
    # h_near must be positive, at most h_far and at most eps / 4
    "mesh.h_near": (
        RUNS,
        st.builds(lambda v: {"mesh": {"h_near": v}}, below(0.0) | st.floats(0.026, 0.3)),
    ),
    "inclusions": (
        RUNS,
        st.builds(
            lambda key, v: {"inclusions": [{"center": [0.2, 0.3], "eps": 0.1, "gamma": 50.0, key: v}]},
            st.sampled_from(["eps", "gamma", "aspect"]),
            below(0.0),
        )
        | st.just({"inclusions": [{"center": [0.9, 0.0], "eps": 0.1, "gamma": 50.0}]}),
    ),
    "no inclusions": (LOCATORS, st.just({"inclusions": []})),
    "probe.tol": (ONE, st.builds(lambda v: {"probe": {"tol": v}}, below(0.0) | above(1.0))),
    "probe.distance": (
        ONE + ["oracle-check"],
        st.builds(lambda v: {"probe": {"distance": v}}, below(1.0)),
    ),
    # the exact probe's table needs (distance - 1) / sqrt(gamma0 T^alpha) >= 0.4
    "probe.distance, exact probe": (
        ["oracle-check"],
        st.builds(
            lambda v, kind: {"probe": {"distance": v, "kind": kind}},
            st.floats(1.0, 1.4, exclude_min=True, exclude_max=True),
            st.sampled_from([None, "exact"]),
        ),
    ),
    "probe.kind": (
        ["oracle-check"],
        st.builds(lambda v: {"probe": {"kind": v}}, st.text(max_size=6).filter(
            lambda v: v not in ("exact", "series")
        )),
    ),
    "sources": (
        MULTI,
        st.builds(lambda v: {"sources": {"n": v}}, st.integers(-5, 1))
        | st.builds(lambda v: {"sources": {"radius": v}}, below(1.0))
        | st.just({"sources": {"kind": "bogus"}}),
    ),
    "scan.region": (
        MULTI,
        st.builds(
            lambda v: {"scan": {"region": v}},
            st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4).filter(outside_disk_or_degenerate),
        ),
    ),
    "scan.resolution": (MULTI, st.builds(lambda v: {"scan": {"resolution": v}}, st.integers(-5, 2))),
    "scan.peaks": (MULTI, st.builds(lambda v: {"scan": {"peaks": v}}, st.integers(-5, 0))),
    # 6 sources: k from 1 to 5
    "scan.k": (
        MULTI,
        st.builds(lambda v: {"scan": {"k": v}}, st.integers(-20, 0) | st.integers(6, 100)),
    ),
    "scan.tau": (
        MULTI,
        st.builds(lambda v: {"scan": {"k": None, "tau": v}}, below(0.0) | above(1.0)),
    ),
    "scan.min_separation": (
        MULTI,
        st.builds(lambda v: {"scan": {"min_separation": v}}, below(0.0, inclusive=False)),
    ),
    "sweep.values": (
        ["sweep:one", "sweep:multi"],
        st.builds(
            lambda parameter, v: {"sweep": {"parameter": parameter, "values": [0.1, v]}},
            st.sampled_from(["sigma", "eps"]),
            below(0.0, inclusive=False),
        )
        | st.builds(
            lambda v: {"sweep": {"parameter": "aspect", "values": [2.0, v]}},
            below(1.0, inclusive=False),
        ),
    ),
}


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
        # the plan, built before the command runs, needs an inclusion to locate
        cfg = write_config(
            tmp_path / "c.json", inclusions=[CHEAP_INCLUSION], output_dir=str(tmp_path / "o")
        )
        assert cli.main(["locate-one", "--config", cfg]) == 4

    @pytest.mark.parametrize("command", ["locate-one", "oracle-check"])
    @pytest.mark.parametrize("override", [{"t_final": 1e300}, {"gamma0": 1e300}], ids=["t", "gamma0"])
    def test_measurement_not_finite_is_3(self, tmp_path, capsys, command, override):
        # the probe or the product overflows in the boundary measurement
        doc = json.loads((Path(__file__).parents[1] / "configs" / "example41.json").read_text())
        doc.update(override, output_dir=str(tmp_path / "out"))
        doc["probe"]["kind"] = "series"
        cfg = write_config(tmp_path / "c.json", **doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--config", cfg]) == 3
        err = "fracloc: solver error: the boundary measurement is not finite\n"
        assert capsys.readouterr().err == err

    def test_data_matrix_not_finite_is_3(self, tmp_path, capsys):
        doc = json.loads((Path(__file__).parents[1] / "configs" / "example43.json").read_text())
        doc.update(t_final=1e300, time_steps=16, output_dir=str(tmp_path / "out"))
        cfg = write_config(tmp_path / "c.json", **doc)
        assert main_without_warnings(["locate-multi", "--config", cfg]) == 3
        assert capsys.readouterr().err == "fracloc: solver error: the boundary measurement is not finite\n"

    @pytest.mark.parametrize(
        "example, command, override, kind, message",
        [
            ("example41", "locate-one", {"gamma0": 1e-300}, None, "the boundary measurement is not finite"),
            ("example41", "oracle-check", {"gamma0": 1e-300}, "exact", "the boundary measurement is not finite"),
            ("example41", "oracle-check", {"gamma0": 1e-300}, "series", "the boundary measurement is not finite"),
            ("example43", "locate-multi", {"gamma0": 1e-300}, None, "non-finite solution at time step 1"),
            ("example43", "locate-multi", {"gamma0": 1e300}, None, "non-finite solution at time step 1"),
        ],
        ids=["locate-one", "oracle-exact", "oracle-series", "multi-tiny-gamma0", "multi-huge-gamma0"],
    )
    def test_kernel_overflow_is_3_with_one_line(self, tmp_path, capsys, example, command, override, kind, message):
        # the kernel overflows in the probe, the time half, the flux or the
        # scan's kernel rows, on the calling thread or a worker: no warning
        # (example43 at t_final 1e300 is test_data_matrix_not_finite_is_3)
        doc = json.loads((Path(__file__).parents[1] / "configs" / f"{example}.json").read_text())
        doc.update(override, output_dir=str(tmp_path / "out"))
        if example == "example43":
            doc["time_steps"] = 16
        if kind is not None:
            doc["probe"]["kind"] = kind
        cfg = write_config(tmp_path / "c.json", **doc)
        assert main_without_warnings([command, "--config", cfg]) == 3
        assert capsys.readouterr().err == f"fracloc: solver error: {message}\n"

    @pytest.mark.parametrize(
        "example, command, override, code, message",
        [
            (
                "example41", "locate-one", {"probe": {"distance": 1e200}}, 4,
                "reconstruction failed: probe values are 0 at both ends of bracket 0; the data carry no signal",
            ),
            (
                "example43", "locate-multi", {"sources": {"radius": 1e200}}, 4,
                "reconstruction failed: the data matrix is 0; the data carry no signal",
            ),
            ("example41", "locate-one", {"eps": 1e-160}, 3, "solver error: degenerate (zero-area) triangle produced"),
            ("example41", "oracle-check", {"eps": 1e-160}, 3, "solver error: degenerate (zero-area) triangle produced"),
            (
                "example41", "forward", {"noise": {"sigma": 1e308, "seed": 1}}, 2,
                "config error: noise level must be at most 1, got 1e+308",
            ),
            (
                "example41", "locate-one", {"aspect": 1e300}, 2,
                "config error: inclusion 0 too close to the boundary (clearance -5e+148)",
            ),
        ],
        ids=["probe-distance", "source-radius", "tiny-eps-one", "tiny-eps-oracle", "huge-noise", "huge-aspect"],
    )
    def test_extreme_value_is_one_line(self, tmp_path, capsys, example, command, override, code, message):
        # a norm, the mesh's scaled distance or the noise overflows on the
        # calling thread: no warning, and no file written holds inf or nan
        doc = json.loads((Path(__file__).parents[1] / "configs" / f"{example}.json").read_text())
        doc.update(output_dir=str(tmp_path / "out"))
        if example == "example43":
            doc["time_steps"] = 16
        # a section's keys update that section; any other key is the inclusion's
        for key, value in override.items():
            if isinstance(value, dict):
                doc[key].update(value)
            else:
                doc["inclusions"][0][key] = value
        cfg = write_config(tmp_path / "c.json", **doc)
        assert main_without_warnings([command, "--config", cfg]) == code
        assert capsys.readouterr().err == f"fracloc: {message}\n"
        written = sorted((tmp_path / "out").glob("*"))
        for path in written:
            text = path.read_text(encoding="utf-8").lower()
            assert "inf" not in text and "nan" not in text, path.name
        if code == 2:
            # a value out of range is refused before any output
            assert written == []

    @pytest.mark.parametrize(
        "key",
        ["config_version", "time_steps", "series_terms", "noise.seed", "sources.n", "scan.resolution", "scan.k", "scan.peaks"],
    )
    def test_fractional_integer_key_is_2(self, tmp_path, capsys, key):
        # the integer keys are those with an int default and the nullable "integer" ones
        *section, name = key.split(".")
        doc = {name: 2.5} if not section else {section[0]: {name: 2.5}}
        cfg = write_config(tmp_path / "c.json", **doc, output_dir=str(tmp_path / "o"))
        assert cli.main(["forward", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fracloc: config error: ") and key in err

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
            {"scan": {"min_separation": -0.1}},
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
            "negative-min-separation",
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

    @pytest.mark.parametrize(
        "command, where",
        [(run, "config") for run in ("forward", "locate-one", "locate-multi", "sweep:one", "sweep:multi")]
        + [("sweep:one", "sweep"), ("sweep:multi", "sweep")],
    )
    def test_noise_above_one_is_2_before_any_mesh(self, tmp_path, monkeypatch, capsys, command, where):
        # every command that reads noise, from the config or as a swept value
        monkeypatch.setattr(cli, "build_mesh", lambda *args: pytest.fail("meshed"))
        command, algorithm = command.split(":") if ":" in command else (command, "one")
        values = [0.0, 1e308] if where == "sweep" else [0.0]
        cfg = write_config(
            tmp_path / "c.json",
            noise={"sigma": 1e308 if where == "config" else 0.0, "seed": 1},
            inclusions=[CHEAP_INCLUSION],
            sweep={"parameter": "sigma", "values": values, "algorithm": algorithm},
            output_dir=str(tmp_path / "o"),
        )
        assert cli.main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == "fracloc: config error: noise level must be at most 1, got 1e+308\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["forward", "locate-one", "locate-multi", "sweep"])
    def test_noise_of_one_is_accepted(self, tmp_path, command):
        cfg = cli.load_config(
            write_config(
                tmp_path / "c.json",
                noise={"sigma": 1.0, "seed": 1},
                inclusions=[CHEAP_INCLUSION],
                sweep={"parameter": "sigma", "values": [0.0, 1.0]},
            )
        )
        plans = cli.plan_run(command, cfg)
        sigmas = [plan.sigma for _, plan in plans] if command == "sweep" else [plans.sigma]
        assert sigmas == ([0.0, 1.0] if command == "sweep" else [1.0])

    def test_forward_at_noise_level_one_runs(self, tmp_path, cheap_one):
        doc = json.loads(Path(cheap_one).read_text())
        doc["noise"] = {"sigma": 1.0, "seed": 1}
        cfg = write_config(tmp_path / "c.json", **doc)
        assert cli.main(["forward", "--config", cfg]) == 0
        assert "solution_trace.csv" in manifest_outputs(tmp_path / "out")

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
        monkeypatch.setattr(cli, "march", lambda *args: pytest.fail("marched"))
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
        monkeypatch.setattr(cli, "march", lambda *args: pytest.fail("marched"))
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
            patch.setattr(cli, "march", lambda *args: pytest.fail("marched"))
            patch.setattr(cli, "solve_subdiffusion", lambda *args: pytest.fail("marched"))
            patch.setattr(locate_multi, "march", lambda *args: pytest.fail("marched"))
            if all(v <= cli.MAX_MESH_VERTICES and b <= cli.MAX_MARCH_BYTES for v, b in sizes):
                with pytest.raises(MeshReached):
                    cli.main([command, "--config", cfg])
            else:
                assert cli.main([command, "--config", cfg]) == 2

    @settings(max_examples=200, deadline=None)
    @given(run=st.sampled_from(RUNS), data=st.data())
    def test_out_of_range_value_is_2_before_any_mesh(self, tmp_path_factory, run, data):
        # the plan checks every range before the output directory, any mesh or march
        key = data.draw(st.sampled_from([k for k, (runs, _) in OUT_OF_RANGE.items() if run in runs]))
        overrides = data.draw(OUT_OF_RANGE[key][1])
        command, algorithm = run.split(":") if ":" in run else (run, "one")
        doc = {k: dict(v) if isinstance(v, dict) else v for k, v in PLAN_BASE.items()}
        doc["sweep"] = {"parameter": "sigma", "values": [0.0, 0.01], "algorithm": algorithm}
        for section, value in overrides.items():
            doc[section] = {**doc.get(section, {}), **value} if isinstance(value, dict) else value
        tmp = tmp_path_factory.mktemp("range")
        cfg = write_config(tmp / "c.json", output_dir=str(tmp / "o"), **doc)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "build_mesh", lambda *args: pytest.fail("meshed"))
            assert cli.main([command, "--config", cfg]) == 2
        assert not (tmp / "o").exists()

    @pytest.mark.parametrize("command", ["locate-one", "locate-multi", "oracle-check", "sweep"])
    def test_no_inclusions_is_2_before_any_mesh(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.setattr(cli, "build_mesh", lambda *args: pytest.fail("meshed"))
        cfg = write_config(
            tmp_path / "c.json",
            sweep={"parameter": "sigma", "values": [0.0], "algorithm": "multi"},
            output_dir=str(tmp_path / "o"),
        )
        assert cli.main([command, "--config", cfg]) == 2
        name = "locate-multi" if command == "sweep" else command
        expected = f"fracloc: config error: {name} needs at least one inclusion in the config\n"
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("algorithm", ["one", "multi"])
    def test_sweep_checks_every_noise_level_before_the_first(
        self, tmp_path, monkeypatch, capsys, algorithm
    ):
        monkeypatch.setattr(cli, "build_mesh", lambda *args: pytest.fail("meshed"))
        cfg = write_config(
            tmp_path / "c.json",
            inclusions=[CHEAP_INCLUSION],
            sweep={"parameter": "sigma", "values": [0.0, -0.01], "algorithm": algorithm},
            output_dir=str(tmp_path / "o"),
        )
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "fracloc: config error: noise level must be nonnegative, got -0.01\n"
        )

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

    @pytest.mark.parametrize("algorithm", ["one", "multi"])
    def test_eps_sweep_meshes_at_the_set_h_near(self, tmp_path, monkeypatch, algorithm):
        # a set mesh.h_near holds for every eps, as in a locate run
        meshed = []
        real = cli.build_mesh

        def recording(incs, h_far, h_near):
            meshed.append((incs.items[0].eps, h_far, h_near))
            return real(incs, h_far, h_near)

        monkeypatch.setattr(cli, "build_mesh", recording)
        cfg = write_config(
            tmp_path / "c.json",
            **dict(PLAN_BASE, mesh={"h_far": 0.3, "h_near": 0.0125}),
            sweep={"parameter": "eps", "values": [0.05, 0.08], "algorithm": algorithm},
            output_dir=str(tmp_path / "o"),
        )
        assert cli.main(["sweep", "--config", cfg]) == 0
        assert meshed == [(0.05, 0.3, 0.0125), (0.08, 0.3, 0.0125)]

    def test_eps_below_four_h_near_is_2_before_any_mesh(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_mesh", lambda *args: pytest.fail("meshed"))
        cfg = write_config(
            tmp_path / "c.json",
            mesh={"h_far": 0.3, "h_near": 0.0125},
            inclusions=[{"center": [0.2, 0.3], "eps": 0.05, "gamma": 5.0}],
            sweep={"parameter": "eps", "values": [0.05, 0.04], "algorithm": "one"},
            output_dir=str(tmp_path / "o"),
        )
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert "h_near = 0.0125 does not resolve inclusion 0" in capsys.readouterr().err

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
        plan = cli.plan_run("forward", cli.load_config(cfg))
        mesh = cli.build_mesh(plan.incs, *plan.mesh_sizes)
        ax = mesh.vertices @ np.array([0.6, -0.8])
        np.testing.assert_allclose(
            ax, 0.6 * mesh.vertices[:, 0] - 0.8 * mesh.vertices[:, 1], rtol=0.0, atol=1e-15
        )
        rows = [ln.split(",") for ln in (out / "background_field.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(len(mesh.vertices)))
        for row, v in zip(rows, ax.tolist()):
            assert row[1:] == [repr(v)] * 9
        rows = [ln.split(",") for ln in (out / "background_trace.csv").read_text().splitlines()[1:]]
        assert len(rows) == mesh.n_boundary
        for row, v in zip(rows, ax[: mesh.n_boundary].tolist()):
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
        from fracloc import forward, greenfn

        counts = {"splu": 0, "kernel": 0, "time_half": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(forward, "splu", counting("splu", forward.splu))
        # every kernel of the pipeline goes through greenfn's separated
        # evaluator and takes its time half there
        monkeypatch.setattr(greenfn, "_separated", counting("kernel", greenfn._separated))
        monkeypatch.setattr(greenfn, "_time_factors", counting("time_half", greenfn._time_factors))
        assert cli.main(["locate-one", "--config", cheap_one]) == 0
        # both directions march as one block; U = a.x is not marched
        assert counts["splu"] == 1
        # two segments at tol 1e-3, bisected in lockstep: 2 endpoint rounds
        # and 10 halvings, each one kernel call for both anchors
        assert counts["kernel"] == 12
        # one probe table per run takes the kernel's time half once
        assert counts["time_half"] == 1

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

    def test_data_without_signal_is_4_with_its_cause(self, tmp_path, capsys):
        # one time step leaves every probe value at exactly 0
        doc = json.loads((Path(__file__).parents[1] / "configs" / "example41.json").read_text())
        doc.update(time_steps=1, output_dir=str(tmp_path / "out"))
        cfg = write_config(tmp_path / "c.json", **doc)
        assert cli.main(["locate-one", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert "probe values are 0 at both ends of bracket 0; the data carry no signal" in err
        assert not (tmp_path / "out" / "reconstruction.csv").exists()

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

    @pytest.mark.parametrize(
        "override",
        [{"time_steps": 1}, {"time_steps": 1, "scan": {"k": 3}}, {"gamma0": 1e-6}],
        ids=["one-step", "one-step-k3", "gamma0-1e-6"],
    )
    def test_data_without_signal_is_4_before_the_scan(self, tmp_path, monkeypatch, capsys, override):
        # one time step, or a background too slow to reach the boundary,
        # leaves every entry of the data matrix at exactly 0, at any k
        monkeypatch.setattr(cli, "scan_indicators", lambda *args: pytest.fail("scanned"))
        doc = json.loads((Path(__file__).parents[1] / "configs" / "example43.json").read_text())
        scan = dict(doc["scan"], **override.pop("scan", {}))
        doc.update(override, scan=scan, output_dir=str(tmp_path / "out"))
        cfg = write_config(tmp_path / "c.json", **doc)
        assert cli.main(["locate-multi", "--config", cfg]) == 4
        assert capsys.readouterr().err == (
            "fracloc: reconstruction failed: the data matrix is 0; the data carry no signal\n"
        )
        assert not (tmp_path / "out" / "peaks.csv").exists()

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
            {"k": 0},
            {"k": 6},
            {"tau": 0.0},
            {"tau": 1.5},
        ],
        ids=[
            "no-peaks", "region-outside", "region-degenerate", "resolution-1",
            "resolution-2", "k-above-n", "k-negative", "k-0", "k-n", "tau-0", "tau-above-1",
        ],
    )
    def test_scan_ranges_checked_before_march(self, tmp_path, monkeypatch, scan):
        monkeypatch.setattr(locate_multi, "march", lambda *args: pytest.fail("marched"))
        monkeypatch.setattr(cli, "march", lambda *args: pytest.fail("marched"))
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


def manifest_outputs(out):
    return json.loads((out / "manifest.json").read_text())["outputs"]


def on_worker():
    return threading.current_thread() is not threading.main_thread()


def no_march(*args, **kwargs):
    raise SolverError("injected")


def patch_march(monkeypatch, fn):
    """Put fn in place of forward.march in every module that binds it."""
    for module in (forward, cli, locate_multi):
        monkeypatch.setattr(module, "march", fn)


class TestWorkBesideTheMarch:
    """locate-multi computes the scan's kernel rows on a worker thread
    while the calling thread marches; forward writes its background files
    on a worker thread while the calling thread marches u."""

    @pytest.mark.parametrize("worker", ["after", "before"])
    def test_locate_multi_outputs_do_not_depend_on_timing(
        self, tmp_path, monkeypatch, cheap_multi, worker
    ):
        assert cli.main(["locate-multi", "--config", cheap_multi, "--out", str(tmp_path / "a")]) == 0
        row_fn, march, build = locate_multi._kernel_matrix, locate_multi.march, cli.measure_data_matrix
        ahead = []  # rows the worker has made
        built = threading.Event()
        all_rows = threading.Event()
        at_data_matrix = []

        def rows(*args):
            if on_worker() and worker == "after":
                assert built.wait(timeout=60)
            g = row_fn(*args)
            if on_worker():
                ahead.append(1)
                if len(ahead) == 21:
                    all_rows.set()
            return g

        def late_march(*args):
            if worker == "before":
                assert all_rows.wait(timeout=60)
            return march(*args)

        def data_matrix(*args, **kwargs):
            data = build(*args, **kwargs)
            at_data_matrix.append(len(ahead))
            built.set()
            return data

        monkeypatch.setattr(locate_multi, "_kernel_matrix", rows)
        monkeypatch.setattr(locate_multi, "march", late_march)
        monkeypatch.setattr(cli, "measure_data_matrix", data_matrix)
        assert cli.main(["locate-multi", "--config", cheap_multi, "--out", str(tmp_path / "b")]) == 0
        # the worker had made no row, or every row, when the data matrix was built
        assert at_data_matrix == [0 if worker == "after" else 21]
        assert manifest_outputs(tmp_path / "b") == manifest_outputs(tmp_path / "a")

    @pytest.mark.parametrize("pause", ["writer", "march"])
    def test_forward_outputs_do_not_depend_on_a_pause(self, tmp_path, monkeypatch, capsys, cheap_one, pause):
        assert cli.main(["forward", "--config", cheap_one, "--out", str(tmp_path / "a")]) == 0
        printed = capsys.readouterr().out.replace(str(tmp_path / "a"), "out")
        save, march = mesh.Mesh.save, cli.solve_subdiffusion
        threads = {}

        def slow_save(self, path):
            threads["write"] = threading.current_thread()
            if pause == "writer":
                time.sleep(0.05)
            return save(self, path)

        def slow_march(*args):
            threads["march"] = threading.current_thread()
            u = march(*args)
            if pause == "march":
                time.sleep(0.05)
            return u

        monkeypatch.setattr(mesh.Mesh, "save", slow_save)
        monkeypatch.setattr(cli, "solve_subdiffusion", slow_march)
        assert cli.main(["forward", "--config", cheap_one, "--out", str(tmp_path / "b")]) == 0
        # u marches on the calling thread while a worker writes the background files
        assert threads["march"] is threading.current_thread() is not threads["write"]
        # a pause in either moves neither the outputs nor the printed paths
        assert manifest_outputs(tmp_path / "b") == manifest_outputs(tmp_path / "a")
        assert capsys.readouterr().out.replace(str(tmp_path / "b"), "out") == printed

    @pytest.mark.parametrize("outcome, code", [("success", 0), ("write-error", 2), ("march-error", 3)])
    def test_forward_writer_does_not_outlive_main(self, tmp_path, monkeypatch, cheap_one, outcome, code):
        if outcome == "write-error":
            (tmp_path / "out" / "mesh.txt").mkdir(parents=True)
        if outcome == "march-error":
            patch_march(monkeypatch, no_march)
        assert cli.main(["forward", "--config", cheap_one]) == code

    def test_forward_march_error_after_the_writes_is_3(self, tmp_path, monkeypatch, capsys, cheap_one):
        written = threading.Event()
        to_csv = forward.SpaceTimeField.to_csv

        def write_field(self, path):
            digest = to_csv(self, path)
            written.set()
            return digest

        def march_after_writes(*args, **kwargs):
            assert written.wait(timeout=60)
            no_march()

        monkeypatch.setattr(forward.SpaceTimeField, "to_csv", write_field)
        patch_march(monkeypatch, march_after_writes)
        assert cli.main(["forward", "--config", cheap_one]) == 3
        assert capsys.readouterr().err == "fracloc: solver error: injected\n"
        # the background files are written; no solution trace and no manifest
        files = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert files == ["background_field.csv", "background_trace.csv", "mesh.txt"]

    def test_forward_without_inclusions_writes_on_the_calling_thread(self, tmp_path, monkeypatch):
        start = threading.active_count()
        save = mesh.Mesh.save
        at_save = []

        def seen_save(self, path):
            at_save.append((threading.current_thread(), threading.active_count()))
            return save(self, path)

        monkeypatch.setattr(mesh.Mesh, "save", seen_save)
        cfg = write_config(tmp_path / "c.json", mesh={"h_far": 0.3}, output_dir=str(tmp_path / "out"))
        assert cli.main(["forward", "--config", cfg]) == 0
        # nothing to march: the files are written with no worker started
        assert at_save == [(threading.current_thread(), start)]
        assert sorted(manifest_outputs(tmp_path / "out")) == [
            "background_field.csv", "background_trace.csv", "mesh.txt"
        ]

    @staticmethod
    def row_and_march_fail(monkeypatch, capsys, cheap_multi, first):
        """A kernel row fails on the worker, and the march on the calling
        thread; the one that fails first waits for nothing."""
        scanned, marched = threading.Event(), threading.Event()

        def infinite(rho2, times):
            if first == "march":
                assert marched.wait(timeout=60)
            scanned.set()
            return np.full(np.shape(rho2) + times.rate.shape, np.inf)

        def failing_march(*args, **kwargs):
            if first == "row":
                assert scanned.wait(timeout=60)
            marched.set()
            no_march()

        monkeypatch.setattr(locate_multi, "_separated", infinite)
        patch_march(monkeypatch, failing_march)
        assert cli.main(["locate-multi", "--config", cheap_multi]) == 3
        assert capsys.readouterr().err == "fracloc: solver error: injected\n"

    def test_locate_multi_march_error_beats_scan_error(self, monkeypatch, capsys, cheap_multi):
        self.row_and_march_fail(monkeypatch, capsys, cheap_multi, first="row")

    def test_locate_multi_march_error_beats_a_later_scan_error(self, monkeypatch, capsys, cheap_multi):
        self.row_and_march_fail(monkeypatch, capsys, cheap_multi, first="march")

    def test_march_error_beats_a_busy_worker(self, monkeypatch, capsys, cheap_multi):
        row_fn = locate_multi._kernel_matrix

        def slow_rows(*args):
            if on_worker():
                time.sleep(0.01)
            return row_fn(*args)

        monkeypatch.setattr(locate_multi, "_kernel_matrix", slow_rows)
        patch_march(monkeypatch, no_march)
        assert cli.main(["locate-multi", "--config", cheap_multi]) == 3
        assert capsys.readouterr().err == "fracloc: solver error: injected\n"

    def test_forward_write_error_beats_march_error(self, tmp_path, monkeypatch, capsys, cheap_one):
        out = tmp_path / "out"
        (out / "background_field.csv").mkdir(parents=True)
        assert cli.main(["forward", "--config", cheap_one]) == 2
        expected = capsys.readouterr().err
        assert expected.startswith(f"fracloc: config error: cannot write the outputs in {out}: ")
        assert "background_field.csv" in expected
        patch_march(monkeypatch, no_march)
        assert cli.main(["forward", "--config", cheap_one]) == 2
        assert capsys.readouterr().err == expected

    def test_kernel_rows_held_within_budget(self, tmp_path, monkeypatch, cheap_multi):
        assert cli.main(["locate-multi", "--config", cheap_multi, "--out", str(tmp_path / "a")]) == 0
        # 21 grid rows of 21 points against 6 sources
        monkeypatch.setattr(locate_multi, "SCAN_AHEAD_BYTES", 2 * 8 * 21 * 6**2)
        row_fn, ahead = locate_multi._kernel_matrix, locate_multi.KernelRows.ahead
        march, build = locate_multi.march, cli.measure_data_matrix
        calls = []
        at_data_matrix = []
        stopped = threading.Event()

        def rows(*args):
            calls.append(on_worker())
            return row_fn(*args)

        def worker(self):
            ahead(self)
            stopped.set()

        def late_march(*args):
            # the worker has stopped on its own before the march starts
            assert stopped.wait(timeout=60)
            return march(*args)

        def data_matrix(*args, **kwargs):
            data = build(*args, **kwargs)
            at_data_matrix.append(len(calls))
            return data

        monkeypatch.setattr(locate_multi, "_kernel_matrix", rows)
        monkeypatch.setattr(locate_multi.KernelRows, "ahead", worker)
        monkeypatch.setattr(locate_multi, "march", late_march)
        monkeypatch.setattr(cli, "measure_data_matrix", data_matrix)
        assert cli.main(["locate-multi", "--config", cheap_multi, "--out", str(tmp_path / "b")]) == 0
        assert at_data_matrix == [2]
        assert calls == [True] * 2 + [False] * 19
        assert manifest_outputs(tmp_path / "b") == manifest_outputs(tmp_path / "a")

    @pytest.mark.parametrize(
        "command, sweep, marches",
        [
            ("locate-multi", None, 1),
            ("sweep", {"parameter": "sigma", "values": [0.0, 0.01, 0.02]}, 1),
            ("sweep", {"parameter": "aspect", "values": [1.0, 2.0]}, 2),
        ],
        ids=["locate-multi", "sigma-sweep", "aspect-sweep"],
    )
    def test_one_worker_and_one_scan_per_command(self, tmp_path, monkeypatch, command, sweep, marches):
        # every value of a multi sweep shares the scan: one worker and one
        # kernel matrix per grid row, however many values and marches
        workers = []
        counts = {"rows": 0, "march": 0}
        ahead, row_fn, march = locate_multi.KernelRows.ahead, locate_multi._kernel_matrix, forward.march

        def worker(self):
            workers.append(threading.current_thread())
            ahead(self)

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(locate_multi.KernelRows, "ahead", worker)
        monkeypatch.setattr(locate_multi, "_kernel_matrix", counting("rows", row_fn))
        patch_march(monkeypatch, counting("march", march))
        cfg = write_config(
            tmp_path / "c.json",
            time_steps=16,
            mesh={"h_far": 0.25},
            inclusions=[CHEAP_INCLUSION],
            sources={"n": 6},
            scan={"region": [-0.5, 0.5, -0.5, 0.5], "resolution": 11, "k": 3},
            sweep=dict(sweep or {}, algorithm="multi"),
            output_dir=str(tmp_path / "out"),
        )
        assert cli.main([command, "--config", cfg]) == 0
        assert counts == {"rows": 11, "march": marches}
        assert len(workers) == 1 and workers[0] is not threading.current_thread()
        assert not workers[0].is_alive()


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


    @pytest.mark.parametrize("distance", [1.05, 1.2])
    def test_exact_probe_out_of_reach_is_2_before_any_mesh(
        self, tmp_path, monkeypatch, capsys, distance
    ):
        monkeypatch.setattr(cli, "build_mesh", lambda *args: pytest.fail("meshed"))
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "example41.json").read_text())
        cfg["probe"]["distance"] = distance
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["oracle-check", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"probe distance {distance} is too close to the unit disk" in err
        assert "at least 1.4" in err
        assert not out.exists()

    def test_replaced_plan_checks_the_exact_probe_reach(self):
        cfg = cli.load_config(Path(__file__).parents[1] / "configs" / "example41.json")
        plan = cli.plan_run("oracle-check", cfg)
        assert replace(plan, probe_at=(1.4, 0.3)).probe_at == (1.4, 0.3)
        with pytest.raises(ConfigError, match="too close to the unit disk"):
            replace(plan, probe_at=(1.2, 0.3))
        replace(plan, probe_at=(1.2, 0.3), probe_kind="series")

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
        assert interior == [-0.00051374323854431146, -0.00038004950456734730]
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

    @pytest.mark.parametrize("algorithm", ["one", "multi"])
    def test_sigma_sweep_marches_once(self, tmp_path, monkeypatch, algorithm):
        # every value shares the march key, so one mesh and one march serve
        # both; each row equals that of a separate run at its sigma
        common = dict(
            time_steps=16,
            mesh={"h_far": 0.25},
            inclusions=[CHEAP_INCLUSION],
            probe={"tol": 1e-3},
            sources={"n": 6},
            scan={"region": [-0.5, 0.5, -0.5, 0.5], "resolution": 11, "k": 3},
        )
        sigmas = [0.0, 0.01]
        expected = []
        for sigma in sigmas:
            out = tmp_path / f"sigma{sigma}"
            cfg = write_config(
                out.with_suffix(".json"), noise={"sigma": sigma, "seed": 5}, output_dir=str(out), **common
            )
            if algorithm == "one":
                assert cli.main(["locate-one", "--config", cfg]) == 0
                rec = np.loadtxt(out / "reconstruction.csv", delimiter=",", skiprows=1)
                expected.append([sigma, rec[7], rec[6]])
            else:
                assert cli.main(["locate-multi", "--config", cfg]) == 0
                peaks = np.loadtxt(out / "peaks.csv", delimiter=",", skiprows=1, ndmin=2)
                expected.append([sigma, peaks[:, 2].max(), len(peaks)])
        counts = {"mesh": 0, "march": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "build_mesh", counting("mesh", cli.build_mesh))
        patch_march(monkeypatch, counting("march", forward.march))
        out = tmp_path / "sweep"
        cfg = write_config(
            tmp_path / "sweep.json",
            noise={"sigma": 0.0, "seed": 5},
            sweep={"parameter": "sigma", "values": sigmas, "algorithm": algorithm},
            output_dir=str(out),
            **common,
        )
        assert cli.main(["sweep", "--config", cfg]) == 0
        assert counts == {"mesh": 1, "march": 1}
        rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows, expected)

    @pytest.mark.parametrize("failing", [[0.01], [0.0, 0.01, 0.02]])
    def test_failed_value_keeps_sweep(self, tmp_path, monkeypatch, capsys, failing):
        # stand-in march, fit and locator: the value 0.01 has no reconstruction
        monkeypatch.setattr(cli, "_march", lambda plan, coeffs: (None, None, None))
        monkeypatch.setattr(cli, "fit_green_coeffs", lambda alpha: None)

        class Rec:
            P = np.array([0.2, 0.3])
            rho0 = 0.5

        def locate(plan, coeffs, mesh, u, U):
            if plan.sigma in failing:
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

    @pytest.mark.parametrize("failing", [[0.05], [0.0, 0.2]])
    def test_failed_multi_value_keeps_sweep(self, tmp_path, monkeypatch, capsys, failing):
        # the peaks of each failing value are refused; every other row equals
        # that of a separate locate-multi run at its sigma, and the three
        # sigmas give three different rows
        common = dict(
            time_steps=16,
            mesh={"h_far": 0.25},
            inclusions=[CHEAP_INCLUSION],
            sources={"n": 6},
            scan={"region": [-0.5, 0.5, -0.5, 0.5], "resolution": 11, "k": 3},
        )
        sigmas = [0.0, 0.05, 0.2]
        expected = []
        for sigma in sigmas:
            out = tmp_path / f"sigma{sigma}"
            cfg = write_config(
                out.with_suffix(".json"), noise={"sigma": sigma, "seed": 5}, output_dir=str(out), **common
            )
            assert cli.main(["locate-multi", "--config", cfg]) == 0
            peaks = np.loadtxt(out / "peaks.csv", delimiter=",", skiprows=1, ndmin=2)
            expected.append([sigma, peaks[:, 2].max(), len(peaks)])
        assert len({row[1] for row in expected}) == 3
        capsys.readouterr()
        extract = cli.peak_extract
        calls = []

        def refusing(igrid, m, min_separation):
            # a sigma sweep takes its values in order
            sigma = sigmas[len(calls)]
            calls.append(sigma)
            if sigma in failing:
                raise ReconstructionError("injected")
            return extract(igrid, m, min_separation=min_separation)

        monkeypatch.setattr(cli, "peak_extract", refusing)
        out = tmp_path / "sweep"
        cfg = write_config(
            tmp_path / "sweep.json",
            noise={"sigma": 0.0, "seed": 5},
            sweep={"parameter": "sigma", "values": sigmas, "algorithm": "multi"},
            output_dir=str(out),
            **common,
        )
        assert cli.main(["sweep", "--config", cfg]) == 0
        assert len(calls) == len(sigmas)
        assert capsys.readouterr().err.splitlines() == [
            f"fracloc: sweep value {sigma!r} failed: injected" for sigma in failing
        ]
        rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
        for row, want in zip(rows, expected):
            if row[0] in failing:
                assert np.isnan(row[1:]).all()
            else:
                np.testing.assert_array_equal(row, want)

    def test_multi_value_without_signal_fails_alone(self, tmp_path, monkeypatch, capsys):
        # a zero data matrix fails its value before the scan, which takes
        # the other values' indicators; their rows are those of a sweep in
        # which no value fails
        common = dict(
            time_steps=16,
            mesh={"h_far": 0.25},
            inclusions=[CHEAP_INCLUSION],
            sources={"n": 6},
            scan={"region": [-0.5, 0.5, -0.5, 0.5], "resolution": 11, "k": 3},
            noise={"sigma": 0.0, "seed": 5},
            sweep={"parameter": "sigma", "values": [0.0, 0.05, 0.2], "algorithm": "multi"},
        )
        full = tmp_path / "full"
        cfg = write_config(full.with_suffix(".json"), output_dir=str(full), **common)
        assert cli.main(["sweep", "--config", cfg]) == 0
        build, scan = cli.measure_data_matrix, cli.scan_indicators
        scanned = []

        def no_signal_at_005(*args, sigma, **kwargs):
            data = build(*args, sigma=sigma, **kwargs)
            return locate_multi.DataMatrix(np.zeros_like(data.B)) if sigma == 0.05 else data

        def counting(measured, rows):
            scanned.append(len(measured))
            return scan(measured, rows)

        monkeypatch.setattr(cli, "measure_data_matrix", no_signal_at_005)
        monkeypatch.setattr(cli, "scan_indicators", counting)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", output_dir=str(out), **common)
        assert cli.main(["sweep", "--config", cfg]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "fracloc: sweep value 0.05 failed: the data matrix is 0; the data carry no signal"
        ]
        assert scanned == [2]
        rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
        want = np.loadtxt(full / "sweep.csv", delimiter=",", skiprows=1)
        assert np.isnan(rows[1, 1:]).all()
        np.testing.assert_array_equal(rows[[0, 2]], want[[0, 2]])

    def test_example44_multi_sweep_without_signal_is_4(self, tmp_path, capsys):
        # at one time step the noiseless data matrix is exactly 0, and that
        # value fails with its cause; the noisy ones measure noise alone and
        # fail at the peak search, as a one sweep's noisy values fail at the
        # sign check
        doc = json.loads((Path(__file__).parents[1] / "configs" / "example44.json").read_text())
        doc.update(time_steps=1, output_dir=str(tmp_path / "out"))
        values = doc["sweep"]["values"]
        assert doc["sweep"]["algorithm"] == "multi" and values[0] == 0.0
        cfg = write_config(tmp_path / "c.json", **doc)
        assert cli.main(["sweep", "--config", cfg]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == len(values) + 1
        assert lines[0] == "fracloc: sweep value 0.0 failed: the data matrix is 0; the data carry no signal"
        for value, line in zip(values, lines):
            assert line.startswith(f"fracloc: sweep value {value!r} failed: ")
        assert lines[-1] == f"fracloc: reconstruction failed: all {len(values)} sweep values failed"
        assert not (tmp_path / "out" / "sweep.csv").exists()

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
