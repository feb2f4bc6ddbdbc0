"""Command-line driver: forward runs, reconstructions, parameter sweeps.

All experiment input comes from a JSON config document (see DEFAULTS for
the full key set and built-in values, INCLUSION_DEFAULTS for the keys of
one inclusion spec, where None marks a required key).  Unknown or
missing keys, non-finite numbers, non-integral counts, counts above
their cap (MAX_COUNTS), negative seeds and noise levels
(NONNEGATIVE_KEYS) and values of the wrong kind (INTEGER_KEYS,
NULLABLE_KEYS, LIST_KEYS) are config errors, all raised at load time.
Each command then checks its mesh size (MAX_MESH_VERTICES) and the
memory its march keeps (MAX_MARCH_BYTES) before it builds a mesh.
Every run writes its outputs plus a manifest.json capturing the
resolved configuration and content hashes, so a rerun with the same
config on the same build reproduces the files byte for byte.

Exit codes: 0 success, 2 config error, 3 solver/mesh/quadrature error,
4 reconstruction failure.
"""

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    MeshError,
    QuadratureError,
    ReconstructionError,
    SolverError,
)
from .forward import (
    SpaceTimeField,
    add_noise,
    boundary_diffs,
    boundary_restrict,
    solve_block,
    solve_subdiffusion,
)
from .fracmath import TimeGrid, _check_alpha
from .greenfn import fit_green_coeffs
from .locate_one import _check_tol, default_segments, locate_one_inclusion
from .locate_multi import (
    _check_scan,
    build_data_matrix,
    peak_extract,
    scan_indicator,
    select_truncation,
    source_configuration,
)
from .measure import (
    KernelProbe,
    OracleKernelProbe,
    measurement_boundary,
    measurement_interior,
)
from .mesh import Inclusion, InclusionSet, build_mesh, vertex_estimate
from .textfile import table_lines, write_hashed

CONFIG_VERSION = 1

DEFAULTS = {
    "config_version": CONFIG_VERSION,
    "alpha": 0.5,
    "t_final": 1.0,
    "gamma0": 1.0,
    "time_steps": 128,
    "series_terms": 3,
    "mesh": {"h_far": 0.15, "h_near": None},
    "inclusions": [],
    "background": {"direction": [1.0, 0.0]},
    "noise": {"sigma": 0.0, "seed": 0},
    "probe": {"tol": 1e-4, "distance": 2.0, "source_angle": 40.0, "kind": None},
    "sources": {"kind": "full", "n": None, "radius": 2.0},
    "scan": {
        "region": [-0.7, 0.7, -0.7, 0.7],
        "resolution": 101,
        "tau": 1e-3,
        "k": None,
        "peaks": 1,
        "min_separation": 0.1,
    },
    "sweep": {"parameter": "eps", "values": [], "algorithm": "one"},
    "output_dir": "fracloc-out",
}

INCLUSION_DEFAULTS = {"center": None, "eps": None, "gamma": None, "aspect": 1.0}

# Keys whose values must be integral; they are stored as ints.
INTEGER_KEYS = frozenset(
    {
        "config_version",
        "time_steps",
        "series_terms",
        "noise.seed",
        "sources.n",
        "scan.resolution",
        "scan.k",
        "scan.peaks",
    }
)
# Keys that default to None, with the kind a set value must have.
NULLABLE_KEYS = {
    "mesh.h_near": "number",
    "probe.kind": "string",
    "sources.n": "integer",
    "scan.k": "integer",
}
# List-valued keys of finite numbers, with their length (None: any).
LIST_KEYS = {"background.direction": 2, "scan.region": 4, "sweep.values": None}
# Keys whose values must not be negative.
NONNEGATIVE_KEYS = frozenset({"noise.seed", "noise.sigma"})
# Caps far above every shipped config, each on one count alone; the mesh's
# cap is on mesh.vertex_estimate, and MAX_MARCH_BYTES caps their product.
MAX_COUNTS = {"time_steps": 4096, "scan.resolution": 1001, "sources.n": 256}
MAX_MESH_VERTICES = 200_000
# The march keeps every level of every marched field in memory: 8 B x
# (time_steps + 1) x vertex_estimate x fields (columns times conductivities).
# A config over this cap exits 2 at once, rather than running for minutes
# and then running out of memory.  example43's locate-multi (20 fields,
# about 1,200 estimated vertices, 128 steps) needs 24 MiB and the perfbench
# workloads at most 15 MiB; example43 at 4096 steps, or with 256 sources,
# would need 790 or 640 MiB and is refused.
MAX_MARCH_BYTES = 512 * 2**20


def _is_number(val):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an int beyond the float range
        return False


def _checked(name, default, val):
    """val for key name, if it has the kind the key requires."""
    if val is None and name in NULLABLE_KEYS:
        return None
    if name in LIST_KEYS:
        length = LIST_KEYS[name]
        if not (isinstance(val, list) and all(map(_is_number, val))) or (
            length is not None and len(val) != length
        ):
            size = "any number of" if length is None else str(length)
            raise ConfigError(f"config key {name} must be a list of {size} finite numbers, got {val!r}")
        return val
    kind = NULLABLE_KEYS.get(name)
    if name in INTEGER_KEYS:
        if not (_is_number(val) and float(val).is_integer()):
            raise ConfigError(f"config key {name} must be an integer, got {val!r}")
        if val > MAX_COUNTS.get(name, math.inf):
            raise ConfigError(f"config key {name} must be at most {MAX_COUNTS[name]}, got {val!r}")
        val = int(val)
    elif kind == "number" or _is_number(default):
        if not _is_number(val):
            raise ConfigError(f"config key {name} must be a finite number, got {val!r}")
    elif (kind == "string" or isinstance(default, str)) and not isinstance(val, str):
        raise ConfigError(f"config key {name} must be a string, got {val!r}")
    if name in NONNEGATIVE_KEYS and val < 0:
        raise ConfigError(f"config key {name} must be nonnegative, got {val!r}")
    return val


def _merge_section(prefix, base, override):
    """Override merged into base; unknown keys and values of the wrong kind are errors."""
    merged = copy.deepcopy(base)
    for key, val in override.items():
        name = prefix + key
        if key not in base:
            raise ConfigError(f"unknown config key {name}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {name} must be an object")
            val = _merge_section(name + ".", base[key], val)
        else:
            val = _checked(name, base[key], val)
        merged[key] = val
    return merged


def _check_inclusion(idx, spec):
    name = f"inclusions.{idx}"
    if not isinstance(spec, dict):
        raise ConfigError(f"config key {name} must be an object")
    merged = _merge_section(name + ".", INCLUSION_DEFAULTS, spec)
    center = merged.pop("center")
    pair = isinstance(center, list) and len(center) == 2
    if not (pair and all(map(_is_number, center + list(merged.values())))):
        raise ConfigError(
            f"{name} needs a center of two finite numbers and finite eps and gamma, got {spec}"
        )


def load_config(path):
    """Read a JSON config, check its version and keys, fill in defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    version = raw.get("config_version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"config version {version} not supported (expected {CONFIG_VERSION})"
        )
    cfg = _merge_section("", DEFAULTS, raw)
    if not isinstance(cfg["inclusions"], list):
        raise ConfigError("config key inclusions must be a list")
    for idx, spec in enumerate(cfg["inclusions"]):
        _check_inclusion(idx, spec)
    return cfg


def _inclusion_set(cfg):
    items = [
        Inclusion(
            center=tuple(spec["center"]),
            eps=float(spec["eps"]),
            gamma=float(spec["gamma"]),
            aspect=float(spec.get("aspect", 1.0)),
        )
        for spec in cfg["inclusions"]
    ]
    return InclusionSet(items=tuple(items), gamma0=float(cfg["gamma0"]))


def _mesh_plan(cfg):
    """Inclusions, h_far, h_near and mesh.vertex_estimate, which must not
    exceed MAX_MESH_VERTICES; the estimate is 0 for sizes build_mesh rejects."""
    incs = _inclusion_set(cfg)
    h_far = float(cfg["mesh"]["h_far"])
    h_near = cfg["mesh"]["h_near"]
    if h_near is None:
        h_near = min((i.eps for i in incs.items), default=h_far * 4.0) / 4.0
        h_near = min(h_near, h_far)
    h_near = float(h_near)
    if min(h_far, h_near) <= 0.0:
        return incs, h_far, h_near, 0.0
    vertices = vertex_estimate(incs, h_far, h_near)
    if vertices > MAX_MESH_VERTICES:
        raise ConfigError(f"mesh sizes {h_far}, {h_near} need over {MAX_MESH_VERTICES} vertices")
    return incs, h_far, h_near, vertices


def _check_march(cfg, fields):
    """Config error unless the march's stored levels fit in MAX_MARCH_BYTES.

    fields is the number of nodal fields the command marches, columns
    times conductivities; the march keeps each of them at every level.
    """
    vertices = _mesh_plan(cfg)[3]
    size = 8.0 * (int(cfg["time_steps"]) + 1) * vertices * fields
    if size > MAX_MARCH_BYTES:
        raise ConfigError(
            f"the march would keep about {size / 2**20:.0f} MiB of levels "
            f"(time_steps {cfg['time_steps']}, about {vertices:.0f} vertices, {fields} fields), "
            f"over {MAX_MARCH_BYTES // 2**20} MiB"
        )


def _build_setting(cfg):
    """Inclusions, mesh and time grid; the kernel coefficients are fitted
    only by the commands that evaluate kernels (see _coeffs).  alpha is
    checked here, since forward without inclusions marches nothing."""
    _check_alpha(float(cfg["alpha"]))
    incs, h_far, h_near, _ = _mesh_plan(cfg)
    mesh = build_mesh(incs, h_far, h_near)
    grid = TimeGrid(int(cfg["time_steps"]), float(cfg["t_final"]))
    return incs, mesh, grid


def _coeffs(cfg):
    return fit_green_coeffs(float(cfg["alpha"]))


def _axis_fields(cfg, incs, mesh, grid):
    """Blocks (u, U) for the backgrounds a = (1, 0) and (0, 1), column j for a = e_j.

    u is marched for both directions as one block.  The background
    U = a.x, that is x_j, solves the background problem exactly in P1
    for any gamma0, so it is taken as it is, not marched.
    """
    gamma0 = float(cfg["gamma0"])
    u = solve_block(
        mesh, float(cfg["alpha"]), incs, lambda p: p, lambda p, t, nrm: gamma0 * nrm, grid
    )
    return u, np.broadcast_to(mesh.vertices, u.shape)


def _write_csv(path, header, rows):
    """Header (none if None), then each row's values at %.17g; returns the
    file's sha256 hex digest."""
    return write_hashed(path, table_lines(header, "%.17g", rows))


def _write_manifest(out_dir, command, cfg, hashes):
    """manifest.json: the command, the resolved config and the digest of each output."""
    manifest = {
        "command": command,
        "fracloc_version": __version__,
        "config": cfg,
        "outputs": hashes,
    }
    write_hashed(out_dir / "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True), "\n"])


def cmd_forward(cfg, out_dir):
    # u alone is marched, and only with inclusions; U = a.x is exact
    _check_march(cfg, 1 if cfg["inclusions"] else 0)
    incs, mesh, grid = _build_setting(cfg)
    a = np.asarray(cfg["background"]["direction"], dtype=float)
    gamma0 = float(cfg["gamma0"])

    def u0(p):
        return p @ a

    def g(p, t, nrm):
        return gamma0 * (nrm @ a)

    # U = a.x solves the background problem exactly in P1 at every level
    U = SpaceTimeField(
        mesh, grid, np.broadcast_to(u0(mesh.vertices), (grid.n_steps + 1, len(mesh.vertices)))
    )
    files = {
        "mesh.txt": mesh.save(out_dir / "mesh.txt"),
        "background_trace.csv": boundary_restrict(U).to_csv(out_dir / "background_trace.csv"),
        "background_field.csv": U.to_csv(out_dir / "background_field.csv"),
    }
    if incs.items:
        u = solve_subdiffusion(mesh, float(cfg["alpha"]), incs, None, u0, g, grid)
        trace = boundary_restrict(u)
        sigma = float(cfg["noise"]["sigma"])
        if sigma != 0.0:
            trace = add_noise(trace, sigma, int(cfg["noise"]["seed"]))
        files["solution_trace.csv"] = trace.to_csv(out_dir / "solution_trace.csv")
    return files


def _sources(cfg):
    src_cfg = cfg["sources"]
    return source_configuration(src_cfg["kind"], n=src_cfg["n"], radius=float(src_cfg["radius"]))


def _march_fields(cfg, algorithm):
    """Nodal fields the locator marches: u for both axis directions
    (U = a.x is exact), or u and U for every source."""
    return 2 if algorithm == "one" else 2 * _sources(cfg).n


def _locate_one_run(cfg, incs, mesh, grid, coeffs):
    """Locate one inclusion from the backgrounds a = (1, 0) and (0, 1)."""
    if not incs.items:
        raise ConfigError("locate-one needs at least one inclusion in the config")
    segments = default_segments(distance=float(cfg["probe"]["distance"]))
    tol = float(cfg["probe"]["tol"])
    _check_tol(tol)
    diffs = boundary_diffs(
        mesh,
        grid,
        *_axis_fields(cfg, incs, mesh, grid),
        sigma=float(cfg["noise"]["sigma"]),
        seed=int(cfg["noise"]["seed"]),
    )
    return locate_one_inclusion(
        diffs,
        coeffs,
        segments=segments,
        n_terms=int(cfg["series_terms"]),
        tol=tol,
        gamma0=float(cfg["gamma0"]),
    )


def _center_error(rec_point, incs):
    if len(incs.items) != 1:
        return float("nan")
    return float(np.linalg.norm(rec_point - np.array(incs.items[0].center)))


def cmd_locate_one(cfg, out_dir):
    _check_march(cfg, _march_fields(cfg, "one"))
    incs, mesh, grid = _build_setting(cfg)
    rec = _locate_one_run(cfg, incs, mesh, grid, _coeffs(cfg))
    err = _center_error(rec.P, incs)
    digest = _write_csv(
        out_dir / "reconstruction.csv",
        "Px,Py,P1x,P1y,P2x,P2y,rho0,err",
        [list(rec.P) + list(rec.P1) + list(rec.P2) + [rec.rho0, err]],
    )
    return {"reconstruction.csv": digest}


def _locate_multi_run(cfg, incs, mesh, grid, coeffs):
    sources = _sources(cfg)
    scan_cfg = cfg["scan"]
    region = tuple(scan_cfg["region"])
    resolution = int(scan_cfg["resolution"])
    peaks = int(scan_cfg["peaks"])
    k = scan_cfg["k"]
    tau = float(scan_cfg["tau"])
    # every scan range is checked before the data matrix is marched
    _check_scan(sources, region, resolution, peaks, k, tau)
    data = build_data_matrix(
        sources,
        incs,
        float(cfg["alpha"]),
        coeffs,
        mesh,
        grid,
        n_terms=int(cfg["series_terms"]),
        sigma=float(cfg["noise"]["sigma"]),
        seed=int(cfg["noise"]["seed"]),
    )
    if k is None:
        # a point inclusion's kernel matrix has 2 dominant directions and
        # secondary ones near tau, so keep at least 2 per sought peak
        k = select_truncation(data.singular_values, tau)
        k = min(max(k, 2 * peaks + 1), data.n - 1)
    igrid = scan_indicator(
        data,
        sources,
        float(cfg["alpha"]),
        coeffs,
        region=region,
        resolution=resolution,
        k=int(k),
        n_terms=int(cfg["series_terms"]),
        t_final=float(cfg["t_final"]),
        gamma0=float(cfg["gamma0"]),
    )
    located = peak_extract(igrid, peaks, min_separation=float(scan_cfg["min_separation"]))
    return sources, data, igrid, located


def _nearest_center(p, incs):
    if not incs.items:
        return float("nan")
    return min(np.linalg.norm(p - np.array(i.center)) for i in incs.items)


def cmd_locate_multi(cfg, out_dir):
    _check_march(cfg, _march_fields(cfg, "multi"))
    incs, mesh, grid = _build_setting(cfg)
    sources, data, igrid, peaks = _locate_multi_run(cfg, incs, mesh, grid, _coeffs(cfg))
    return {
        "data_matrix.csv": _write_csv(out_dir / "data_matrix.csv", None, data.B),
        "singular_values.csv": _write_csv(
            out_dir / "singular_values.csv",
            "index,value",
            [(j + 1, s) for j, s in enumerate(data.singular_values)],
        ),
        "w_grid.csv": igrid.to_csv(out_dir / "w_grid.csv"),
        "peaks.csv": _write_csv(
            out_dir / "peaks.csv",
            "x,y,err",
            [[p[0], p[1], _nearest_center(p, incs)] for p in peaks],
        ),
    }


def cmd_oracle_check(cfg, out_dir):
    """Boundary vs interior route for the measurement functional.

    probe.kind null or "exact" uses the exact profile (OracleKernelProbe),
    "series" the truncated expansion.  Always runs on noiseless traces;
    the two routes evaluate the same continuum quantity, so their
    relative difference reports the discretization quality of the
    pipeline.
    """
    _check_march(cfg, _march_fields(cfg, "one"))
    incs, mesh, grid = _build_setting(cfg)
    if not incs.items:
        raise ConfigError("oracle-check needs at least one inclusion in the config")
    alpha = float(cfg["alpha"])
    gamma0 = float(cfg["gamma0"])
    angle = np.deg2rad(float(cfg["probe"]["source_angle"]))
    radius = float(cfg["probe"]["distance"])
    src = (radius * np.cos(angle), radius * np.sin(angle))
    kind = cfg["probe"]["kind"]
    if kind in (None, "exact"):
        probe = OracleKernelProbe(
            d=2, alpha=alpha, source=src, t_final=grid.t_final, gamma0=gamma0
        )
    elif kind == "series":
        probe = KernelProbe(
            coeffs=_coeffs(cfg),
            n_terms=int(cfg["series_terms"]),
            source=src,
            t_final=grid.t_final,
            gamma0=gamma0,
        )
    else:
        raise ConfigError(f"probe kind must be 'exact' or 'series', got {kind!r}")
    u, U = _axis_fields(cfg, incs, mesh, grid)
    rows = []
    for j, diff in enumerate(boundary_diffs(mesh, grid, u, U)):
        via_boundary = measurement_boundary(diff, probe.normal_derivative, gamma0).value
        via_interior = measurement_interior(
            SpaceTimeField(mesh, grid, u[..., j]), probe.gradient, incs
        ).value
        denom = max(abs(via_boundary), abs(via_interior))
        rel = abs(via_boundary - via_interior) / denom if denom > 0 else 0.0
        rows.append((f"U{j + 1}", via_boundary, via_interior, rel))
    lines = ["background,boundary,interior,rel_diff\n"]
    lines += [f"{label},{b:.17g},{i:.17g},{r:.17g}\n" for label, b, i, r in rows]
    return {"equivalence.csv": write_hashed(out_dir / "equivalence.csv", lines)}


def _apply_sweep_value(cfg, parameter, value):
    swept = copy.deepcopy(cfg)
    if parameter == "eps":
        for spec in swept["inclusions"]:
            spec["eps"] = float(value)
        swept["mesh"]["h_near"] = None
    elif parameter == "sigma":
        swept["noise"]["sigma"] = float(value)
    elif parameter == "aspect":
        for spec in swept["inclusions"]:
            spec["aspect"] = float(value)
    else:
        raise ConfigError(
            f"sweep parameter must be eps, sigma or aspect, got {parameter!r}"
        )
    return swept


def cmd_sweep(cfg, out_dir):
    sweep = cfg["sweep"]
    values = sweep["values"]
    if not values:
        raise ConfigError("sweep.values is empty")
    algorithm = sweep["algorithm"]
    if algorithm not in ("one", "multi"):
        raise ConfigError(f"sweep.algorithm must be 'one' or 'multi', got {algorithm!r}")
    swept_cfgs = [_apply_sweep_value(cfg, sweep["parameter"], value) for value in values]
    # every value's march is checked before the first one runs
    for swept in swept_cfgs:
        _check_march(swept, _march_fields(swept, algorithm))
    rows = []
    failed = 0
    for value, swept in zip(values, swept_cfgs):
        incs, mesh, grid = _build_setting(swept)
        coeffs = _coeffs(swept)
        try:
            if algorithm == "one":
                rec = _locate_one_run(swept, incs, mesh, grid, coeffs)
                rows.append((value, _center_error(rec.P, incs), rec.rho0))
            else:
                _, _, _, peaks = _locate_multi_run(swept, incs, mesh, grid, coeffs)
                worst = max(_nearest_center(p, incs) for p in peaks)
                rows.append((value, worst, float(len(peaks))))
        except ReconstructionError as exc:
            # one failed value must not discard the rest of the sweep
            print(f"fracloc: sweep value {value!r} failed: {exc}", file=sys.stderr)
            rows.append((value, float("nan"), float("nan")))
            failed += 1
    if failed == len(values):
        raise ReconstructionError(f"all {failed} sweep values failed")
    header = (
        "value,err,rho0" if algorithm == "one" else "value,max_err,peaks_found"
    )
    return {"sweep.csv": _write_csv(out_dir / "sweep.csv", header, rows)}


COMMANDS = {
    "forward": cmd_forward,
    "locate-one": cmd_locate_one,
    "locate-multi": cmd_locate_multi,
    "oracle-check": cmd_oracle_check,
    "sweep": cmd_sweep,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracloc",
        description="Locate small conductivity inclusions in a subdiffusion model.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="noise seed override")
    parser.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["noise"]["seed"] = _checked("noise.seed", 0, args.seed)
        if args.out is not None:
            cfg["output_dir"] = args.out
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        out_dir = Path(cfg["output_dir"])
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}")
        try:
            files = COMMANDS[args.command](cfg, out_dir)
            _write_manifest(out_dir, args.command, cfg, files)
        except OSError as exc:
            raise ConfigError(f"cannot write the outputs in {out_dir}: {exc}")
    except ConfigError as exc:
        print(f"fracloc: config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, MeshError, QuadratureError) as exc:
        print(f"fracloc: solver error: {exc}", file=sys.stderr)
        return 3
    except ReconstructionError as exc:
        print(f"fracloc: reconstruction failed: {exc}", file=sys.stderr)
        return 4
    for name in [*files, "manifest.json"]:
        print(out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
