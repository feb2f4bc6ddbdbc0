"""Command-line driver: forward runs, reconstructions, parameter sweeps.

All experiment input comes from a JSON config document (see DEFAULTS for
the full key set and built-in values, INCLUSION_DEFAULTS for the keys of
one inclusion spec, where None marks a required key).  Unknown or
missing keys, non-finite numbers, non-integral counts, counts above
their cap (MAX_COUNTS), negative seeds, noise levels and peak
separations (NONNEGATIVE_KEYS) and values of the wrong kind (that of the
key's default, NULLABLE_KEYS, LIST_KEYS) are config errors, all raised at
load time.
main then builds the command's RunPlan (plan_run), which runs every
range check of the run, the caps on the mesh (MAX_MESH_VERTICES) and on
the march's memory (MAX_MARCH_BYTES) and a noise level of at most 1
(forward._check_sigma) among them, before any mesh; a
sweep checks every value's plan before the first runs, and values that
share a march key share one mesh, fit and march (_each_march).  Every
run writes its outputs plus a manifest.json capturing the resolved
configuration and content hashes, so a rerun with the same config on
the same build reproduces the files byte for byte.

Work that does not depend on u runs beside its march on worker threads,
all started by one primitive, forward.side_by_side.  forward starts
one: it writes mesh.txt and the background files while u marches on the
calling thread (cmd_forward); with no inclusion it has nothing to march
and writes them on the calling thread.  locate-multi, and a multi sweep
for all its values at once, start two: the kernel-row worker computes
the indicator scan's kernel rows from before the first march
(KernelRows.ahead, _locate_multi_runs), and the march's worker marches
the background U beside u in each march (forward.march).  locate-one,
oracle-check and a one sweep start no thread.  Every worker has stopped
before its command returns, so none outlives main; the outputs are those
of a run without them, and errors come in the same order: forward's
write error before its march error, a march error before a kernel row's,
the march's u before its U.

main computes under np.errstate(all="ignore"), so an overflow prints no
warning, and a worker computes under its caller's floating-point state
(side_by_side).  Every array a run writes or decides on meets a
finiteness check instead: in the march, SpaceTimeField, add_noise,
measure._contract, locate_multi._kernel_matrix, DataMatrix, IndicatorGrid.

Exit codes: 0 success, 2 config error, 3 solver/mesh/quadrature error,
4 reconstruction failure.
"""

import argparse
import copy
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
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
    _check_sigma,
    add_noise,
    boundary_diffs,
    boundary_restrict,
    march,
    side_by_side,
    solve_subdiffusion,
)
from .fracmath import TimeGrid, _check_alpha
from .greenfn import _check_series_order, fit_green_coeffs
from .locate_one import _check_distance, _check_tol, default_segments, locate_one_inclusion
from .locate_multi import (
    KernelRows,
    SourceSet,
    _check_scan,
    march_sources,
    measure_data_matrix,
    peak_extract,
    scan_indicators,
    source_configuration,
    truncation_level,
)
from .measure import (
    KernelProbe,
    OracleKernelProbe,
    _check_oracle_reach,
    measurement_boundary,
    measurement_interior,
)
from .mesh import Inclusion, InclusionSet, _check_sizes, build_mesh, mesh_sizes, vertex_estimate
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

# A key's kind is that of its default: an int default makes an integer key
# (its values are stored as ints), a float a finite number, a str a string.
_KINDS = {int: "integer", float: "number", str: "string"}
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
NONNEGATIVE_KEYS = frozenset({"noise.seed", "noise.sigma", "scan.min_separation"})
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
    kind = NULLABLE_KEYS.get(name, _KINDS.get(type(default)))
    if kind == "integer":
        if not (_is_number(val) and float(val).is_integer()):
            raise ConfigError(f"config key {name} must be an integer, got {val!r}")
        if val > MAX_COUNTS.get(name, math.inf):
            raise ConfigError(f"config key {name} must be at most {MAX_COUNTS[name]}, got {val!r}")
        val = int(val)
    elif kind == "number" and not _is_number(val):
        raise ConfigError(f"config key {name} must be a finite number, got {val!r}")
    elif kind == "string" and not isinstance(val, str):
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
        raise ConfigError(f"config_version {version!r} not supported (expected {CONFIG_VERSION})")
    cfg = _merge_section("", DEFAULTS, raw)
    if not isinstance(cfg["inclusions"], list):
        raise ConfigError("config key inclusions must be a list")
    for idx, spec in enumerate(cfg["inclusions"]):
        _check_inclusion(idx, spec)
    return cfg


@dataclass(frozen=True)
class RunPlan:
    """One command's run: every object it needs, built once from the config.

    Constructing a plan, also by dataclasses.replace, runs every range
    check of the run.  A field a command does not use is None: direction
    is forward's, segments and tol locate-one's, probe_at (the source's
    distance from the origin and its angle in radians) and probe_kind
    oracle-check's, sources and the scan keys locate-multi's.
    """

    command: str
    incs: InclusionSet
    mesh_sizes: tuple
    grid: TimeGrid
    alpha: float
    series_terms: int
    sigma: float
    seed: int
    direction: tuple = None
    segments: tuple = None
    tol: float = None
    probe_at: tuple = None
    probe_kind: str = None
    sources: SourceSet = None
    region: tuple = None
    resolution: int = None
    tau: float = None
    k: int = None
    peaks: int = None
    min_separation: float = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_series_order(self.series_terms)
        _check_sigma(self.sigma)
        if self.command != "forward" and not self.incs.items:
            raise ConfigError(f"{self.command} needs at least one inclusion in the config")
        if self.direction is not None and not any(self.direction):
            raise ConfigError("background direction must be nonzero")
        if self.tol is not None:
            _check_tol(self.tol)
        if self.probe_kind == "exact":
            _check_oracle_reach(self.probe_at[0], self.alpha, self.grid.t_final, self.incs.gamma0)
        if self.sources is not None:
            _check_scan(self.sources, self.region, self.resolution, self.peaks, self.k, self.tau)
        _check_sizes(self.incs, *self.mesh_sizes)
        vertices = vertex_estimate(self.incs, *self.mesh_sizes)
        if vertices > MAX_MESH_VERTICES:
            h_far, h_near = self.mesh_sizes
            raise ConfigError(f"mesh sizes {h_far}, {h_near} need over {MAX_MESH_VERTICES} vertices")
        if self.command == "forward":
            fields = min(len(self.incs.items), 1)  # u, marched only with inclusions
        else:  # u and U per source, or u for both axis directions (U = a.x is exact)
            fields = 2 * self.sources.n if self.sources else 2
        size = 8.0 * (self.grid.n_steps + 1) * vertices * fields
        if size > MAX_MARCH_BYTES:
            raise ConfigError(
                f"the march would keep about {size / 2**20:.0f} MiB of levels "
                f"(time_steps {self.grid.n_steps}, about {vertices:.0f} vertices, {fields} fields), "
                f"over {MAX_MARCH_BYTES // 2**20} MiB"
            )

    @property
    def probe_source(self):
        """oracle-check's source point (x, y)."""
        radius, angle = self.probe_at
        return (radius * np.cos(angle), radius * np.sin(angle))

    @property
    def march_key(self):
        """What fixes the march: plans with equal keys share one mesh and one march."""
        multi = (self.sources, self.series_terms) if self.sources else ()
        return (self.incs, self.mesh_sizes, self.grid, self.alpha, *multi)


def plan_run(command, cfg):
    """The checked RunPlan of command on cfg; for sweep, one (value, RunPlan)
    pair per value, every one checked before any value runs."""
    if command == "sweep":
        return _sweep_plans(cfg)
    probe, scan, src = cfg["probe"], cfg["scan"], cfg["sources"]
    if command == "forward":
        extra = dict(direction=tuple(cfg["background"]["direction"]))
    elif command == "locate-one":
        extra = dict(segments=default_segments(float(probe["distance"])), tol=float(probe["tol"]))
    elif command == "oracle-check":
        if probe["kind"] not in (None, "exact", "series"):
            raise ConfigError(f"probe kind must be 'exact' or 'series', got {probe['kind']!r}")
        radius, angle = float(probe["distance"]), np.deg2rad(float(probe["source_angle"]))
        _check_distance(radius)
        extra = dict(probe_at=(radius, angle), probe_kind=probe["kind"] or "exact")
    else:
        sources = source_configuration(src["kind"], n=src["n"], radius=float(src["radius"]))
        extra = dict(scan, region=tuple(scan["region"]), sources=sources)
    items = [
        Inclusion(tuple(i["center"]), float(i["eps"]), float(i["gamma"]), float(i.get("aspect", 1.0)))
        for i in cfg["inclusions"]
    ]
    incs = InclusionSet(items=tuple(items), gamma0=float(cfg["gamma0"]))
    return RunPlan(
        command=command,
        incs=incs,
        mesh_sizes=mesh_sizes(incs, float(cfg["mesh"]["h_far"]), cfg["mesh"]["h_near"]),
        grid=TimeGrid(cfg["time_steps"], float(cfg["t_final"])),
        alpha=float(cfg["alpha"]),
        series_terms=cfg["series_terms"],
        sigma=float(cfg["noise"]["sigma"]),
        seed=cfg["noise"]["seed"],
        **extra,
    )


def _sweep_plans(cfg):
    """The config's plan as a run of the sweep's locator, with the swept
    parameter replaced by each value: one (value, RunPlan) pair per value."""
    sweep = cfg["sweep"]
    values, algorithm, parameter = sweep["values"], sweep["algorithm"], sweep["parameter"]
    if not values:
        raise ConfigError("sweep.values is empty")
    if algorithm not in ("one", "multi"):
        raise ConfigError(f"sweep.algorithm must be 'one' or 'multi', got {algorithm!r}")
    if parameter not in ("eps", "sigma", "aspect"):
        raise ConfigError(f"sweep parameter must be eps, sigma or aspect, got {parameter!r}")
    base = plan_run(f"locate-{algorithm}", cfg)
    h_far, h_near = base.mesh_sizes[0], cfg["mesh"]["h_near"]

    def swept(value):
        if parameter == "sigma":
            return replace(base, sigma=float(value))
        items = [replace(inc, **{parameter: float(value)}) for inc in base.incs.items]
        incs = replace(base.incs, items=items)
        return replace(base, incs=incs, mesh_sizes=mesh_sizes(incs, h_far, h_near))

    return [(value, swept(value)) for value in values]


def _march(plan, coeffs):
    """Mesh and noiseless blocks (u, U) of the march that plan.march_key fixes:
    u and U of every source for locate-multi (march_sources), else u for the
    backgrounds a = e_1, e_2 as one block, column j for e_j, and U = a.x,
    which solves the background problem exactly in P1 for any gamma0 and so
    is not marched.  Only the source march uses coeffs."""
    mesh = build_mesh(plan.incs, *plan.mesh_sizes)
    if plan.sources:
        args = (plan.sources, plan.incs, plan.alpha, coeffs, mesh, plan.grid, plan.series_terms)
        return (mesh, *march_sources(*args))
    gamma0 = plan.incs.gamma0
    (u,) = march(mesh, plan.alpha, [plan.incs], lambda p: p, lambda p, t, nrm: gamma0 * nrm, plan.grid)
    return mesh, u, np.broadcast_to(mesh.vertices, u.shape)


def _each_march(plans, coeffs, take):
    """Call take(i, mesh, u, U) for each plan i, with the mesh and blocks
    of _march.  Plans with equal march keys share one march, the keys
    march in the order of their first plans, and a march is dropped
    before the next one is taken."""
    groups = {}
    for i, plan in enumerate(plans):
        groups.setdefault(plan.march_key, []).append(i)
    for group in groups.values():
        marched = _march(plans[group[0]], coeffs)
        for i in group:
            take(i, *marched)
        del marched


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


def cmd_forward(plan, out_dir):
    mesh = build_mesh(plan.incs, *plan.mesh_sizes)
    grid = plan.grid
    a = np.asarray(plan.direction, dtype=float)
    gamma0 = plan.incs.gamma0

    def u0(p):
        return p @ a

    def g(p, t, nrm):
        return gamma0 * (nrm @ a)

    # U = a.x solves the background problem exactly in P1 at every level
    U = SpaceTimeField(
        mesh, grid, np.broadcast_to(u0(mesh.vertices), (grid.n_steps + 1, len(mesh.vertices)))
    )

    def write_background():
        return {
            "mesh.txt": mesh.save(out_dir / "mesh.txt"),
            "background_trace.csv": boundary_restrict(U).to_csv(out_dir / "background_trace.csv"),
            "background_field.csv": U.to_csv(out_dir / "background_field.csv"),
        }

    def march_u():
        return solve_subdiffusion(mesh, plan.alpha, plan.incs, None, u0, g, grid)

    if not plan.incs.items:
        return write_background()
    # none of the background files depends on u: a worker writes them
    # while u marches on this thread, and a write error comes first
    files, u = side_by_side([write_background, march_u], caller=1)
    trace = boundary_restrict(u)
    if plan.sigma != 0.0:
        trace = add_noise(trace, plan.sigma, plan.seed)
    files["solution_trace.csv"] = trace.to_csv(out_dir / "solution_trace.csv")
    return files


def _locate_one_run(plan, coeffs, mesh, u, U):
    """Locate one inclusion from the mesh and blocks of _march, the
    backgrounds a = (1, 0) and (0, 1)."""
    diffs = boundary_diffs(mesh, plan.grid, u, U, sigma=plan.sigma, seed=plan.seed)
    return locate_one_inclusion(
        diffs, coeffs, plan.segments, n_terms=plan.series_terms, tol=plan.tol, gamma0=plan.incs.gamma0
    )


def _nearest_center(p, incs):
    return min(np.linalg.norm(p - np.array(i.center)) for i in incs.items)


def _center_error(rec_point, incs):
    return _nearest_center(rec_point, incs) if len(incs.items) == 1 else float("nan")


def cmd_locate_one(plan, out_dir):
    coeffs = fit_green_coeffs(plan.alpha)
    rec = _locate_one_run(plan, coeffs, *_march(plan, coeffs))
    err = _center_error(rec.P, plan.incs)
    digest = _write_csv(
        out_dir / "reconstruction.csv",
        "Px,Py,P1x,P1y,P2x,P2y,rho0,err",
        [list(rec.P) + list(rec.P1) + list(rec.P2) + [rec.rho0, err]],
    )
    return {"reconstruction.csv": digest}


def _locate_multi_runs(plans, coeffs):
    """Data matrix and indicator grid of each locate-multi plan, as
    (i, data, igrid) in the order _each_march takes the plans.

    The plans may differ in what the march and the noise read, not in
    the scan, so one KernelRows serves them all: a worker computes its
    rows ahead (KernelRows.ahead) while the marches run on this thread
    (side_by_side), from before the first mesh.  Each plan's data matrix
    is measured, and its k chosen, while its march is held; then one pass
    over the rows takes every plan's indicator (scan_indicators).  A plan
    whose k cannot be chosen, since its data carry no signal, joins no
    scan and gets that ReconstructionError in place of its grid (see
    _peaks).  Errors come in the order of a run without the worker.
    """
    first = plans[0]
    rows = KernelRows(
        first.sources, first.alpha, coeffs, region=first.region, resolution=first.resolution,
        n_terms=first.series_terms, t_final=first.grid.t_final, gamma0=first.incs.gamma0,
    )
    measured = {}

    def measure(i, mesh, u, U):
        plan = plans[i]
        data = measure_data_matrix(
            plan.sources, coeffs, mesh, plan.grid, u, U, plan.series_terms,
            gamma0=plan.incs.gamma0, sigma=plan.sigma, seed=plan.seed,
        )
        try:
            measured[i] = (data, truncation_level(data, plan.tau, plan.peaks, plan.k))
        except ReconstructionError as exc:
            measured[i] = (data, exc)

    # the worker pays: without it, multi-scan ops took 1.13x as long (9 of 10 pairs, 2-core VM)
    side_by_side([partial(_each_march, plans, coeffs, measure), rows.ahead])
    scans = [(data, k) for data, k in measured.values() if not isinstance(k, Exception)]
    grids = iter(scan_indicators(scans, rows) if scans else [])
    return [
        (i, data, k if isinstance(k, Exception) else next(grids)) for i, (data, k) in measured.items()
    ]


def _peaks(plan, igrid):
    """The peaks of plan in igrid, or the error _locate_multi_runs gave in
    place of the grid."""
    if isinstance(igrid, Exception):
        raise igrid
    return peak_extract(igrid, plan.peaks, min_separation=plan.min_separation)


def cmd_locate_multi(plan, out_dir):
    coeffs = fit_green_coeffs(plan.alpha)
    [(_, data, igrid)] = _locate_multi_runs([plan], coeffs)
    peaks = _peaks(plan, igrid)
    spectrum = [(j + 1, s) for j, s in enumerate(data.singular_values)]
    located = [[p[0], p[1], _nearest_center(p, plan.incs)] for p in peaks]
    return {
        "data_matrix.csv": _write_csv(out_dir / "data_matrix.csv", None, data.B),
        "singular_values.csv": _write_csv(out_dir / "singular_values.csv", "index,value", spectrum),
        "w_grid.csv": igrid.to_csv(out_dir / "w_grid.csv"),
        "peaks.csv": _write_csv(out_dir / "peaks.csv", "x,y,err", located),
    }


def cmd_oracle_check(plan, out_dir):
    """Boundary vs interior route for the measurement functional.

    probe.kind null or "exact" uses the exact profile (OracleKernelProbe),
    "series" the truncated expansion.  Always runs on noiseless traces;
    the two routes evaluate the same continuum quantity, so their
    relative difference reports the discretization quality of the
    pipeline.
    """
    gamma0, t_final, source = plan.incs.gamma0, plan.grid.t_final, plan.probe_source
    if plan.probe_kind == "exact":
        probe = OracleKernelProbe(d=2, alpha=plan.alpha, source=source, t_final=t_final, gamma0=gamma0)
    else:
        coeffs = fit_green_coeffs(plan.alpha)
        probe = KernelProbe(coeffs, plan.series_terms, source, t_final=t_final, gamma0=gamma0)
    mesh, u, U = _march(plan, None)
    rows = []
    for j, diff in enumerate(boundary_diffs(mesh, plan.grid, u, U)):
        via_boundary = measurement_boundary(diff, probe.normal_derivative, gamma0).value
        via_interior = measurement_interior(
            SpaceTimeField(mesh, plan.grid, u[..., j]), probe.gradient, plan.incs
        ).value
        denom = max(abs(via_boundary), abs(via_interior))
        rel = abs(via_boundary - via_interior) / denom if denom > 0 else 0.0
        rows.append((f"U{j + 1}", via_boundary, via_interior, rel))
    lines = ["background,boundary,interior,rel_diff\n"]
    lines += [f"{label},{b:.17g},{i:.17g},{r:.17g}\n" for label, b, i, r in rows]
    return {"equivalence.csv": write_hashed(out_dir / "equivalence.csv", lines)}


def cmd_sweep(plans, out_dir):
    """One sweep.csv row per (value, RunPlan) pair.  Values whose plans share
    a march key share one mesh and one march (_each_march), and all values
    of a multi sweep share one scan (_locate_multi_runs).  A value whose
    reconstruction fails gets a row of nan and a line on stderr, in the
    order the values are located; the sweep fails if every value does."""
    runs = [plan for _, plan in plans]
    one = runs[0].command == "locate-one"
    coeffs = fit_green_coeffs(runs[0].alpha)
    located = {}

    def locate(i, *run):
        # run: the mesh and blocks of the march, or the indicator grid
        value, plan = plans[i]
        try:
            if one:
                rec = _locate_one_run(plan, coeffs, *run)
                located[i] = (_center_error(rec.P, plan.incs), rec.rho0)
            else:
                peaks = _peaks(plan, run[-1])
                located[i] = (max(_nearest_center(p, plan.incs) for p in peaks), float(len(peaks)))
        except ReconstructionError as exc:
            # one failed value must not discard the rest of the sweep
            print(f"fracloc: sweep value {value!r} failed: {exc}", file=sys.stderr)

    if one:
        _each_march(runs, coeffs, locate)
    else:
        for i, _, igrid in _locate_multi_runs(runs, coeffs):
            locate(i, igrid)
    if not located:
        raise ReconstructionError(f"all {len(plans)} sweep values failed")
    rows = [(value, *located.get(i, (math.nan, math.nan))) for i, (value, _) in enumerate(plans)]
    header = "value,err,rho0" if one else "value,max_err,peaks_found"
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


@np.errstate(all="ignore")
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
        plan = plan_run(args.command, cfg)
        out_dir = Path(cfg["output_dir"])
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}")
        try:
            files = COMMANDS[args.command](plan, out_dir)
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
