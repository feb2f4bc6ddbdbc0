#!/usr/bin/env python3
"""fracloc benchmark: seeded CLI workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --cli-pass

Run from the root of a fracloc source tree.  One workload runs in this
process as in-process ``fracloc.cli.main([...])`` calls with
``--jobs 1``: a warm-up op, then back-to-back ops for ``--seconds``,
then output checks and two fresh-process reruns of the warm-up input.
The last stdout line is the JSON result; the lines before it print
every metric by name with its unit, and the environment.  ``--trace 1``
pairs each op with a rerun traced at every fracloc layer boundary and
reports per-layer metrics instead.  README.md explains the metrics.

Scratch files, the cached coefficient fit, results and traces live in
``.bench_build/perfbench/`` under the tree root.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

import coeffcache  # noqa: E402  (the script's own directory is on sys.path)
import verify  # noqa: E402
from spans import PER_LAYER, Tracer, op_metrics  # noqa: E402
from workloads import ALPHA, WORKLOADS  # noqa: E402

SETUP_PROBES = 2  # fresh-process setups besides this process's own
# nominal duration of one Calibrator run on a shared 2-core x86 VM outside
# its boosted phases; times are reported in these reference seconds
CAL_REF_S = 0.070
PROBE_TIMEOUT_S = 100
FAILED_EXIT_CODES = (2, 3, 4)
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "OMP_PROC_BIND",
    "OMP_PLACES",
)


class BenchmarkError(Exception):
    """The run cannot produce a result (as opposed to a failed check)."""


class Calibrator:
    """A fixed CPU-bound kernel whose wall time probes current CPU speed.

    The shared machines this runs on change speed by up to 1.6x in
    phases of seconds to minutes.  Dividing a wall time by the kernel's
    time measured around it gives reference seconds that compare across
    phases.  The kernel mixes the kinds of work fracloc's ops do, in the
    proportions that tracked op times best in sizing: a Python loop,
    array passes larger than the caches, sparse triangular solves and
    small numpy calls.  It uses no fracloc code, so a change to fracloc
    moves reference seconds as it moves wall seconds.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        n = 45
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        mat = (sp.kron(lap, eye) + sp.kron(eye, lap) + sp.eye(n * n)).tocsc()
        self._np = np
        self._lu = splu(mat)
        self._rhs = np.ones(n * n)
        self._small = np.linspace(1.0, 2.0, 2000)
        self._large = np.linspace(1.0, 2.0, 400_000)
        self()  # the first run pays page faults and lazy set-up: discard it

    def __call__(self):
        np = self._np
        start = time.perf_counter()
        acc = 0
        for i in range(180_000):
            acc += i * i % 7
        for i in range(5):
            np.exp(-self._large * (0.5 + 1e-3 * i)).sum()
        for _ in range(80):
            self._lu.solve(self._rhs)
        for i in range(300):
            np.exp(-self._small * (0.5 + 1e-3 * i)).sum()
        return time.perf_counter() - start


def tail_percentile(values, q=0.9, beyond=10):
    """The q-quantile, or None unless at least ``beyond`` samples exceed it."""
    n = len(values)
    if n * (1.0 - q) < beyond - 1e-9:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def import_program():
    """Import fracloc from this tree's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import fracloc.cli as cli

    if Path(cli.__file__).resolve().parents[1] != ROOT / "src":
        raise BenchmarkError(f"imported fracloc from {cli.__file__}, not {ROOT / 'src'}")
    return cli


def run_op(cli, command, cfg, out_dir):
    """One CLI op on ``cfg``, writing into ``out_dir``; (exit code, seconds)."""
    cfg = dict(cfg, output_dir=str(out_dir))
    cfg_path = Path(f"{out_dir}.json")
    cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    argv = [command, "--config", str(cfg_path), "--jobs", "1"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - start
    if rc not in (0,) + FAILED_EXIT_CODES:
        raise BenchmarkError(f"fracloc {' '.join(argv)} returned {rc}")
    if rc:
        print(f"op failed ({rc}): {err.getvalue().strip()}", file=sys.stderr)
    return rc, elapsed


def setup_probe(args):
    """Child process: time import + coefficient install + one op."""
    start = time.perf_counter()
    cli = import_program()
    coeffcache.install(coeffcache.load(args.coeffs))
    cfg = json.loads(Path(args.setup_probe).read_text(encoding="utf-8"))
    rc, _ = run_op(cli, args.command, cfg, Path(args.out))
    wall = time.perf_counter() - start
    print(json.dumps({"setup_s": wall, "cal_s": Calibrator()(), "rc": rc}))
    return 0


def spawn_probe(command, cfg_path, out_dir, coeffs_path):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(cfg_path),
         "--command", command, "--out", str(out_dir), "--coeffs", str(coeffs_path)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"setup probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def environment(workload, seed, seconds, trace):
    """Where and on what a result was measured."""
    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fracloc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


@dataclass
class Op:
    """One timed CLI op of the steady phase."""

    index: int
    cfg: dict
    out_dir: Path
    rc: int
    wall: float  # seconds
    ref: float  # reference seconds: wall scaled by the calibrations around it
    traced: bool


def _checked_errors(check, ops, problems):
    """Location errors of the successful ops; check failures go to problems."""
    errors = []
    for op in ops:
        if op.rc:
            continue
        try:
            verify.output_hashes(op.out_dir)
            err = check(op.cfg, op.out_dir)
        except verify.CheckFailed as exc:
            problems.append(str(exc))
            continue
        if err is not None:
            errors.append(err)
    return errors


def _layer_metrics(tracer, traced, untraced_p50):
    """Per-op means of the per-layer metrics, plus the tracing overhead."""
    per_op = []
    for op in traced:
        m = op_metrics(tracer, op.index)
        m["cli.output_bytes"] = _dir_bytes(op.out_dir)
        per_op.append(m)
    metrics = {
        name: {"value": statistics.fmean(m[name] for m in per_op), "unit": unit}
        for name, unit, _ in PER_LAYER
        if name != "trace.overhead_frac"
    }
    traced_p50 = statistics.median(op.ref for op in traced)
    metrics["trace.overhead_frac"] = {"value": traced_p50 / untraced_p50 - 1.0, "unit": "ratio"}
    return metrics


def run_workload(wl, seed, seconds, trace, coeffs_path, run_dir):
    """Set up, run and check one workload.

    Returns the result line, report lines, the reported-only figures as
    name -> (value, unit), and one row per steady-phase op.
    """
    cfg0 = wl.config(seed, 0)
    warm_dir = run_dir / "op0"

    start = time.perf_counter()
    cli = import_program()
    record = coeffcache.load(coeffs_path)
    coeffcache.install(record)
    rc, _ = run_op(cli, wl.command, cfg0, warm_dir)
    setup_wall = time.perf_counter() - start
    if rc:
        raise BenchmarkError(f"warm-up op exited with {rc}")
    calibrate = Calibrator()
    cal = calibrate()
    setups = [(setup_wall, cal)]  # (wall seconds, calibration seconds)

    tracer = Tracer() if trace else None
    ops = []
    steady = time.perf_counter()
    index = 1
    while time.perf_counter() - steady < seconds:
        cfg = wl.config(seed, index)
        # traced runs pair every op with an untraced rerun, in turn first
        order = ((False, True) if index % 2 else (True, False)) if trace else (False,)
        for traced in order:
            out_dir = run_dir / f"op{index}{'t' if traced else ''}"
            if traced:
                tracer.op = index
                tracer.install()
            try:
                rc, wall = run_op(cli, wl.command, cfg, out_dir)
            finally:
                if traced:
                    tracer.remove()
            cal_before, cal = cal, calibrate()
            ref = wall * CAL_REF_S / (0.5 * (cal_before + cal))
            ops.append(Op(index, cfg, out_dir, rc, wall, ref, traced))
        index += 1
    steady_wall = time.perf_counter() - steady
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # output checks, outside the timed phase
    problems = []
    check = verify.CHECKS[wl.command]
    try:
        warm_hashes = verify.output_hashes(warm_dir)
        check(cfg0, warm_dir)
    except verify.CheckFailed as exc:
        problems.append(str(exc))
        warm_hashes = None
    errors = _checked_errors(check, ops, problems)

    # fresh-process reruns of the warm-up input: setup samples and a
    # byte-for-byte determinism check
    for k in range(1 if trace else SETUP_PROBES):
        probe_dir = run_dir / f"probe{k}"
        probe = spawn_probe(wl.command, Path(f"{warm_dir}.json"), probe_dir, coeffs_path)
        setups.append((probe["setup_s"], probe["cal_s"]))
        try:
            if probe["rc"] or verify.output_hashes(probe_dir) != warm_hashes:
                problems.append(f"rerun of the warm-up input into {probe_dir} differs")
        except verify.CheckFailed as exc:
            problems.append(str(exc))

    failed = sum(1 for op in ops if op.rc)
    untraced = [op for op in ops if not op.traced]
    ok = [op for op in untraced if not op.rc]
    if not ok:
        raise BenchmarkError(f"all {len(ops)} ops failed")
    op_p50 = statistics.median(op.ref for op in ok)
    lines = [
        f"steady ops: {len(ops)} in {steady_wall:.3f} s wall; untraced op wall p50"
        f" {statistics.median(op.wall for op in ok):.4f} s; calibration p50"
        f" {statistics.median(op.wall / op.ref for op in ok) * CAL_REF_S * 1e3:.1f} ms"
        f" (reference {CAL_REF_S * 1e3:.0f} ms)"
    ]
    if trace:
        traced = [op for op in ops if op.traced]
        metrics = _layer_metrics(tracer, traced, op_p50)
        WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
        trace_path = WORK / "traces" / f"{wl.name}-seed{seed}.json.gz"
        tracer.write(trace_path, {"workload": wl.name, "seed": seed, "traced_ops": len(traced)})
        lines.append(f"traced ops: {len(traced)} (per-op means below); spans in {trace_path}")
    else:
        values = {
            "setup_s": statistics.median(w * CAL_REF_S / c for w, c in setups),
            "op_p50_s": op_p50,
            "ops_per_s": len(ok) / sum(op.ref for op in untraced),
            "rss_peak_mb": rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        lines.append(
            "setup wall / calibration: "
            + ", ".join(f"{w:.3f} s / {c * 1e3:.1f} ms" for w, c in setups)
            + f" (this process, then {len(setups) - 1} fresh processes)"
        )

    # reported but not part of the JSON metrics: see README.md
    info = {
        "fail_frac": (failed / len(ops), "ratio"),
        "op_p90_s": (tail_percentile([op.ref for op in ok]), "s"),
        "err_p50": (statistics.median(errors) if errors else None, "length"),
        "err_max": (max(errors) if errors else None, "length"),
        "fit_s": (record["fit_s"], "s"),
    }
    rows = [[op.index, op.rc, op.wall, op.ref, op.traced] for op in ops]
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return result, lines, info, rows


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cli-pass", action="store_true",
                        help="time every CLI command on every bundled config")
    # internal: child-process entry points
    parser.add_argument("--build-coeffs", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    parser.add_argument("--command", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--coeffs", help=argparse.SUPPRESS)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "fracloc" / "__init__.py").is_file():
        print(f"perfbench: no fracloc source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.build_coeffs:
        import_program()
        coeffcache.build(args.build_coeffs, ALPHA)
        return 0
    if args.setup_probe:
        return setup_probe(args)
    if args.cli_pass:
        import clipass

        return clipass.main(ROOT, WORK, ALPHA, import_program, environment)
    if args.workload is None:
        build_parser().error("--workload is required")

    wl = WORKLOADS[args.workload]
    coeffs_path = coeffcache.ensure(ROOT, WORK, ALPHA, Path(__file__).resolve())
    run_dir = WORK / f"run-{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        result, lines, info, rows = run_workload(
            wl, args.seed, args.seconds, args.trace, coeffs_path, run_dir
        )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = environment(wl.name, args.seed, args.seconds, args.trace)

    print(f"workload {wl.name} ({wl.command}), seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in info.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown} {unit}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print("env " + json.dumps(env, sort_keys=True))
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    with open(WORK / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(
            {
                "result": result,
                "report": lines,
                "info": info,
                "ops": {"fields": ["index", "rc", "wall_s", "ref_s", "traced"], "rows": rows},
                "env": env,
            },
            fh,
            indent=1,
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
