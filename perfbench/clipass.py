"""Wall time of every CLI command on every bundled config it applies to.

One process: first the real coefficient fit, timed as
``greenfn.fit_s`` (it is ``lru_cache``d, so the commands after it reuse
it, as ops after the first do in any one process).  Then each command
runs once per bundled config under ``configs/`` it applies to, plus
``locate-multi`` on example43 with ``--jobs 2`` to show whether the
process pool pays for itself.  Each time is recorded as
``cli.<command>.<config>_s`` with the command's exit code.  Takes about
five minutes on a 2-core x86 box; it is not one of the benchmark's
workloads.
"""

import contextlib
import io
import json
import shutil
import time
from pathlib import Path


def applies(command, cfg):
    """Whether a bundled config is meant for ``command``."""
    n_inclusions = len(cfg["inclusions"])
    if command in ("locate-one", "oracle-check"):
        return n_inclusions == 1
    if command == "locate-multi":
        return n_inclusions >= 2
    if command == "sweep":
        return bool(cfg["sweep"]["values"])
    return True


COMMANDS = ("forward", "locate-one", "oracle-check", "locate-multi", "sweep")


def main(root, work, alpha, import_program, environment):
    cli = import_program()
    start = time.perf_counter()
    cli.fit_green_coeffs(alpha)
    fit_s = time.perf_counter() - start
    print(f"{'greenfn.fit_s':44s} {fit_s:9.3f} s", flush=True)
    out_root = Path(work) / "cli-pass"
    shutil.rmtree(out_root, ignore_errors=True)
    runs = []
    for cfg_path in sorted(Path(root, "configs").glob("*.json")):
        cfg = cli.load_config(cfg_path)
        for command in COMMANDS:
            if applies(command, cfg):
                runs.append((command, cfg_path, 1))
    runs.append(("locate-multi", Path(root, "configs", "example43.json"), 2))

    results = {}
    for command, cfg_path, jobs in runs:
        name = f"cli.{command}.{cfg_path.stem}{'.jobs2' if jobs == 2 else ''}_s"
        out_dir = out_root / name
        argv = [command, "--config", str(cfg_path), "--out", str(out_dir), "--jobs", str(jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = cli.main(argv)
            elapsed = time.perf_counter() - start
        results[name] = {"value": elapsed, "unit": "s", "exit_code": rc}
        print(f"{name:44s} {elapsed:9.3f} s  exit {rc}", flush=True)
    shutil.rmtree(out_root, ignore_errors=True)

    doc = {
        "greenfn.fit_s": {"value": fit_s, "unit": "s"},
        "metrics": results,
        "env": environment("cli-pass", None, None, None),
    }
    Path(work, "results").mkdir(parents=True, exist_ok=True)
    with open(Path(work, "results", "cli_pass.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(json.dumps(doc))
    return 0 if all(r["exit_code"] == 0 for r in results.values()) else 1
