"""Checks of one op's outputs against its generated config.

Each check returns the op's location error (None for ``forward``) or
raises ``CheckFailed``; an op whose outputs fail a check makes the whole
benchmark run incorrect, unlike an op that ends in a FraclocError exit
code, which counts as a failed op.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

# U = a.x is exact in P1, so the background trace matches it to rounding
BACKGROUND_TOL = 1e-9
# the CLI's own err column must agree with the error computed here
ERR_COLUMN_TOL = 1e-9
# every located point must lie this close to a true center: centers are
# at least 0.3 apart, so a point within 0.1 names its inclusion without
# ambiguity (the largest error seen in sizing was 0.06)
LOCATION_TOL = 0.1


class CheckFailed(Exception):
    pass


def _rows(path):
    with open(path, newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(v) for v in row] for row in reader]


def output_hashes(out_dir):
    """The manifest's output digests, after checking each against its file."""
    out_dir = Path(out_dir)
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        hashes = json.load(fh)["outputs"]
    if not hashes:
        raise CheckFailed(f"{out_dir}: manifest lists no outputs")
    for name, digest in hashes.items():
        actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        if actual != digest:
            raise CheckFailed(f"{out_dir / name}: sha256 {actual} != manifest {digest}")
    return hashes


def _centers(cfg):
    return [tuple(inc["center"]) for inc in cfg["inclusions"]]


def check_locate_one(cfg, out_dir):
    """Distance of the reconstructed point to the (single) true center."""
    header, rows = _rows(Path(out_dir) / "reconstruction.csv")
    if len(rows) != 1:
        raise CheckFailed(f"{out_dir}: reconstruction.csv has {len(rows)} rows")
    row = dict(zip(header, rows[0]))
    (center,) = _centers(cfg)
    err = math.dist((row["Px"], row["Py"]), center)
    if not abs(err - row["err"]) <= ERR_COLUMN_TOL:
        raise CheckFailed(f"{out_dir}: err column {row['err']} != {err}")
    if not err <= LOCATION_TOL:
        raise CheckFailed(f"{out_dir}: location error {err:.4g} exceeds {LOCATION_TOL}")
    return err


def check_locate_multi(cfg, out_dir):
    """Worst peak's distance to its nearest true center."""
    _, rows = _rows(Path(out_dir) / "peaks.csv")
    centers = _centers(cfg)
    if len(rows) != len(centers):
        raise CheckFailed(f"{out_dir}: {len(rows)} peaks for {len(centers)} inclusions")
    errs = []
    for x, y, err_col in rows:
        err = min(math.dist((x, y), c) for c in centers)
        if not abs(err - err_col) <= ERR_COLUMN_TOL:
            raise CheckFailed(f"{out_dir}: err column {err_col} != {err}")
        errs.append(err)
    for c in centers:
        miss = min(math.dist((x, y), c) for x, y, _ in rows)
        if not miss <= LOCATION_TOL:
            raise CheckFailed(f"{out_dir}: no peak within {LOCATION_TOL} of center {c}")
    return max(errs)


def check_forward(cfg, out_dir):
    """The background trace equals a.x at every boundary node and level."""
    out_dir = Path(out_dir)
    a = cfg["background"]["direction"]
    _, rows = _rows(out_dir / "background_trace.csv")
    if not rows:
        raise CheckFailed(f"{out_dir}: empty background trace")
    for row in rows:
        exact = a[0] * math.cos(row[0]) + a[1] * math.sin(row[0])
        worst = max(abs(v - exact) for v in row[1:])
        if not worst <= BACKGROUND_TOL:
            raise CheckFailed(
                f"{out_dir}: background trace off a.x by {worst:.3g} at angle {row[0]:.6f}"
            )
    for name in ("mesh.txt", "background_field.csv", "solution_trace.csv"):
        if not (out_dir / name).is_file():
            raise CheckFailed(f"{out_dir}: missing {name}")
    return None


CHECKS = {
    "locate-one": check_locate_one,
    "locate-multi": check_locate_multi,
    "forward": check_forward,
}
