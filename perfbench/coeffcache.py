"""Per-checkout cache of the kernel coefficient fit.

``fracloc.greenfn.fit_green_coeffs`` regresses the series coefficients
against an mpmath contour oracle, about 80 s per process on a 2-core
x86 box.  Paying that in every benchmark run would leave no time to
measure anything else, so the fit runs once per checkout, in a child
process, and its result is pickled under ``.bench_build/``.  The key
hashes ``greenfn.py``, so any change to the fit code refits.

``install`` then makes every fracloc module that binds
``fit_green_coeffs`` return the stored result for the exact call that
produced it, and defer to the real function for any other arguments.
The stored fit time is reported with every result.
"""

import functools
import hashlib
import pickle
import subprocess
import sys
import time
from pathlib import Path

BUILD_TIMEOUT_S = 850


def cache_path(root, work, alpha):
    source = (Path(root) / "src" / "fracloc" / "greenfn.py").read_bytes()
    key = hashlib.sha256(source + repr(float(alpha)).encode()).hexdigest()[:16]
    return Path(work) / f"coeffs-{key}.pkl"


def build(path, alpha):
    """Run the fit in this process and store it (child-process entry)."""
    import fracloc.greenfn as greenfn

    fit = getattr(greenfn, "fit_green_coeffs", None)
    start = time.perf_counter()
    coeffs = fit(float(alpha)) if fit is not None else None
    record = {"alpha": float(alpha), "coeffs": coeffs, "fit_s": time.perf_counter() - start}
    tmp = Path(f"{path}.tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(record, fh)
    tmp.replace(path)


def ensure(root, work, alpha, run_py):
    """Path of the cached fit, fitting in a child process when absent."""
    path = cache_path(root, work, alpha)
    if not path.exists():
        Path(work).mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, str(run_py), "--build-coeffs", str(path)],
            check=True,
            timeout=BUILD_TIMEOUT_S,
        )
    return path


def load(path):
    with open(path, "rb") as fh:
        return pickle.load(fh)


def install(record):
    """Serve ``fit_green_coeffs(alpha)`` from ``record`` in every fracloc module."""
    if record["coeffs"] is None:
        return
    greenfn = sys.modules["fracloc.greenfn"]
    original = greenfn.fit_green_coeffs
    alpha, coeffs = record["alpha"], record["coeffs"]

    @functools.wraps(original)
    def fit_green_coeffs(*args, **kwargs):
        if not kwargs and len(args) == 1 and args[0] == alpha:
            return coeffs
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "fracloc" or name.startswith("fracloc."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, fit_green_coeffs)
