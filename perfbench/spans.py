"""Span tracing around the public functions of every fracloc module.

A ``Tracer`` replaces each traced callable with a wrapper that records a
span (name, start, end, parent, op) and puts the original back on
``remove()``.  A wrapper is installed on every fracloc module namespace
that binds the traced object, so a function imported into another
module (``solve_subdiffusion`` in ``forward``, ``cli`` and
``locate_multi``) is traced wherever it is called from.

Per-op layer metrics are derived from the spans: a span's self time is
its duration minus the part of that interval its child spans cover.
"""

import gzip
import hashlib
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "greenfn", "mesh", "forward", "measure", "locate_one", "locate_multi")

# Layer boundaries that are not module-level functions of their module:
# (module, attribute path).  splu is scipy's, bound in fracloc.forward.
EXTRA = (
    ("forward", "SpaceTimeField.to_csv"),
    ("forward", "BoundaryTrace.to_csv"),
    ("forward", "splu"),
    ("mesh", "Mesh.save"),
    ("measure", "KernelProbe.normal_derivative"),
    ("locate_multi", "DataMatrix.__post_init__"),
)

# Stage metrics are inclusive wall times of one span; every other
# ``_s`` metric below is a sum of self times.
STAGES = {
    "cli.op_s": "cli.main",
    "locate_one.locate_s": "locate_one.locate_one_inclusion",
    "locate_multi.data_matrix_s": "locate_multi.build_data_matrix",
    "locate_multi.scan_s": "locate_multi.scan_indicator",
}

SELF_TIMES = {
    "greenfn.fit_s": ("greenfn.fit_green_coeffs",),
    "greenfn.s_kernel_s": ("greenfn.s_kernel",),
    "greenfn.kernel_s": (
        "greenfn.approx_fundamental",
        "greenfn.grad_approx_fundamental",
        "greenfn.reduced_green_series",
    ),
    "mesh.build_s": ("mesh.build_mesh",),
    "forward.march_s": ("forward.solve_subdiffusion", "forward.solve_background"),
    "forward.assemble_s": ("forward.assemble_matrices",),
    "forward.factor_s": ("forward.splu",),
    "forward.load_s": ("forward.neumann_load",),
    "forward.write_s": (
        "forward.SpaceTimeField.to_csv",
        "forward.BoundaryTrace.to_csv",
        "mesh.Mesh.save",
    ),
    "measure.boundary_s": ("measure.measurement_boundary",),
    "measure.probe_s": ("measure.KernelProbe.normal_derivative",),
    "locate_multi.g_matrix_s": ("locate_multi.g_matrix",),
    "locate_multi.svd_s": ("locate_multi.DataMatrix.__post_init__",),
    "locate_multi.peaks_s": ("locate_multi.peak_extract",),
}

CALLS = {
    "greenfn.fit_calls": ("greenfn.fit_green_coeffs",),
    "greenfn.s_kernel_calls": ("greenfn.s_kernel",),
    "greenfn.kernel_calls": ("greenfn.approx_fundamental", "greenfn.grad_approx_fundamental"),
    "mesh.build_calls": ("mesh.build_mesh",),
    "forward.marches": ("forward.solve_subdiffusion",),
    "forward.factorizations": ("forward.splu",),
    "forward.load_calls": ("forward.neumann_load",),
    "measure.boundary_calls": ("measure.measurement_boundary",),
    "measure.probe_calls": ("measure.KernelProbe.normal_derivative",),
    "locate_one.probe_value_calls": ("locate_one.probe_value",),
    "locate_multi.g_matrix_calls": ("locate_multi.g_matrix",),
}


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _size(value):
    return int(getattr(value, "size", 1)) if value is not None else 0


def _file_bytes(path):
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


def _conductivity_key(args, kwargs):
    mesh = _arg(args, kwargs, 0, "mesh")
    gamma = _arg(args, kwargs, 1, "gamma_tri")
    digest = hashlib.sha1(gamma.tobytes()).hexdigest() if gamma is not None else ""
    return (id(mesh), digest)


# Quantities recorded at a boundary besides its span: name -> (counter,
# extractor(args, kwargs, result)).  Counters summing over an op are
# numbers; "conductivities" collects the distinct arrays assembled.
QUANTITIES = {
    "greenfn.s_kernel": ("greenfn.s_kernel_points", lambda a, k, r: _size(_arg(a, k, 3, "y"))),
    "mesh.build_mesh": ("mesh.nodes", lambda a, k, r: len(r.vertices)),
    "forward.solve_subdiffusion": (
        "forward.steps",
        lambda a, k, r: _arg(a, k, 6, "grid").n_steps,
    ),
    "forward.SpaceTimeField.to_csv": ("forward.write_bytes", lambda a, k, r: _file_bytes(a[1])),
    "forward.BoundaryTrace.to_csv": ("forward.write_bytes", lambda a, k, r: _file_bytes(a[1])),
    "mesh.Mesh.save": ("forward.write_bytes", lambda a, k, r: _file_bytes(a[1])),
    "forward.assemble_matrices": ("conductivities", lambda a, k, r: _conductivity_key(a, k)),
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(n, "s", "lower") for n in SELF_TIMES]
    + [(n, "s", "lower") for n in STAGES]
    + [(n, "count", "lower") for n in CALLS]
    + [
        ("greenfn.s_kernel_points", "count", "lower"),
        ("mesh.nodes", "count", "lower"),
        ("forward.steps", "count", "lower"),
        ("forward.write_bytes", "bytes", "lower"),
        ("forward.factor_reuse", "ratio", "higher"),
        ("cli.self_s", "s", "lower"),
        ("cli.output_bytes", "bytes", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


def _modules():
    """Every loaded fracloc module, package included."""
    return [m for name, m in sys.modules.items() if name == "fracloc" or name.startswith("fracloc.")]


def _targets():
    """(span name, owner, attribute, original) for everything to trace."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"fracloc.{layer}")
        for attr, obj in vars(mod).items():
            # plain functions and lru_cache wrappers, not classes
            if (
                not attr.startswith("_")
                and callable(obj)
                and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == mod.__name__
            ):
                out.append((f"{layer}.{attr}", mod, attr, obj))
    for layer, path in EXTRA:
        owner = importlib.import_module(f"fracloc.{layer}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is not None and attr in vars(owner):
            out.append((f"{layer}.{path}", owner, attr, vars(owner)[attr]))
    return out


class Tracer:
    """In-memory spans of the ops run while the wrappers are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op]
        self.quantities = []  # (op, counter, value)
        self.op = None
        self._stack = []
        self._installed = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, quantities = self.spans, self._stack, self.quantities
        clock = time.perf_counter
        extra = QUANTITIES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                quantities.append((tracer.op, extra[0], extra[1](args, kwargs, result)))
            return result

        for key in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, key, getattr(fn, key, None))
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target in every namespace that binds it."""
        namespaces = [vars(m) for m in _modules()]
        for name, owner, attr, original in _targets():
            wrapper = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))
            for ns in namespaces:
                for key, val in list(ns.items()):
                    if val is original and ns is not vars(owner):
                        ns[key] = wrapper
                        self._installed.append((ns, key, original))

    def remove(self):
        """Put every original back; safe to call twice."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def write(self, path, meta):
        """All spans, gzip-compressed JSON with an interned name table."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "meta": meta,
            "fields": ["name", "start", "end", "parent", "op"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans):
    """Self time of each span: duration minus the union of its children.

    ``spans`` is a list of (name, start, end, parent index, ...) records
    whose parent index refers into the same list (-1 for a root).
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[1], s[2]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted((max(spans[c][1], lo), min(spans[c][2], hi)) for c in children[i]):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((hi - lo) - covered)
    return out


def op_metrics(tracer, op):
    """Per-layer metrics of one traced op (everything but the overhead)."""
    idx = [i for i, s in enumerate(tracer.spans) if s[4] == op]
    local = {i: k for k, i in enumerate(idx)}
    spans = [
        (s[0], s[1], s[2], local.get(s[3], -1))
        for s in (tracer.spans[i] for i in idx)
    ]
    selfs = self_times(spans)
    by_name_self, by_name_total, by_name_calls = {}, {}, {}
    for s, st in zip(spans, selfs):
        by_name_self[s[0]] = by_name_self.get(s[0], 0.0) + st
        by_name_total[s[0]] = by_name_total.get(s[0], 0.0) + (s[2] - s[1])
        by_name_calls[s[0]] = by_name_calls.get(s[0], 0) + 1
    m = {}
    for metric, names in SELF_TIMES.items():
        m[metric] = sum(by_name_self.get(n, 0.0) for n in names)
    for metric, name in STAGES.items():
        m[metric] = by_name_total.get(name, 0.0)
    for metric, names in CALLS.items():
        m[metric] = sum(by_name_calls.get(n, 0) for n in names)
    m["cli.self_s"] = sum(v for n, v in by_name_self.items() if n.startswith("cli."))
    for counter in ("greenfn.s_kernel_points", "mesh.nodes", "forward.steps", "forward.write_bytes"):
        m[counter] = 0
    conductivities = set()
    for q_op, counter, value in tracer.quantities:
        if q_op != op:
            continue
        if counter == "conductivities":
            conductivities.add(value)
        else:
            m[counter] += value
    n_factor = m["forward.factorizations"]
    m["forward.factor_reuse"] = len(conductivities) / n_factor if n_factor else 0.0
    return m
