"""Run the excomp CLI with spans recorded at each layer boundary.

    python perfbench/traced.py SPANS.json <excomp arguments...>

behaves like `python -m excomp <arguments>` and also writes SPANS.json.
Wrappers are installed from outside on the module attributes that callers
look up (`dgeom.clip`, `harness.quotient_curves`, the `cg` and `splu` names
that dgeom imported, the ModelSpace methods, ...), so nothing under src/
changes.  A name that a later version of excomp no longer has is skipped
and its metrics read zero.

A span is [id, parent id, thread, name, start, end, attrs].  The parent is
the innermost open span on the same thread; a task handed to the harness
thread pool takes the span that submitted it as parent.  Spans stay in
memory and are written once, when the CLI returns.  Times are read with
time.perf_counter, so they include any time the host steals.
`layer_metrics` turns the spans into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1][0] if stack else getattr(self._local, "adopted", None)

    def call(self, name, fn, args, kwargs, attrs=None):
        """Call fn inside a span; attrs may be filled in by the caller."""
        stack = self._stack()
        span = [next(self._ids), self.current(), threading.get_ident(), name, 0.0, 0.0,
                {} if attrs is None else attrs]
        stack.append(span)
        span[4] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            stack.pop()
            self.spans.append(span)  # list.append is atomic under the GIL

    def adopt(self, parent, fn):
        """fn, run on another thread as a child of the span `parent`."""
        @functools.wraps(fn)
        def adopted(*args, **kwargs):
            self._local.adopted = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.adopted = None
        return adopted

    def dump(self, path):
        threads = {}
        rows = [[s[0], s[1], threads.setdefault(s[2], len(threads)), s[3], s[4], s[5], s[6]]
                for s in sorted(self.spans, key=lambda s: s[0])]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype, arr.shape)).encode())
        h.update(arr.view(np.uint8).ravel())
    return h.hexdigest()


def _matrix_digest(A, *extra) -> str:
    A = A.tocsr()
    return _digest(A.indptr, A.indices, A.data, *extra)


def _plain(tracer, name):
    def make(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return traced
    return make


def _with_attrs(tracer, name, before=None, after=None):
    """Span whose attrs are filled in from the arguments by name (before the
    call, untimed) and from the result (after it)."""
    def make(fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            attrs = {}
            if before is not None:
                before(attrs, bound.arguments)
            result = tracer.call(name, fn, args, kwargs, attrs)
            if after is not None:
                after(attrs, bound.arguments, result)
            return result
        return traced
    return make


def _replace(owner, attr, make):
    fn = getattr(owner, attr, None)
    if callable(fn):
        setattr(owner, attr, make(fn))


def _clip_before(attrs, a):
    mask = a["face_mask"]
    if mask is None:
        attrs["faces_in"] = len(a["mesh"].faces)
        mask_key = "all"
    else:
        mask = np.asarray(mask)
        attrs["faces_in"] = int(mask.sum()) if mask.dtype == bool else len(mask)
        mask_key = _digest(mask)
    attrs["key"] = [float(a["rho"]), float(a["R"]), mask_key]


def _clip_after(attrs, a, region):
    attrs["faces_out"] = len(region.faces)


def _mesh_faces(attrs, a, mesh):
    attrs["faces"] = len(mesh.faces)


def _curve_radii(attrs, a, curve):
    attrs["radii"] = len(curve.grid)


def _load_before(attrs, a):
    attrs["bytes"] = os.path.getsize(a["path"])


def _save_after(attrs, a, result):
    attrs["bytes"] = os.path.getsize(a["path"])


class _LUProxy:
    """SuperLU object whose solves are spans (the inverse-power steps)."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._tracer.call("dgeom.lu_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def install(tracer: Tracer):
    from excomp import dgeom, harness, modelspace, surfaces, wexpr

    for attr in ("tessellate", "load_mesh"):
        _replace(surfaces, attr, _with_attrs(
            tracer, f"surfaces.{attr}",
            before=_load_before if attr == "load_mesh" else None, after=_mesh_faces))
    _replace(surfaces.TriMesh, "save_off",
             _with_attrs(tracer, "surfaces.save_off", after=_save_after))

    _replace(dgeom, "clip", _with_attrs(tracer, "dgeom.clip", _clip_before, _clip_after))
    for attr in ("flux", "region_area", "assemble_laplacian", "solve_dirichlet",
                 "capacity_discrete", "exit_time_discrete", "first_eigenvalue_estimate",
                 "end_components"):
        _replace(dgeom, attr, _plain(tracer, f"dgeom.{attr}"))

    def traced_cg(real):
        @functools.wraps(real)
        def cg(A, b, *args, callback=None, **kwargs):
            iters = [0]

            def count(xk):
                iters[0] += 1
                if callback is not None:
                    callback(xk)

            attrs = {"n": int(A.shape[0]), "key": ["cg", _matrix_digest(A, b)]}
            try:
                return tracer.call("dgeom.cg", real, (A, b) + args,
                                   dict(kwargs, callback=count), attrs)
            finally:
                attrs["iters"] = iters[0]
        return cg

    def traced_splu(real):
        @functools.wraps(real)
        def splu(A, *args, **kwargs):
            attrs = {"nnz": int(A.nnz), "key": ["lu", _matrix_digest(A)]}
            lu = tracer.call("dgeom.splu", real, (A,) + args, kwargs, attrs)
            attrs["fill"] = int(lu.L.nnz + lu.U.nnz)
            return _LUProxy(tracer, lu)
        return splu

    _replace(dgeom, "cg", traced_cg)
    _replace(dgeom, "splu", traced_splu)

    for attr in ("verify_isoperimetric", "volume_flux_tail",
                 "comparison_gates", "gate_verdicts", "verify_capacity_sandwich",
                 "verify_euclidean_sandwich", "exit_time_comparison", "ends_bound",
                 "tone_report", "_curvature_gate", "_balance_gate", "_monotone_w_gate"):
        _replace(harness, attr, _plain(tracer, f"harness.{attr}"))
    _replace(harness, "quotient_curves", _with_attrs(
        tracer, "harness.quotient_curves", after=_curve_radii))

    pool = getattr(harness, "ThreadPoolExecutor", None)
    if pool is not None:
        class TracedPool(pool):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt(tracer.current(), fn), *args, **kwargs)
        harness.ThreadPoolExecutor = TracedPool

    for attr, value in list(vars(modelspace.ModelSpace).items()):
        if not attr.startswith("_") and inspect.isfunction(value):
            _replace(modelspace.ModelSpace, attr, _plain(tracer, f"modelspace.{attr}"))

    _replace(wexpr, "evaluate", _plain(tracer, "wexpr.evaluate"))


# ---------------------------------------------------------------------------
# spans -> per-layer metrics

# span name -> metric holding the sum of its self time
_SELF_TIME = {
    "surfaces.tessellate": "surfaces.tessellate_s",
    "surfaces.load_mesh": "surfaces.load_mesh_s",
    "surfaces.save_off": "surfaces.save_off_s",
    "dgeom.clip": "dgeom.clip_s",
    "dgeom.flux": "dgeom.flux_s",
    "dgeom.region_area": "dgeom.area_s",
    "dgeom.assemble_laplacian": "dgeom.assemble_s",
    "dgeom.solve_dirichlet": "dgeom.solve_s",
    "dgeom.capacity_discrete": "dgeom.capacity_s",
    "dgeom.exit_time_discrete": "dgeom.exit_time_s",
    "dgeom.cg": "dgeom.cg_s",
    "dgeom.first_eigenvalue_estimate": "dgeom.eigen_s",
    "dgeom.splu": "dgeom.lu_s",
    "dgeom.lu_solve": "dgeom.lu_solve_s",
    "dgeom.end_components": "dgeom.ends_s",
    "harness.quotient_curves": "harness.quotient_curves_s",
    "cli.main": "cli.self_s",
}

# per-layer metric name -> unit, in report order
UNITS = {
    "surfaces.tessellate_s": "s", "surfaces.load_mesh_s": "s", "surfaces.off_bytes_read": "B",
    "surfaces.save_off_s": "s", "surfaces.off_bytes_written": "B", "surfaces.mesh_faces": "count",
    "dgeom.clip_s": "s", "dgeom.clip_calls": "count", "dgeom.clip_faces_in": "count",
    "dgeom.clip_faces_out": "count", "dgeom.clip_distinct_ratio": "1",
    "dgeom.flux_s": "s", "dgeom.flux_calls": "count", "dgeom.area_s": "s",
    "dgeom.assemble_s": "s", "dgeom.capacity_s": "s", "dgeom.exit_time_s": "s",
    "dgeom.solve_s": "s", "dgeom.cg_s": "s", "dgeom.cg_calls": "count",
    "dgeom.cg_iters": "count", "dgeom.cg_free_dofs": "count", "dgeom.solve_distinct_ratio": "1",
    "dgeom.eigen_s": "s", "dgeom.eigen_iters": "count", "dgeom.lu_s": "s",
    "dgeom.lu_solve_s": "s", "dgeom.lu_calls": "count", "dgeom.lu_matrix_nnz": "count",
    "dgeom.lu_fill_nnz": "count", "dgeom.ends_s": "s",
    "harness.self_s": "s", "harness.quotient_curves_s": "s", "harness.curve_radii": "count",
    "harness.gate_calls": "count",
    "modelspace.s": "s", "modelspace.calls": "count", "modelspace.balance_check_calls": "count",
    "wexpr.evaluate_calls": "count",
    "cli.self_s": "s", "cli.report_bytes": "B",
    "trace.overhead_s": "s",
}


def self_times(spans) -> dict:
    """Span id -> duration minus the time of its children on the same thread."""
    own = {s[0]: s[5] - s[4] for s in spans}
    thread = {s[0]: s[2] for s in spans}
    for sid, parent, tid, _name, t0, t1, _attrs in spans:
        if parent in own and thread[parent] == tid:
            own[parent] -= t1 - t0
    return own


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced invocation (all but cli.report_bytes
    and trace.overhead_s, which the benchmark measures from outside)."""
    own = self_times(spans)
    names = {s[0]: s[3] for s in spans}
    out = {name: 0.0 if unit == "s" else 0 for name, unit in UNITS.items()}
    clip_keys, solve_keys = set(), set()
    for sid, parent, _tid, name, _t0, _t1, attrs in spans:
        if name in _SELF_TIME:
            out[_SELF_TIME[name]] += own[sid]
        elif name.startswith("harness."):
            out["harness.self_s"] += own[sid]
        elif name.startswith("modelspace."):
            out["modelspace.s"] += own[sid]
            out["modelspace.calls"] += 1
        if name == "dgeom.clip":
            out["dgeom.clip_calls"] += 1
            out["dgeom.clip_faces_in"] += attrs["faces_in"]
            out["dgeom.clip_faces_out"] += attrs.get("faces_out", 0)
            clip_keys.add(json.dumps(attrs["key"]))
        elif name == "dgeom.flux":
            out["dgeom.flux_calls"] += 1
        elif name == "dgeom.cg":
            out["dgeom.cg_calls"] += 1
            out["dgeom.cg_iters"] += attrs["iters"]
            out["dgeom.cg_free_dofs"] += attrs["n"]
            solve_keys.add(json.dumps(attrs["key"]))
        elif name == "dgeom.splu":
            out["dgeom.lu_calls"] += 1
            out["dgeom.lu_matrix_nnz"] += attrs["nnz"]
            out["dgeom.lu_fill_nnz"] += attrs.get("fill", 0)
            solve_keys.add(json.dumps(attrs["key"]))
        elif name == "dgeom.lu_solve" and names.get(parent) == "dgeom.first_eigenvalue_estimate":
            out["dgeom.eigen_iters"] += 1
        elif name in ("surfaces.tessellate", "surfaces.load_mesh"):
            out["surfaces.mesh_faces"] += attrs.get("faces", 0)
            out["surfaces.off_bytes_read"] += attrs.get("bytes", 0)
        elif name == "surfaces.save_off":
            out["surfaces.off_bytes_written"] += attrs.get("bytes", 0)
        elif name == "harness.quotient_curves":
            out["harness.curve_radii"] += attrs.get("radii", 0)
        elif name == "harness._balance_gate":  # every gate set has one balance gate
            out["harness.gate_calls"] += 1
        elif name == "modelspace.balance_check":
            out["modelspace.balance_check_calls"] += 1
        elif name == "wexpr.evaluate":
            out["wexpr.evaluate_calls"] += 1
    if out["dgeom.clip_calls"]:
        out["dgeom.clip_distinct_ratio"] = len(clip_keys) / out["dgeom.clip_calls"]
    solves = out["dgeom.cg_calls"] + out["dgeom.lu_calls"]
    if solves:
        out["dgeom.solve_distinct_ratio"] = len(solve_keys) / solves
    return out


def median_metrics(per_run: list) -> dict:
    """Median over invocations of every metric of `layer_metrics`."""
    return {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from excomp import cli
    try:
        return tracer.call("cli.main", cli.main, (cli_args,), {})
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
