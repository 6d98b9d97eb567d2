"""Span tracer of the benchmark's traced run.

`Tracer.install()` wraps the public relspan functions listed in TARGETS at
every module-level name bound to them (modules import names directly, so
`coalg` holds its own `kernel_basis_sparse` and `cli` its own
`relative_pullback`), and the listed methods on their class.  `remove()` puts
every original back.  Wrappers record nothing outside a job span, so the
benchmark's own checks between jobs stay out of the trace.

Each span records its name, start, end and parent; spans stay in memory until
the run ends.  Work the tracer does itself (the computed counts) is kept off
every span: a span's effective time is its wall time minus the bookkeeping
done while it was open, and a layer's self time is the effective time during
which one of its spans is the innermost open one.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from array import array
from collections import Counter

clock = time.thread_time   # the clock of the job spans in run.py

TIMED, COUNTED = "timed", "counted"

# (metric prefix, module, attribute, mode); "Class.method" wraps on the class.
TARGETS = (
    ("fields.inv", "relspan.fields", "RationalField.inv", COUNTED),
    ("fields.inv", "relspan.fields", "PrimeField.inv", COUNTED),
    ("linalg.matmul", "relspan.linalg", "Matrix.__matmul__", TIMED),
    ("linalg.rref", "relspan.linalg", "Matrix.rref", TIMED),
    ("linalg.solve", "relspan.linalg", "solve", TIMED),
    ("linalg.left_inverse", "relspan.linalg", "left_inverse", TIMED),
    ("linalg.kernel", "relspan.linalg", "kernel_basis_sparse", TIMED),
    ("linalg.kron", "relspan.linalg", "kron", TIMED),
    ("linalg.kron_apply", "relspan.linalg", "kron_apply", TIMED),
    ("coalg.equalizer", "relspan.coalg", "coalg_equalizer", TIMED),
    ("coalg.pullback", "relspan.coalg", "relative_pullback_coalg", TIMED),
    ("coalg.filler", "relspan.coalg", "pullback_factor_coalg", TIMED),
    ("coalg.cotensor", "relspan.coalg", "cotensor", TIMED),
    ("coalg.compare", "relspan.coalg", "compare_cotensor_pullback", TIMED),
    ("coalg.class_S", "relspan.coalg", "class_S_witness", TIMED),
    ("coalg.check_coalgebra", "relspan.coalg", "check_coalgebra", TIMED),
    ("coalg.delta_column", "relspan.coalg", "Coalgebra.delta_column", COUNTED),
    ("catcore.legs_in_class", "relspan.catcore", "legs_in_class", COUNTED),
    ("finset.pullback", "relspan.finset", "pullback", TIMED),
    ("finset.linearize_fun", "relspan.finset", "linearize_fun", TIMED),
    ("relpull.relative_pullback", "relspan.relpull", "relative_pullback", TIMED),
    ("relpull.universal_factor", "relspan.relpull", "universal_factor", TIMED),
    ("relpull.box", "relspan.relpull", "box", TIMED),
    ("relpull.assoc_iso", "relspan.relpull", "assoc_iso", TIMED),
    ("relpull.coherence", "relspan.relpull", "coherence_triangle", TIMED),
    ("relpull.coherence", "relspan.relpull", "coherence_pentagon", TIMED),
    ("monoids.check", "relspan.monoids", "check_monoid", TIMED),
    ("relcat.check", "relspan.relcat", "check_relative_category", TIMED),
    ("relcat.linearize", "relspan.relcat", "linearize_relcat", TIMED),
    ("relcat.from_small", "relspan.relcat", "from_small_category", TIMED),
    ("jsonio.load", "relspan.jsonio", "load_context", TIMED),
    ("jsonio.matrix_to_json", "relspan.jsonio", "matrix_to_json", TIMED),
    ("cli.main", "relspan.cli", "main", TIMED),
)

SELF_LAYERS = ("linalg", "coalg", "finset", "relpull", "monoids", "relcat", "jsonio", "cli")

# Every per-layer metric of a traced run, with its unit.
EXTRA_METRICS = {
    "linalg.matmul.dense_madds": "count",
    "linalg.matmul.nnz_in": "count",
    "linalg.rref.cells": "count",
    "coalg.errors": "count",
    "coalg.class_S.repeat_frac": "1",
    "jsonio.bytes_in": "B",
    "cli.bytes_out": "B",
    "cli.errors": "count",
    "trace_overhead": "1",
}
# Functions reported by inclusive time only.
_TIME_ONLY = ("monoids.check", "cli.main")


def metric_units() -> dict:
    """Name -> unit of every per-layer metric, in a stable order."""
    units = {}
    for prefix, _, _, mode in TARGETS:
        if prefix in _TIME_ONLY:
            units[f"{prefix}.s"] = "s"
            continue
        units[f"{prefix}.calls"] = "count"
        if mode == TIMED:
            units[f"{prefix}.s"] = "s"
    for layer in SELF_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _nnz(m):
    return sum(len(row) - row.count(0) for row in m.data)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.book_open = array("d")
        self.book_close = array("d")
        self.raised = []
        self.stack = []
        self.book = 0.0        # seconds of tracer bookkeeping so far
        self.counts = Counter()
        self._patches = []
        self._seen_class_S = {}

    # -- spans -------------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.book_open.append(self.book)
        self.book_close.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(clock())
        return idx

    def close(self, idx):
        self.end[idx] = clock()
        self.stack.pop()
        self.book_close[idx] = self.book

    def begin_job(self):
        self._seen_class_S = {}
        return self.open(self.name_id("job"))

    def end_job(self, idx):
        self.close(idx)
        self._seen_class_S = {}

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, pre=None, post=None):
        nid = self.name_id(name)
        stack, tracer = self.stack, self

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if pre is not None:
                t = clock()
                pre(args)
                tracer.book += clock() - t
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                tracer.raised.append(idx)
                raise
            tracer.close(idx)
            if post is not None:
                t = clock()
                post(result)
                tracer.book += clock() - t
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        stack, counts, key = self.stack, self.counts, f"{name}.calls"

        def wrapper(*args, **kwargs):
            if stack:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _matmul_counts(self, args):
        a, b = args
        self.counts["linalg.matmul.dense_madds"] += a.rows * a.cols * b.cols
        self.counts["linalg.matmul.nnz_in"] += _nnz(a) + _nnz(b)

    def _rref_counts(self, args):
        self.counts["linalg.rref.cells"] += args[0].rows * args[0].cols

    def _class_S_repeats(self, args):
        """Count calls whose apex object and leg matrices equal an earlier
        call's in the same job."""
        f, g = args
        key = (id(f.src), f.mat.rows, g.mat.rows)
        earlier = self._seen_class_S.setdefault(key, [])
        if any(ef.data == f.mat.data and eg.data == g.mat.data for _, ef, eg in earlier):
            self.counts["coalg.class_S.repeats"] += 1
        else:
            earlier.append((f.src, f.mat, g.mat))

    def _load_bytes(self, args):
        self.counts["jsonio.bytes_in"] += os.path.getsize(args[0])

    def _cli_exit(self, code):
        if code == 2:
            self.counts["cli.errors"] += 1

    def _hooks(self, prefix):
        return {
            "linalg.matmul": (self._matmul_counts, None),
            "linalg.rref": (self._rref_counts, None),
            "coalg.class_S": (self._class_S_repeats, None),
            "jsonio.load": (self._load_bytes, None),
            "cli.main": (None, self._cli_exit),
        }.get(prefix, (None, None))

    # -- install / remove --------------------------------------------------

    def install(self):
        """Wrap every target at every relspan binding; returns self."""
        relspan_modules = [m for n, m in list(sys.modules.items())
                           if m is not None and (n == "relspan" or n.startswith("relspan."))]
        for prefix, modname, attr, mode in TARGETS:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                wrapped = (self._counted(prefix, orig) if mode == COUNTED
                           else self._timed(prefix, orig, *self._hooks(prefix)))
                setattr(cls, meth, wrapped)
                self._patches.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapped = (self._counted(prefix, orig) if mode == COUNTED
                       else self._timed(prefix, orig, *self._hooks(prefix)))
            for mod in relspan_modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)
                        self._patches.append((mod, name, orig))
        return self

    def remove(self):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches = []

    # -- analysis ----------------------------------------------------------

    def effective(self):
        """Per span: wall time minus the bookkeeping done while it was open."""
        return [(e - s) - (bc - bo) for s, e, bo, bc in
                zip(self.start, self.end, self.book_open, self.book_close)]

    def self_times(self, eff=None):
        """Per span: effective time not covered by its child spans."""
        eff = self.effective() if eff is None else eff
        own = list(eff)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= eff[idx]
        return own

    def nested_in_same(self):
        """Per span: whether an enclosing span has the same name (so its time
        is already inside that span's inclusive time)."""
        nested = [False] * len(self.start)
        path, active = [], Counter()
        for idx, (nid, parent) in enumerate(zip(self.span_name, self.span_parent)):
            while path and path[-1] != parent:
                active[self.span_name[path.pop()]] -= 1
            nested[idx] = active[nid] > 0
            path.append(idx)
            active[nid] += 1
        return nested

    def job_spans(self):
        job = self._name_ids.get("job")
        return [i for i, nid in enumerate(self.span_name) if nid == job]

    def metrics(self):
        """Every per-layer metric except trace_overhead, plus the coverage of
        job time by the layers' self times."""
        eff = self.effective()
        own = self.self_times(eff)
        nested = self.nested_in_same()
        calls, incl = Counter(), Counter()
        layer_self = Counter()
        for idx, nid in enumerate(self.span_name):
            name = self.names[nid]
            calls[name] += 1
            if not nested[idx]:
                incl[name] += eff[idx]
            layer_self[name.split(".")[0]] += own[idx]
        escaped = sum(
            1 for idx in self.raised
            if self.names[self.span_name[idx]].startswith("coalg.")
            and (self.span_parent[idx] < 0
                 or not self.names[self.span_name[self.span_parent[idx]]].startswith("coalg."))
        )
        out = {}
        for name in metric_units():
            if name.endswith(".calls"):
                out[name] = calls[name[:-6]] + self.counts[name]
            elif name.endswith(".self_s"):
                out[name] = layer_self[name[:-7]]
            elif name.endswith(".s"):
                out[name] = incl[name[:-2]]
        for name in ("linalg.matmul.dense_madds", "linalg.matmul.nnz_in", "linalg.rref.cells",
                     "jsonio.bytes_in", "cli.bytes_out", "cli.errors"):
            out[name] = self.counts[name]
        out["coalg.errors"] = escaped
        n_class_S = calls["coalg.class_S"]
        out["coalg.class_S.repeat_frac"] = (
            self.counts["coalg.class_S.repeats"] / n_class_S if n_class_S else 0.0)
        job_time = sum(eff[i] for i in self.job_spans())
        covered = sum(layer_self[layer] for layer in SELF_LAYERS)
        return out, {"job_s": job_time, "covered_s": covered,
                     "coverage": covered / job_time if job_time else 0.0,
                     "bookkeeping_s": self.book, "spans": len(self.start)}

    def write_spans(self, path):
        """The span tree as gzipped JSON lines: id, name, parent, start and
        end (seconds from the first span) and effective seconds."""
        eff = self.effective()
        t0 = self.start[0] if len(self.start) else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for idx in range(len(self.start)):
                fh.write(json.dumps([idx, self.names[self.span_name[idx]], self.span_parent[idx],
                                     round(self.start[idx] - t0, 9), round(self.end[idx] - t0, 9),
                                     round(eff[idx], 9)]) + "\n")
