"""In-memory span recorder for the traced benchmark run.

Tracing works from outside the program: `Tracer.install` replaces public
functions and methods of the nilwalk modules by wrappers that record one
span per call (name, start, end, parent span, thread, rows of work) and
`Tracer.uninstall` puts the originals back.  A function that a later
version of the program removes is skipped and simply reports zero calls.

Spans are appended under a lock and the parent of a span is the innermost
open span of the same thread, so the recorder is safe in the walk
engine's worker threads.  A span opened in a pool thread has no parent;
self times are therefore computed by interval coverage (see `self_time`),
which attributes pool work to whatever span encloses it in time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    rows: float = 0.0
    extra: float = 0.0
    key: Optional[str] = None
    scope: int = 0  # operation number; 0 is the set-up


def _rows(x) -> int:
    shape = np.shape(x)
    return int(shape[0]) if len(shape) >= 2 else 1


def _leading_rows(*arrays) -> int:
    return max(_rows(a) for a in arrays)


class Tracer:
    """Records spans of wrapped calls; see the module docstring."""

    def __init__(self):
        self._raw: list[tuple] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.main_thread = threading.get_ident()
        self.enabled = False
        self.scope = 0  # operation counter, advanced by the round loop

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name: str, fn: Callable, args, kwargs,
             rows: Optional[Callable] = None, key: Optional[Callable] = None):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        k = key(args, kwargs) if key is not None else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        n, extra = rows(args, kwargs, result) if rows is not None else (0.0, 0.0)
        with self._lock:
            self._raw.append((sid, name, t0, t1, parent, threading.get_ident(), n, extra, k,
                              self.scope))
        return result

    @property
    def spans(self) -> list[Span]:
        return [Span(*r) for r in self._raw]

    def wrap(self, name: str, fn: Callable, rows=None, key=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, rows, key)

        return traced

    def wrap_stream(self, name: str, fn: Callable, rows) -> Callable:
        """Wrap a generator function: one span per produced chunk."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            sentinel = object()
            while True:
                item = tracer.call(name, next, (gen, sentinel), {},
                                   lambda a, k, r: (0.0, 0.0) if r is sentinel
                                   else rows(args, kwargs, r))
                if item is sentinel:
                    return
                yield item

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, name: str, rows=None, key=None,
                       stream: bool = False) -> bool:
        """Replace module.attr, and every nilwalk module's binding of the same
        object, by a traced wrapper.  Returns False when the function is gone."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapped = (self.wrap_stream(name, original, rows) if stream
                   else self.wrap(name, original, rows, key))
        for mod in [m for n, m in sys.modules.items() if n == "nilwalk" or n.startswith("nilwalk.")]:
            for a, v in list(vars(mod).items()):
                if v is original:
                    self._set(mod, a, wrapped)
        return True

    def patch_method(self, cls, attr: str, name: str, rows=None, key=None,
                     returns_closure: Optional[tuple] = None) -> bool:
        """Replace a method defined on cls itself.  With returns_closure =
        (closure_name, closure_rows) the method's result, a function, is
        wrapped instead of the method."""
        raw = cls.__dict__.get(attr) if cls is not None else None
        if raw is None:
            return False
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        if returns_closure is not None:
            cname, crows = returns_closure
            tracer = self

            @functools.wraps(fn)
            def factory(*args, **kwargs):
                return tracer.wrap(cname, fn(*args, **kwargs), crows)

            wrapped = factory
        else:
            wrapped = self.wrap(name, fn, rows, key)
        self._set(cls, attr, kind(wrapped) if kind else wrapped)
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.enabled = False

    def install(self, nilwalk_modules: dict) -> list[str]:
        """Wrap every traced entry point; returns the names found missing."""
        m = nilwalk_modules
        missing: list[str] = []

        def need(ok: bool, label: str):
            if not ok:
                missing.append(label)

        measures, filtration, algebra = m["measures"], m["filtration"], m["algebra"]
        walks, limitlaw, nilmanifold = m["walks"], m["limitlaw"], m["nilmanifold"]
        freealg, pathswap, config, cli = m["freealg"], m["pathswap"], m["config"], m["cli"]

        sample_rows = lambda a, k, r: (_rows(r), 0.0)
        for cls_name in ("AtomicMeasure", "ProductMeasure", "AffineImage"):
            need(self.patch_method(getattr(measures, cls_name, None), "sample",
                                   "measures.sample", rows=sample_rows),
                 f"measures.{cls_name}.sample")
        need(self.patch_method(getattr(filtration, "WeightFiltration", None), "to_adapted_float",
                               "filtration.to_adapted", rows=sample_rows),
             "filtration.WeightFiltration.to_adapted_float")

        nil_alg = getattr(algebra, "NilpotentAlgebra", None)
        need(self.patch_method(nil_alg, "product_map", "", returns_closure=(
            "algebra.product", lambda a, k, r: (_leading_rows(a[0], a[1]), 0.0))),
            "algebra.NilpotentAlgebra.product_map")
        need(self.patch_method(nil_alg, "bch_exact", "algebra.bch_exact"),
             "algebra.NilpotentAlgebra.bch_exact")
        need(self.patch_method(nil_alg, "__init__", "algebra.build"), "algebra.NilpotentAlgebra")
        need(self.patch_function(algebra, "free_nilpotent", "algebra.build"),
             "algebra.free_nilpotent")

        fold_rows = lambda a, k, r: (_rows(r) * a[0].n_steps, 0.0)
        need(self.patch_function(walks, "product_stream", "walks.fold", rows=fold_rows,
                                 stream=True), "walks.product_stream")
        need(self.patch_function(walks, "gradual_truncation_stream", "walks.fold",
                                 rows=lambda a, k, r: (_rows(r[0]) * a[0].n_steps, 0.0),
                                 stream=True), "walks.gradual_truncation_stream")
        need(self.patch_method(getattr(walks, "LiftedTruncation", None), "clip", "walks.clip",
                               rows=lambda a, k, r: (_rows(a[1]), float(np.sum(r[2])))),
             "walks.LiftedTruncation.clip")
        for fn in ("llt_box_experiment", "clt_experiment", "ratio_experiment",
                   "theta_experiment"):
            need(self.patch_function(walks, fn, f"walks.estimate.{fn}"), f"walks.{fn}")

        def sim_key(a, k):
            spec, rng, n = a[0], a[1], a[2]
            state = json.dumps(rng.bit_generator.state, sort_keys=True, default=str)
            return "|".join([spec.noise_basis.tobytes().hex(), spec.drift2.tobytes().hex(),
                             str(spec.n_time_steps), str(n), state])

        need(self.patch_function(limitlaw, "simulate_limit", "limitlaw.simulate",
                                 rows=lambda a, k, r: (a[2] * a[0].n_time_steps, 0.0),
                                 key=sim_key), "limitlaw.simulate_limit")

        row_of_first = lambda a, k, r: (_rows(a[0]), 0.0)
        for fn in ("fold", "fold_second_kind"):
            need(self.patch_function(nilmanifold, fn, "nilmanifold.fold", rows=row_of_first),
                 f"nilmanifold.{fn}")
        need(self.patch_function(nilmanifold, "cell_index", "nilmanifold.cell_index",
                                 rows=row_of_first), "nilmanifold.cell_index")
        need(self.patch_function(nilmanifold, "cesaro_equidistribution", "nilmanifold.cesaro",
                                 rows=lambda a, k, r: (float(a[1]), 0.0)),
             "nilmanifold.cesaro_equidistribution")

        poly = getattr(freealg, "FreePoly", None)
        need(self.patch_method(poly, "permute", "freealg.permute"), "freealg.FreePoly.permute")
        need(self.patch_method(poly, "__add__", "freealg.add"), "freealg.FreePoly.__add__")
        need(self.patch_function(freealg, "product_support_size_part", "freealg.support_part",
                                 key=lambda a, k: repr(a[:3])),
             "freealg.product_support_size_part")
        need(self.patch_function(freealg, "dynkin_product", "freealg.dynkin"),
             "freealg.dynkin_product")

        need(self.patch_function(pathswap, "apply_operator", "pathswap.apply_operator"),
             "pathswap.apply_operator")
        for fn, label in (("verify_low_degree_annihilation", "fact1"),
                          ("verify_block_decoupling", "fact2"),
                          ("verify_block_vanishing", "fact3"),
                          ("verify_block_bracket_identity", "fact3")):
            need(self.patch_function(pathswap, fn, f"pathswap.{label}"), f"pathswap.{fn}")

        need(self.patch_method(getattr(config, "ExperimentConfig", None), "from_file",
                               "config.parse"), "config.ExperimentConfig.from_file")
        for fn in ("write_csv", "write_summary"):
            need(self.patch_function(config, fn, "config.write"), f"config.{fn}")
        need(self.patch_function(cli, "main", "cli.main"), "cli.main")
        self.enabled = True
        return missing

    def dump(self, path: str) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": [f.name for f in fields(Span)]}) + "\n")
            for r in self._raw:
                fh.write(json.dumps(r) + "\n")


# -- analysis ------------------------------------------------------------------


def _merge(intervals):
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1][1] = b
        else:
            out.append([a, b])
    return out


def _length(merged) -> float:
    return sum(b - a for a, b in merged)


def _intersection(xs, ys) -> float:
    total, i, j = 0.0, 0, 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if hi > lo:
            total += hi - lo
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return total


class SpanIndex:
    """Queries over a list of spans: busy time, top-level spans, self time."""

    def __init__(self, spans: list[Span], main_thread: int):
        self.spans = spans
        self.main_thread = main_thread
        self.by_id = {s.id: s for s in spans}
        self._anc: dict[Optional[int], frozenset] = {None: frozenset()}

    def _ancestor_names(self, s: Span) -> frozenset:
        chain = []
        p = s.parent
        while p not in self._anc:
            chain.append(p)
            ps = self.by_id.get(p)
            p = ps.parent if ps is not None else None
        names = self._anc[p]
        for pid in reversed(chain):
            ps = self.by_id.get(pid)
            names = names | {ps.name} if ps is not None else names
            self._anc[pid] = names
        return names

    def top(self, prefix: str) -> list[Span]:
        """Spans of a layer that are not nested inside a span of the same layer."""
        return [s for s in self.spans if s.name.startswith(prefix)
                and not any(n.startswith(prefix) for n in self._ancestor_names(s))]

    def busy(self, prefix: str) -> tuple[float, int, float, float]:
        """(seconds, calls, rows, extra) summed over top-level spans of a layer."""
        top = self.top(prefix)
        return (sum(s.end - s.start for s in top), len(top),
                sum(s.rows for s in top), sum(s.extra for s in top))

    def self_time(self, prefix: str) -> float:
        """Wall time covered by the layer's spans minus the part of it that
        its descendants cover.  Spans opened in pool threads have no
        parent and count as descendants of whatever encloses them."""
        own = _merge([(s.start, s.end) for s in self.top(prefix)])
        if not own:
            return 0.0
        nested = [(s.start, s.end) for s in self.spans
                  if not s.name.startswith(prefix)
                  and ((s.parent is None and s.thread != self.main_thread)
                       or any(n.startswith(prefix) for n in self._ancestor_names(s)))]
        return _length(own) - _intersection(own, _merge(nested))

    def wall(self, prefix: str) -> float:
        return _length(_merge([(s.start, s.end) for s in self.top(prefix)]))

    def useful_frac(self, prefix: str) -> float:
        """Distinct inputs per call, counted within each operation."""
        top = self.top(prefix)
        if not top:
            return 0.0
        distinct = len({(s.scope, s.key) for s in top})
        return distinct / len(top)
