"""Span tracing of solidsum from outside the package.

``Tracer.install`` replaces each traced function at every place it is looked
up: the defining module and every ``solidsum`` module that bound it with
``from .x import f``.  Each call records a span ``[name, start, end, parent,
op]`` in memory; ``write`` saves them when the run ends.  Work counts are
taken from call arguments at the same boundaries.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

# "layer.function" for every traced function; the layer is the module name
TARGETS = (
    "geometry.vertex_simple_cones",
    "geometry.half_spaces",
    "geometry.lattice_points",
    "geometry.faces",
    "geometry.face_tangent_cone_active_facets",
    "lattice.damped_transform_sum",
    "lattice.extrapolate_eps",
    "lattice.alpha_polytope_direct",
    "numerics.richardson_limit",
    "numerics.richardson_extrapolants",
    "numerics.polynomial_fit_intercept",
    "macdonald.macdonald_volume",
    "macdonald.macdonald_sum",
    "macdonald.conjecture_check",
    "macdonald.certify_direction",
    "macdonald.verify_brion",
    "macdonald.verify_macdonald",
    "macdonald.verify_cone_reciprocity",
    "macdonald.brianchon_gram_check",
    "oracle.discrete_volume",
    "oracle.point_weight",
    "angles.sample_lp_ball",
    "angles.solid_angle_exact_2d",
)

NAME, START, END, PARENT, OP = range(5)


def _transform_sum_key(terms, s, cfg, eps):
    """Identity of one damped sum: the cones, s and eps (plus the config)."""
    cones = tuple((complex(t.coefficient), t.cone.apex.tobytes(), t.cone.generators.tobytes())
                  for t in terms)
    return cones, np.asarray(s, dtype=complex).tobytes(), cfg, float(eps)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.box_points = 0
        self.repeat_calls = 0
        self.samples_drawn = 0
        self.present = set()
        self._stack = []
        self._seen = set()
        self._patched = []

    # ----------------------------- recording -------------------------------

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation."""
        self.op = op_id
        self._seen = set()
        rec = ["op", time.perf_counter(), 0.0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _count(self, name, bound):
        if name == "lattice.damped_transform_sum":
            a = bound.arguments
            terms = a["terms"]
            R = a["cfg"].radius_for(a["eps"])
            d = np.atleast_1d(a["s"]).size
            self.box_points += (2 * R + 1) ** d * len(terms)
            key = _transform_sum_key(terms, a["s"], a["cfg"], a["eps"])
            if key in self._seen:
                self.repeat_calls += 1
            self._seen.add(key)
        elif name == "angles.sample_lp_ball":
            self.samples_drawn += int(bound.arguments["n"])

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)
        counted = name in ("lattice.damped_transform_sum", "angles.sample_lp_ball")
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if counted:
                self._count(name, sig.bind(*args, **kwargs))
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
        return traced

    # ----------------------------- patching --------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "solidsum" or n.startswith("solidsum."))]
        for target in TARGETS:
            layer, fname = target.split(".")
            original = getattr(importlib.import_module(f"solidsum.{layer}"), fname, None)
            if original is None:
                continue  # removed from the package; reported as absent
            self.present.add(target)
            traced = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path, meta: dict):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({**meta, "span_fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def span_cost_s(n: int = 20_000) -> float:
    """Added cost of one traced call, from timing a traced and a bare no-op."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap("bench.noop", noop)
    with tracer.operation(0):
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / n)


# ----------------------------- per-layer metrics ----------------------------

def layer_metrics(tracer: Tracer, ops, records):
    """Per-layer numbers from one traced pass.

    ``ops`` and ``records`` are the pass's operations and their results, indexed
    by the span's operation id.  A span's self time is its duration minus the
    durations of its direct children; a layer's self time sums its spans'.
    """
    spans = tracer.spans
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    busy = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        busy[s[NAME]] += dur[i]
        calls[s[NAME]] += 1
        self_s[s[NAME].split(".")[0]] += dur[i] - child[i]

    def in_group(name, groups):
        """(time in spans called name, time of the ops in groups) over those ops."""
        ids = {i for i, op in enumerate(ops) if op.group in groups}
        inner = sum(dur[i] for i, s in enumerate(spans) if s[NAME] == name and s[OP] in ids)
        outer = sum(dur[i] for i, s in enumerate(spans) if s[NAME] == "op" and s[OP] in ids)
        return inner, outer

    def ratio(a, b):
        return a / b if b else 0.0

    oracle_ops = {i for i, op in enumerate(ops) if op.group in ("oracle-2d", "oracle-3d")}
    points = sum(records[i]["points"] for i in oracle_ops)
    oracle_hulls = sum(1 for s in spans if s[NAME] == "geometry.half_spaces" and s[OP] in oracle_ops)
    mc_points = len({s[PARENT] for s in spans
                     if s[NAME] == "angles.sample_lp_ball" and s[PARENT] >= 0
                     and spans[s[PARENT]][NAME] == "oracle.point_weight"})
    op_time = busy["op"]
    ts = busy["lattice.damped_transform_sum"]
    hs_in, hs_out = in_group("geometry.half_spaces", ("oracle-2d",))
    smp_in, smp_out = in_group("angles.sample_lp_ball", ("oracle-3d",))

    m = {
        ("lattice.transform_sum_s", "s"): ts,
        ("lattice.transform_sum_calls", "count"): calls["lattice.damped_transform_sum"],
        ("lattice.box_points", "count"): tracer.box_points,
        ("lattice.ns_per_box_point", "ns"): ratio(1e9 * ts, tracer.box_points),
        ("lattice.repeat_call_frac", "frac"): ratio(tracer.repeat_calls, calls["lattice.damped_transform_sum"]),
        ("lattice.transform_sum_share", "frac"): ratio(ts, op_time),
        ("lattice.self_s", "s"): self_s["lattice"],
        ("geometry.cone_build_s", "s"): busy["geometry.vertex_simple_cones"],
        ("geometry.half_spaces_s", "s"): busy["geometry.half_spaces"],
        ("geometry.half_spaces_calls", "count"): calls["geometry.half_spaces"],
        ("geometry.half_spaces_share", "frac"): ratio(hs_in, hs_out),
        ("geometry.lattice_points_s", "s"): busy["geometry.lattice_points"],
        ("geometry.self_s", "s"): self_s["geometry"],
        ("oracle.point_weight_s", "s"): busy["oracle.point_weight"],
        ("oracle.point_weight_calls", "count"): calls["oracle.point_weight"],
        ("oracle.self_s", "s"): self_s["oracle"],
        ("oracle.hull_builds_per_point", "count"): ratio(oracle_hulls, points),
        ("oracle.mc_point_frac", "frac"): ratio(mc_points, calls["oracle.point_weight"]),
        ("angles.sample_s", "s"): busy["angles.sample_lp_ball"],
        ("angles.samples_drawn", "count"): tracer.samples_drawn,
        ("angles.sample_share", "frac"): ratio(smp_in, smp_out),
        ("angles.self_s", "s"): self_s["angles"],
        ("macdonald.certify_s", "s"): busy["macdonald.certify_direction"],
        ("macdonald.directions_tried", "count"): calls["macdonald.certify_direction"],
        ("macdonald.self_s", "s"): self_s["macdonald"],
        ("numerics.extrapolate_s", "s"): self_s["numerics"],
    }
    counts = {name: calls[name] for name in TARGETS}
    counts.update(box_points=tracer.box_points, repeat_calls=tracer.repeat_calls,
                  samples_drawn=tracer.samples_drawn, oracle_points=points)
    return m, counts
