"""Outside-in tracer: wraps the library's public functions, records spans in memory.

Nothing here is imported by the library.  ``Tracer.install`` replaces each
wrapped function in its defining module and in every ``latslice.*`` module
that imported it by name (``enumerate_points`` alone has aliases in
``lattices``, ``minima``, ``slicing``, ``verify`` and the package), and
``uninstall`` puts the originals back.  Modules reached through a module
attribute (``bodies`` calls ``hull.hull_facets`` and ``lp.min_combination``)
are covered by the defining-module patch.

``linalg`` is not wrapped: ``dot`` and ``int_rank`` run 10^5-10^6 times per
run and wrapping them would swamp the trace, so their time lands in their
callers' self time.  Private helpers (``_count_in_subspace``,
``_volume_hrep``) likewise count as self time of the public caller.
"""

from __future__ import annotations

import gzip
import os
import sys
from time import perf_counter


def _max_slice_counts(result):
    return {"slicing.candidates_searched": result.candidates_searched,
            "slicing.exhaustive": int(result.exhaustive)}


def _points_enumerated(result):
    return {"lattices.points_enumerated": len(result)}


def _facets_found(result):
    return {"hull.facets_found": len(result)}


# (defining module, class or None, attribute, layer, counter)
# A counter maps the call's result to {counter name: int}.
TARGETS = (
    ("latslice.slicing", None, "max_slice", "slicing.max_slice", _max_slice_counts),
    ("latslice.slicing", None, "slice_profile", "slicing.slice_profile", None),
    ("latslice.lattices", "LatticeSubspace", "from_basis", "lattices.subspace_from_basis", None),
    ("latslice.lattices", None, "enumerate_points", "lattices.enumerate_points", _points_enumerated),
    ("latslice.lattices", None, "count_points", "lattices.count_points", None),
    ("latslice.lattices", None, "project_count", "lattices.project_count", None),
    ("latslice.hull", None, "hull_facets", "hull.hull_facets", _facets_found),
    ("latslice.hull", None, "hull_volume", "hull.hull_volume", None),
    ("latslice.bodies", None, "volume", "bodies.volume", None),
    ("latslice.bodies", None, "polar_volume", "bodies.polar_volume", None),
    ("latslice.bodies", None, "from_hrep", "bodies.construct", None),
    ("latslice.bodies", None, "from_vertices", "bodies.construct", None),
    ("latslice.bodies", None, "body_from_dict", "bodies.construct", None),
    ("latslice.bodies", "ConvexBody", "polar", "bodies.polar", None),
    ("latslice.lp", None, "min_combination", "lp.min_combination", None),
    ("latslice.minima", None, "successive_minima", "minima.successive_minima", None),
    ("latslice.minima", None, "minkowski_second_check", "minima.minkowski_second_check", None),
    ("latslice.verify", None, "verify_main", "verify.verify_main", None),
    ("latslice.verify", None, "verify_unconditional", "verify.verify_unconditional", None),
    ("latslice.verify", None, "verify_dim2", "verify.verify_dim2", None),
    ("latslice.verify", None, "pick_quantities", "verify.pick_quantities", None),
)

OP_LAYER = "op"


class Tracer:
    """Spans (layer, start, end, parent span, op id) and per-layer counters."""

    def __init__(self):
        self.layers = [OP_LAYER]
        self._layer_ids = {OP_LAYER: 0}
        self.spans = []  # (layer id, start, end, parent index or -1, op id)
        self.counters = {}
        self._stack = []
        self._op = -1
        self._patches = []  # (owner, attribute, original)

    def _layer_id(self, layer):
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def _span(self, layer_id, fn, args, kwargs):
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            spans[idx] = (layer_id, start, end, parent, self._op)

    def _wrap(self, fn, layer, counter):
        layer_id = self._layer_id(layer)
        calls_name = layer + ".calls"

        def traced(*args, **kwargs):
            result = self._span(layer_id, fn, args, kwargs)
            self._count(calls_name, 1)
            if counter is not None:
                for name, n in counter(result).items():
                    self._count(name, n)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(self):
        """Patch every target in the currently imported ``latslice`` modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "latslice" or name.startswith("latslice."))]
        for mod_name, cls_name, attr, layer, counter in TARGETS:
            home = sys.modules[mod_name]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(raw.__func__, layer, counter)))
                else:
                    self._patch(cls, attr, self._wrap(raw, layer, counter))
                continue
            original = getattr(home, attr)
            traced = self._wrap(original, layer, counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, traced)

    def _patch(self, owner, attr, value):
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def op(self, op_id, fn, *args):
        """Run one benchmark op as a root span tagged with its op id."""
        self._op = op_id
        try:
            return self._span(0, fn, args, {})
        finally:
            self._op = -1

    def self_times(self):
        """Seconds of self time per layer: span duration minus its child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (layer_id, start, end, _, _) in enumerate(self.spans):
            layer = self.layers[layer_id]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def write(self, path):
        """Write every span as gzip'd CSV: layer, start_s, end_s, parent, op."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("layer,start_s,end_s,parent,op\n")
            names = self.layers
            for layer_id, start, end, parent, op in self.spans:
                fh.write(f"{names[layer_id]},{start:.9f},{end:.9f},{parent},{op}\n")
