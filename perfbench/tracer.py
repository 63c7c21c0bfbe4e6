"""Per-layer span tracing, installed from outside the package.

``Tracer.install()`` replaces each public method of every layer class
with a wrapper that times the call and charges it to its layer.  The
package source is untouched; only class attributes are swapped, and
``uninstall()`` puts the originals back.  Bound methods taken before
``install()`` (for example load listeners registered by a constructor)
keep the original function, so engines whose spans should be recorded
are built after installing; until ``enabled`` is set the wrappers call
straight through.

Spans are aggregated in memory rather than stored one by one: per method
the call count, self time (span time minus its child spans) and
inclusive time of outermost calls, and per caller/callee pair the call
count and inclusive time, which is the "caused by" link of each span.
The sum of all self times equals the sum of the root spans exactly.
"""

import functools
import inspect
import time

from dynorient.acyclic import BFOrienter
from dynorient.colouring import ProductColouring
from dynorient.decompose import ArboricityDecomposer
from dynorient.forest import LinkCutForest
from dynorient.fractional import EdgeStore, FractionalOrienter
from dynorient.graph import GraphState
from dynorient.hl import HeavyLightOrienter
from dynorient.refine import RefinementEngine
from dynorient.split import SlotTable

# layer name -> classes whose public methods form that layer
LAYER_CLASSES = {
    "decompose": (ArboricityDecomposer,),
    "refine": (RefinementEngine,),
    "fractional": (FractionalOrienter, EdgeStore),
    "graph": (GraphState,),
    "split": (SlotTable,),
    "hl": (HeavyLightOrienter,),
    "forest": (LinkCutForest,),
    "colouring": (ProductColouring,),
    "acyclic": (BFOrienter,),
}
LAYERS = tuple(LAYER_CLASSES)

# walks of the fractional engine: flip_copy calls inside one copy update
WALKERS = ("insert_copy", "delete_copy")


def _public_methods(cls):
    for name, attr in vars(cls).items():
        if inspect.isfunction(attr) and (not name.startswith("_")
                                         or name == "__len__"):
            yield name, attr


class Tracer:

    def __init__(self):
        self.enabled = False
        # "layer.method" -> [calls, self_ns, incl_ns, open depth]
        self.methods = {}
        self.edges = {}        # (caller, callee) -> [calls, incl_ns]
        self.root_ns = 0
        self.walk_len_max = 0
        self._stack = []       # open spans: [name, child_ns]
        self._saved = []

    def install(self):
        for layer, classes in LAYER_CLASSES.items():
            for cls in classes:
                for name, fn in list(_public_methods(cls)):
                    key = f"{layer}.{name}"
                    if key in self.methods:
                        raise ValueError(f"two methods traced as {key}")
                    self.methods[key] = [0, 0, 0, 0]
                    self._saved.append((cls, name, fn))
                    setattr(cls, name, self._wrap(key, fn))
        flips = self.methods["fractional.flip_copy"]
        for name in WALKERS:
            cls = next(c for c, n, _ in self._saved if n == name)
            setattr(cls, name, self._walk_meter(getattr(cls, name), flips))

    def uninstall(self):
        for cls, name, fn in reversed(self._saved):
            setattr(cls, name, fn)
        self._saved.clear()

    def _wrap(self, key, fn):
        rec = self.methods[key]
        stack = self._stack
        edges = self.edges
        now = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [key, 0]
            stack.append(span)
            rec[3] += 1
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = now() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dur - span[1]
                rec[3] -= 1
                if not rec[3]:
                    rec[2] += dur
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    edge = edges.get((parent[0], key))
                    if edge is None:
                        edges[(parent[0], key)] = [1, dur]
                    else:
                        edge[0] += 1
                        edge[1] += dur
                else:
                    tracer.root_ns += dur

        return traced

    def _walk_meter(self, traced, flips):
        tracer = self

        @functools.wraps(traced)
        def metered(*args, **kwargs):
            before = flips[0]
            try:
                return traced(*args, **kwargs)
            finally:
                walk = flips[0] - before
                if walk > tracer.walk_len_max:
                    tracer.walk_len_max = walk

        return metered

    # ------------------------------------------------------------------

    def layer_totals(self):
        """Layer -> (calls, self_ns)."""
        out = {layer: [0, 0] for layer in LAYERS}
        for key, (calls, self_ns, _, _) in self.methods.items():
            t = out[key.split(".", 1)[0]]
            t[0] += calls
            t[1] += self_ns
        return out

    def dump(self):
        """JSON-ready aggregate of every span recorded."""
        return {
            "root_ns": self.root_ns,
            "walk_len_max": self.walk_len_max,
            "methods": {k: {"calls": c, "self_ns": s, "incl_ns": i}
                        for k, (c, s, i, _) in sorted(self.methods.items())
                        if c},
            "callers": [{"caller": a, "callee": b, "calls": c, "incl_ns": i}
                        for (a, b), (c, i) in sorted(self.edges.items())],
        }
