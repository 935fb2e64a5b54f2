"""Per-layer tracing from outside the library.

The layers are the library's modules.  ``Tracer.install`` wraps every
public function defined in a layer module and rebinds the wrapper in
every ``cubiclat`` module that holds the original, because the modules
use ``from .x import f`` and a patch in one place would miss the others.

Each wrapped call is a span: (id, parent id, query id, name, start,
end).  Spans stay in memory and are written out after the run.  A
layer's self time is the time of its spans minus the time covered by
their child spans.

Functions called once per integer in a range (the admissibility tests)
are *counted*: they are timed only when called from another layer, so
their time lands in the right layer, and they record no span.  A few
leaf helpers called in the inner loops of searches (``dot``,
``inner_product``, ...) are not wrapped at all; their time counts
towards the layer that calls them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "admissibility", "mukai", "lattices", "exactlinalg", "cohomology", "chow")

#: leaf helpers left unwrapped
SKIP = {
    "cli": {"jsonable", "human_lines"},
    "exactlinalg": {"dot", "sign_normalize", "coord_key", "xgcd"},
    "lattices": {"inner_product"},
    # called once per d, only from inside the admissibility layer
    "admissibility": {"satisfies_star", "genus_of_discriminant"},
}

#: per-integer functions: counted, timed only across a layer boundary
COUNTED = {
    "admissibility": {"satisfies_star_star", "discriminant_report"},
}

#: functions whose inclusive time is reported on its own
INCLUSIVE = {
    "is_isometric_small": "lattices.isometry_s",
    "lattice_from_json": "lattices.parse_s",
    "smith_normal_form": "exactlinalg.snf_s",
    "determinant": "exactlinalg.det_s",
    "ldlt_signature": "exactlinalg.ldlt_s",
}


class Tracer:
    def __init__(self):
        # frame: [layer, time covered by children, span id]
        self.stack: list[list] = [["bench", 0.0, -1]]
        self.spans: list[tuple] = []
        self.next_id = 0
        self.query = -1
        # (layer, function) -> [number of calls]
        self.calls: dict[tuple[str, str], list[int]] = {}
        self.self_s: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.active: Counter = Counter()
        self.counts: Counter = Counter()

    # -- installation -----------------------------------------------------

    def install(self, package) -> int:
        """Wrap the public functions of every layer module; return how many."""
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        wrapped = 0
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name in SKIP.get(layer, ()):
                    continue
                wrapper = self._wrap(fn, layer, name, name in COUNTED.get(layer, ()))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
                wrapped += 1
        return wrapped

    def _wrap(self, fn, layer: str, name: str, counted: bool):
        tracer = self
        observe = OBSERVERS.get(name)
        inclusive = name in INCLUSIVE
        calls = self.calls.setdefault((layer, name), [0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[0] += 1
            stack = tracer.stack
            parent = stack[-1]
            if counted and parent[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, parent[2]]
            if not counted:
                frame[2] = tracer.next_id
                tracer.next_id += 1
            if inclusive:
                tracer.active[name] += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[layer] += dur - frame[1]
                parent[1] += dur
                if inclusive:
                    tracer.active[name] -= 1
                    if not tracer.active[name]:
                        tracer.inclusive[name] += dur
                if not counted:
                    tracer.spans.append((frame[2], parent[2], tracer.query, f"{layer}.{name}", t0, t1))
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        return traced

    # -- queries ----------------------------------------------------------

    def begin(self, query_id: int) -> None:
        self.query = query_id
        self.stack[0][1] = 0.0

    def end(self) -> None:
        self.query = -1

    # -- results ----------------------------------------------------------

    def metrics(self, output_bytes: int) -> dict:
        c = self.counts
        layer_calls = Counter()
        for (layer, name), (n,) in self.calls.items():
            layer_calls[layer] += n
        searches = c["search_found"] + c["search_not_found"] + c["search_impossible"]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (layer_calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        out["cli.output_bytes"] = (output_bytes, "bytes")
        out["admissibility.d_tested"] = (self.calls[("admissibility", "satisfies_star_star")][0], "count")
        out["mukai.search_found"] = (c["search_found"], "count")
        out["mukai.search_not_found"] = (c["search_not_found"], "count")
        out["mukai.search_impossible"] = (c["search_impossible"], "count")
        out["mukai.found_ratio"] = (c["search_found"] / searches if searches else 0.0, "ratio")
        out["mukai.box_points"] = (c["box_points"], "count")
        out["lattices.norm_vectors"] = (c["norm_vectors"], "count")
        for fname, metric in INCLUSIVE.items():
            out[metric] = (self.inclusive[fname], "s")
        return out

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('{"fields": ["id", "parent", "query", "name", "start", "end"], "spans": [\n')
            for i, s in enumerate(self.spans):
                fh.write(("," if i else "") + json.dumps(s) + "\n")
            fh.write("]}\n")


def _observe_search(counts, args, kwargs, result):
    bound = kwargs["bound"] if "bound" in kwargs else args[2]
    counts["box_points"] += (2 * bound + 1) ** 3
    status = result.status
    key = {"found": "search_found", "impossible": "search_impossible"}.get(status, "search_not_found")
    counts[key] += 1


def _observe_norm(counts, args, kwargs, result):
    counts["norm_vectors"] += len(result)


OBSERVERS = {
    "find_isotropic_triple": _observe_search,
    "vectors_with_norm": _observe_norm,
}
