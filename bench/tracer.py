"""Outside-in tracer for prozero, installed by the benchmark before a run.

Nothing in prozero knows about it. `install()` replaces the public
functions of each layer module with timing wrappers, in every module
namespace that holds the same function object (claims, koszul and cli
bind oracle and linalg names at import), and wraps the Echelon methods
and the closed-form product on their classes.

Each wrapped call records one span: name, start, end and the index of the
enclosing span; all spans of one process share the run id written in the
header. Spans live in flat arrays in memory and are written once, by
`dump()`, after the run. Counts that need a call's arguments or result
(pivots found, kernel domain sizes, distinct Koszul stage inputs, span
builds) are recorded by hooks at the same boundaries.

Left unwrapped on purpose, because a wrapper costs more than the call:
`fields` (every scalar operation), the per-monomial helpers of `oracle`
and the per-term helpers of `rings` (`UNWRAPPED`). Their time counts as
self time of the layer that calls them. The GradedPoly methods that work
on whole polynomials (construction, arithmetic, equality) are wrapped,
so polynomial work done for a caller counts as `rings` self time.
Likewise a callback that a caller hands to linalg (the image function of
`kernel_basis`) runs inside linalg's span, so the caller's own code in it
counts as linalg self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("cli", "claims", "koszul", "oracle", "linalg", "rings", "parser")

# Per-monomial or per-term leaves that stay unwrapped (see module docstring).
UNWRAPPED = {
    "oracle": {"mono_mul", "mono_of_index", "index_of_mono",
               "check_window_ring"},
    "rings": {"check_index", "check_degree", "mul_index", "vanishes"},
}

# Methods wrapped on their classes, as (module, class, method).
METHODS = (
    ("linalg", "Echelon", "insert"),
    ("linalg", "Echelon", "reduce"),
    ("linalg", "Echelon", "contains"),
    ("linalg", "Echelon", "basis"),
    ("linalg", "Echelon", "pivots"),
    ("rings", "GradedPoly", "__init__"),
    ("rings", "GradedPoly", "zero"),
    ("rings", "GradedPoly", "monomial"),
    ("rings", "GradedPoly", "one"),
    ("rings", "GradedPoly", "gen"),
    ("rings", "GradedPoly", "__eq__"),
    ("rings", "GradedPoly", "__add__"),
    ("rings", "GradedPoly", "__neg__"),
    ("rings", "GradedPoly", "__sub__"),
    ("rings", "GradedPoly", "__mul__"),
    ("rings", "GradedPoly", "__pow__"),
    ("rings", "GradedPoly", "scale"),
    ("rings", "GradedPoly", "truncate"),
)

STAGE_FUNCS = ("h0_of_h1", "h1_of_h0", "koszul_pair", "koszul_h1_single")

SPAN_TYPES = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.insert_pivots = 0
        self.kernel_domain_sum = 0
        self.stage_keys = set()
        self.echelon_ctor_in = set()   # span indices that built an Echelon
        self.span_build_rows = {}      # slice_span build index -> rows
        self.claim_of = {}             # run_claim span index -> claim id

    def wrap(self, fn, qualname, on_exit=None):
        nid = len(self.names)
        self.names.append(qualname)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(idx, args, kwargs, result)
            return result

        return traced

    # -- hooks: counts that need arguments or results

    def _on_insert(self, idx, args, kwargs, result):
        if result is not None:
            self.insert_pivots += 1

    def _on_kernel(self, idx, args, kwargs, result):
        self.kernel_domain_sum += len(args[0] if args else kwargs["domain"])

    def _on_slice_span(self, idx, args, kwargs, result):
        if idx in self.echelon_ctor_in:
            self.span_build_rows[idx] = result.dim

    def _on_run_claim(self, idx, args, kwargs, result):
        self.claim_of[idx] = args[0] if args else kwargs["claim_id"]

    def _stage_hook(self, fn, qualname):
        sig = inspect.signature(fn)

        def on_exit(idx, args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(getattr(v, "name", v) if k == "field" else v
                        for k, v in bound.arguments.items())
            self.stage_keys.add((qualname,) + key)

        return on_exit

    def _hook_for(self, layer, attr, fn, qualname):
        if qualname == "linalg.Echelon.insert":
            return self._on_insert
        if qualname == "linalg.kernel_basis":
            return self._on_kernel
        if qualname == "oracle.slice_span":
            return self._on_slice_span
        if qualname == "claims.run_claim":
            return self._on_run_claim
        if layer == "koszul" and attr in STAGE_FUNCS:
            return self._stage_hook(fn, qualname)
        return None

    # -- installation

    def install(self):
        """Wrap every layer's public functions in all prozero namespaces."""
        mods = {layer: sys.modules["prozero." + layer] for layer in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "prozero" or n.startswith("prozero.")]
        for layer, mod in mods.items():
            skip = UNWRAPPED.get(layer, set())
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or attr in skip
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                qualname = "%s.%s" % (layer, attr)
                traced = self.wrap(fn, qualname,
                                   self._hook_for(layer, attr, fn, qualname))
                for ns in namespaces:
                    for k, v in list(vars(ns).items()):
                        if v is fn:
                            setattr(ns, k, traced)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = vars(cls)[meth]
            qualname = "%s.%s.%s" % (layer, cls_name, meth)
            if isinstance(fn, classmethod):
                setattr(cls, meth, classmethod(self.wrap(fn.__func__,
                                                         qualname)))
                continue
            setattr(cls, meth,
                    self.wrap(fn, qualname,
                              self._hook_for(layer, meth, fn, qualname)))
        self._mark_echelon_builds(mods["linalg"].Echelon)

    def _mark_echelon_builds(self, cls):
        init = cls.__init__
        stack, built = self.stack, self.echelon_ctor_in

        @functools.wraps(init)
        def marked_init(ech, *args, **kwargs):
            if stack:
                built.add(stack[-1])
            init(ech, *args, **kwargs)

        cls.__init__ = marked_init

    # -- output

    def dump(self, path):
        """Write the header line (names, counts) and the span arrays."""
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": len(self.start),
            "types": SPAN_TYPES,
            "insert_pivots": self.insert_pivots,
            "kernel_domain_sum": self.kernel_domain_sum,
            "stage_distinct": len(self.stage_keys),
            "span_builds": sorted(self.span_build_rows),
            "span_rows": sum(self.span_build_rows.values()),
            "claim_of": sorted(self.claim_of.items()),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for attr, _ in SPAN_TYPES:
                getattr(self, attr).tofile(fh)


def load(path):
    """Read a span file written by `Tracer.dump`: (header, arrays)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for attr, code in header["types"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays[attr] = arr
    return header, arrays
