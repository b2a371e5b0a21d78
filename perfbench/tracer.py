"""Span tracer for the benchmark's traced run.

It wraps singres's public functions at run time, from the benchmark's own
files; nothing in the package is edited.  Each wrapped function is replaced
at every binding site: the defining module, every singres module that
imported it by name (`verify` imports `exact_rank` and `det3_unity_is_zero`
that way) and every class that holds it, so no call escapes the count.

A span is (id, parent id, layer, start, end, request id, self time).  Self
time is the span's duration minus the time its child spans cover.  Leaf
layers that run to hundreds of thousands of calls per run are not kept one
span each: their calls, total and self time are summed per parent span.
Spans stay in memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

# (layer, module, attribute path, aggregated per parent span)
LAYERS = (
    ("kernels.all_minors", "singres.kernels", "all_minors_vanish_kernel", True),
    ("kernels.table", "singres.kernels", "reduction_table_array", True),
    ("kernels.det3", "singres.kernels", "det3_unity_is_zero", True),
    ("kernels.combo", "singres.kernels", "unity_combo_is_zero", True),
    ("exact.unity_table", "singres.exact", "unity_reduction_table", True),
    ("exact.rank", "singres.exact", "exact_rank", False),
    ("exact.rref", "singres.exact", "exact_rref", False),
    ("exact.kernel_basis", "singres.exact", "kernel_basis", False),
    ("exact.solve", "singres.exact", "solve_exact", False),
    ("exact.gcd", "singres.exact", "poly_gcd", False),
    ("minors.scan", "singres.minors", "minors_split_equivalence_scan", False),
    ("minors.split", "singres.minors", "two_class_split", False),
    ("strata.scan", "singres.strata", "scan_corank_strata", False),
    ("strata.corank_kernel", "singres.strata", "corank_kernel", False),
    ("strata.vandermonde", "singres.strata", "multiplicity_vandermonde", False),
    ("strata.codim", "singres.strata", "estimate_codim", False),
    ("mpoly.det", "singres.mpoly", "determinant", False),
    ("mpoly.sylvester", "singres.mpoly", "sylvester_matrix", False),
    ("mpoly.mul", "singres.mpoly", "MPoly.__mul__", True),
    ("mpoly.divexact", "singres.mpoly", "MPoly.divexact", True),
    ("mpoly.jacobian", "singres.mpoly", "jacobian_vanishes", False),
    ("laurent.classify", "singres.laurent", "classify_point", False),
    ("laurent.common_roots", "singres.laurent", "common_roots", False),
    ("germs.slice", "singres.germs", "slice_germ", False),
    ("germs.classify", "singres.germs", "classify_germ", False),
    ("project.grid_scan", "singres.project", "grid_scan", False),
    ("supports.classify", "singres.supports", "classify", False),
    ("cli.main", "singres.cli", "main", False),
)
# numpy.linalg.svd as seen from strata: strata's `np` is swapped for a facade
SVD_LAYER = "strata.svd"
LAYER_NAMES = tuple(name for name, *_ in LAYERS) + (SVD_LAYER,)
ELIMINATIONS = ("exact.rank", "exact.rref")

# derived per-layer metrics: name -> unit
DERIVED = {
    "kernels.table.distinct_frac": "ratio",
    "minors.pairs_checked": "count",
    "strata.elims_per_corank": "ratio",
    "strata.codim.samples": "count",
    "laurent.common_roots.exact_frac": "ratio",
}


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    units["trace.overhead_frac"] = "ratio"
    return units


class _Facade(types.ModuleType):
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, target, **overrides):
        super().__init__(target.__name__)
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, layer, start, end, request, self)
        self.aggregates = {}  # (parent id, layer) -> [calls, total, self]
        self.request = None
        self.missing = []  # layers whose function this version of singres lacks
        self.table_moduli = set()
        self.pairs_checked = 0
        self.codim_samples = 0
        self.common_roots_exact = 0
        self._stack = [[0.0, 0]]  # frames [child time, span id]; id 0 is the root
        self._next_id = 1
        self._patches = []  # (owner, attribute, original value)

    # --- wrapping --------------------------------------------------------------

    def _wrap(self, layer, fn, aggregate, observe=None):
        stack, spans, aggregates, clock = self._stack, self.spans, self.aggregates, time.perf_counter
        tracer = self

        if aggregate:

            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    stack[-1][0] += dur
                    acc = aggregates.get((frame[1], layer))
                    if acc is None:
                        aggregates[(frame[1], layer)] = [1, dur, dur - frame[0]]
                    else:
                        acc[0] += 1
                        acc[1] += dur
                        acc[2] += dur - frame[0]
                if observe is not None:
                    observe(args, kwargs, result)
                return result

        else:

            def wrapper(*args, **kwargs):
                sid = tracer._next_id
                tracer._next_id = sid + 1
                parent = stack[-1][1]
                frame = [0.0, sid]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    stack[-1][0] += t1 - t0
                    spans.append((sid, parent, layer, t0, t1, tracer.request, t1 - t0 - frame[0]))
                if observe is not None:
                    observe(args, kwargs, result)
                return result

        return functools.wraps(fn)(wrapper)

    def _observers(self):
        def table(args, kwargs, result):
            self.table_moduli.add(args[0] if args else kwargs.get("n"))

        def scan(args, kwargs, result):
            self.pairs_checked += getattr(result, "pairs_checked", 0)

        def codim(args, kwargs, result):
            self.codim_samples += getattr(result, "sample_count", 0)

        def common_roots(args, kwargs, result):
            self.common_roots_exact += all(getattr(p, "is_exact", False) for p in args[:2])

        return {
            "kernels.table": table,
            "minors.scan": scan,
            "strata.codim": codim,
            "laurent.common_roots": common_roots,
        }

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        observers = self._observers()
        for layer, modname, path, aggregate in LAYERS:
            module = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, original, aggregate, observers.get(layer))
            for site, name in list(_binding_sites(original)):
                self._patch(site, name, wrapper)
        strata = importlib.import_module("singres.strata")
        np = getattr(strata, "np", None)
        if isinstance(np, types.ModuleType) and hasattr(np, "linalg"):
            svd = self._wrap(SVD_LAYER, np.linalg.svd, True)
            self._patch(strata, "np", _Facade(np, linalg=_Facade(np.linalg, svd=svd)))
        else:
            self.missing.append(SVD_LAYER)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # --- results ---------------------------------------------------------------

    def metrics(self):
        calls = dict.fromkeys(LAYER_NAMES, 0)
        self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        for _, _, layer, _, _, _, own in self.spans:
            calls[layer] += 1
            self_s[layer] += own
        for (_, layer), (n, _, own) in self.aggregates.items():
            calls[layer] += n
            self_s[layer] += own
        out = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]

        def ratio(num, den):
            return num / den if den else 0.0

        out["kernels.table.distinct_frac"] = ratio(len(self.table_moduli), calls["kernels.table"])
        out["minors.pairs_checked"] = self.pairs_checked
        out["strata.elims_per_corank"] = ratio(self._eliminations_under_corank(), calls["strata.corank_kernel"])
        out["strata.codim.samples"] = self.codim_samples
        out["laurent.common_roots.exact_frac"] = ratio(self.common_roots_exact, calls["laurent.common_roots"])
        return out

    def _eliminations_under_corank(self):
        """Exact eliminations (rank or rref spans) with a corank_kernel ancestor."""
        parent_of = {sid: (parent, layer) for sid, parent, layer, *_ in self.spans}
        count = 0
        for sid, parent, layer, *_ in self.spans:
            if layer not in ELIMINATIONS:
                continue
            while parent:
                parent, up = parent_of[parent]
                if up == "strata.corank_kernel":
                    count += 1
                    break
        return count

    def write(self, path):
        """Spans and per-parent aggregates as JSON lines."""
        with open(path, "w") as fh:
            for sid, parent, layer, t0, t1, req, own in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer, "start": t0, "end": t1, "request": req, "self_s": own}) + "\n")
            for (parent, layer), (n, total, own) in sorted(self.aggregates.items()):
                fh.write(json.dumps({"aggregate": layer, "parent": parent, "calls": n, "total_s": total, "self_s": own}) + "\n")


def _binding_sites(original):
    """Every (module or class, attribute) in singres bound to `original`."""
    seen = set()
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "singres" or modname.startswith("singres.")):
            continue
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type) and v.__module__.startswith("singres")]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original and (id(owner), attr) not in seen:
                    seen.add((id(owner), attr))
                    yield owner, attr
