"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the package's public functions from outside: it replaces a
function at its defining module attribute and at every other attribute of a
`robusthedge` module bound to the same object.  The second part matters
because `suites.py`, `cli.py` and others bind `global_sup_lp`,
`one_step_sup`, `primal_lp` and more with `from .x import f` at import, and
a wrapper on the defining module alone would miss their calls.

Each wrapped call records a span (name, start, end, parent span, item id) in
memory; self time is a span's duration minus that of its direct children.
`simplex._pivot` is only counted, not spanned.  Counts repeat exactly for a
given item set, so they can be compared between versions as counts.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# span name -> (module, attribute); several attributes may share one name
SPANNED = {
    "simplex.solve_lp": [("robusthedge.simplex", "solve_lp")],
    "highs.linprog": [("scipy.optimize", "linprog")],
    "oracle_lp.global_sup_lp": [("robusthedge.oracle_lp", "global_sup_lp")],
    "oracle_lp.enumerate_vertex_kernels": [("robusthedge.oracle_lp", "enumerate_vertex_kernels")],
    "dual_dp.backward_value": [("robusthedge.dual_dp", "backward_value")],
    "dual_dp.one_step_sup": [("robusthedge.dual_dp", "one_step_sup")],
    "market_tree.build_tree": [("robusthedge.market_tree", "build_tree")],
    "claims.make_claim": [("robusthedge.claims", "make_claim")],
    "primal_hedge.primal_lp": [("robusthedge.primal_hedge", "primal_lp")],
    "primal_hedge.extract_strategy": [("robusthedge.primal_hedge", "extract_strategy")],
    "primal_hedge.verify_superhedge": [("robusthedge.primal_hedge", "verify_superhedge")],
    "measure_families.in_family": [("robusthedge.measure_families", "in_family")],
    "measure_families.polar_paths": [("robusthedge.measure_families", "polar_paths")],
    "measure_families.surgery": [
        ("robusthedge.measure_families", f) for f in ("paste", "bifurcate", "rcpd", "truncate_kernels")
    ],
}
SUITE_FUNCTIONS = (
    "pasting_closure_suite",
    "conditioning_closure_suite",
    "bifurcation_closure_suite",
    "truncation_suite",
    "tower_suite",
    "supermartingale_suite",
    "ess_sup_suite",
    "upward_directed_suite",
    "envelope_suite",
    "mutated_kernel_control",
)
for _f in SUITE_FUNCTIONS:
    SPANNED[f"suites.{_f.removesuffix('_suite')}"] = [("robusthedge.suites", _f)]

LP_LAYERS = ("simplex.solve_lp", "highs.linprog", "oracle_lp.global_sup_lp", "primal_hedge.primal_lp")
DUALITY_LAYERS = (
    "oracle_lp.global_sup_lp",
    "oracle_lp.enumerate_vertex_kernels",
    "primal_hedge.primal_lp",
    "dual_dp.backward_value",
    "dual_dp.one_step_sup",
    "primal_hedge.extract_strategy",
    "primal_hedge.verify_superhedge",
)
# Layers each workload must call (a zero count means a wrapper went blind) and
# layers it must not call.
REQUIRED = {
    "duality_exact": ("simplex.solve_lp",) + DUALITY_LAYERS,
    "duality_float": ("highs.linprog", "simplex.solve_lp") + DUALITY_LAYERS,
    "deep_tree_hedge": (
        "market_tree.build_tree",
        "claims.make_claim",
        "dual_dp.backward_value",
        "dual_dp.one_step_sup",
        "primal_hedge.extract_strategy",
        "primal_hedge.verify_superhedge",
        "measure_families.polar_paths",
    ),
    "proptest": (
        "simplex.solve_lp",
        "oracle_lp.global_sup_lp",
        "oracle_lp.enumerate_vertex_kernels",
        "dual_dp.backward_value",
        "dual_dp.one_step_sup",
        "measure_families.in_family",
        "measure_families.surgery",
    )
    + tuple(n for n in SPANNED if n.startswith("suites.")),
}
FORBIDDEN = {
    "duality_exact": ("highs.linprog",),
    "deep_tree_hedge": LP_LAYERS,
}


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _nrows(a):
    return 0 if a is None else len(a)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, item id)
        self.counts = Counter()
        self.maxima = Counter()
        self.item = None
        self._stack = []
        self._patches = []
        self._vertex_keys = set()

    # -- recording ------------------------------------------------------

    def _spanned(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.item)
            if after:
                after(state, out)
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _lp_shape(self, prefix, args, kwargs, eq_pos, ub_pos):
        rows = _nrows(_arg(args, kwargs, eq_pos, "A_eq")) + _nrows(_arg(args, kwargs, ub_pos, "A_ub"))
        cols = len(_arg(args, kwargs, 0, "c"))
        self.maxima[f"{prefix}.rows_max"] = max(self.maxima[f"{prefix}.rows_max"], rows)
        self.maxima[f"{prefix}.cols_max"] = max(self.maxima[f"{prefix}.cols_max"], cols)
        return self.counts["simplex.pivots"]

    def _after_solve(self, pivots_before, _out):
        n = self.counts["simplex.pivots"] - pivots_before
        self.maxima["simplex.pivots_max"] = max(self.maxima["simplex.pivots_max"], n)

    def _vertex_key(self, args, kwargs):
        tree, nid, fam = (_arg(args, kwargs, i, n) for i, n in enumerate(("tree", "nid", "fam")))
        steps = tuple(tree.step(nid, c) for c in tree.children(nid))
        key = (steps, fam.cls, fam.var_lo, fam.var_hi)
        if key in self._vertex_keys:
            self.counts["oracle_lp.vertex_enum_repeats"] += 1
        self._vertex_keys.add(key)

    def _after_vertices(self, _state, out):
        self.counts["oracle_lp.enumerate_vertex_kernels.vertices"] += len(out)

    def _after_build(self, _state, tree):
        self.counts["market_tree.nodes_built"] += len(tree.nodes)

    def _make(self, name, fn):
        # solve_lp(c, A_eq, b_eq, A_ub, ...) and linprog(c, A_ub, b_ub, A_eq, ...)
        if name == "simplex.solve_lp":
            return self._spanned(
                name, fn, lambda a, k: self._lp_shape("simplex", a, k, 1, 3), self._after_solve
            )
        if name == "highs.linprog":
            return self._spanned(name, fn, lambda a, k: self._lp_shape("highs", a, k, 3, 1))
        if name == "oracle_lp.enumerate_vertex_kernels":
            return self._spanned(name, fn, self._vertex_key, self._after_vertices)
        if name == "market_tree.build_tree":
            return self._spanned(name, fn, after=self._after_build)
        return self._spanned(name, fn)

    # -- patching -------------------------------------------------------

    def _patch_everywhere(self, module, attr, wrapper_for):
        orig = getattr(module, attr)
        wrapped = wrapper_for(orig)
        targets = [module] + [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and m is not module and n.split(".")[0] == "robusthedge"
        ]
        for mod in targets:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    @contextmanager
    def installed(self):
        import robusthedge.simplex  # noqa: F401  (modules must be loaded to be patched)
        import scipy.optimize  # noqa: F401

        try:
            for name, places in SPANNED.items():
                for modname, attr in places:
                    self._patch_everywhere(
                        sys.modules[modname], attr, lambda fn, n=name: self._make(n, fn)
                    )
            self._patch_everywhere(
                sys.modules["robusthedge.simplex"],
                "_pivot",
                lambda fn: self._counted("simplex.pivots", fn),
            )
            yield self
        finally:
            for mod, key, orig in reversed(self._patches):
                setattr(mod, key, orig)
            self._patches.clear()

    # -- aggregation ----------------------------------------------------

    def layer_times(self, weights=None):
        """name -> (calls, inclusive seconds, self seconds).  Inclusive time
        counts only the outermost span of a name, so nested calls of one
        layer are not counted twice.  With `weights` (item id -> weight),
        each span's seconds are multiplied by its item's weight."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent is not None:
                child[parent] += t1 - t0
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, parent, item) in enumerate(spans):
            w = weights[item] if weights else 1.0
            calls[name] += 1
            self_s[name] += w * ((t1 - t0) - child[i])
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                incl[name] += w * (t1 - t0)
        return {n: (calls[n], incl[n], self_s[n]) for n in SPANNED}

    def guard(self, workload: str) -> list:
        """Violations of the workload's required and forbidden layers."""
        times = self.layer_times()
        bad = [f"{n}: zero calls" for n in REQUIRED.get(workload, ()) if times[n][0] == 0]
        bad += [f"{n}: {times[n][0]} calls, expected none" for n in FORBIDDEN.get(workload, ()) if times[n][0]]
        if "simplex.solve_lp" in REQUIRED.get(workload, ()) and not self.counts["simplex.pivots"]:
            bad.append("simplex.pivots: zero pivots")
        return bad

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
