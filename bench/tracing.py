"""Layer tracing from outside the library.

`Tracer.install` replaces each traced public function, in every
``outerspace`` module namespace that binds it, by a wrapper that records a
span (name, start, end, parent span, op id) and a few counts taken at the
call boundary; `Tracer.uninstall` restores every original binding.  Spans stay
in memory as parallel arrays; `Tracer.layer_metrics` turns them into calls and
self times (span time minus the time of wrapped child spans), measured by
the duration function it is given.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (module, function) pairs, in the order their metrics are reported
TRACED = [
    ("words", "free_reduce"),
    ("words", "apply_endomorphism"),
    ("graphs", "derive_inverse_marking"),
    ("graphs", "translation_length"),
    ("graphs", "word_of_loop"),
    ("graphs", "subdivide"),
    ("stretch", "enumerate_candidates"),
    ("stretch", "lambda_r"),
    ("plmaps", "optimize_pl_map"),
    ("plmaps", "next_v"),
    ("plmaps", "stretch_analysis"),
    ("folding", "prepare_folding_setup"),
    ("folding", "fast_fold"),
    ("folding", "fold_step"),
    ("folding", "check_four_point"),
    ("folding", "check_dR_geodesic"),
]


def topology_key(G) -> tuple:
    """The combinatorial type: the candidate set depends on nothing else."""
    return tuple(sorted((e, o, t) for e, (o, t, _) in G.edges.items()))


def point_key(G) -> tuple:
    """A marked metric graph as a value: topology, lengths and marking."""
    return (tuple(sorted(G.edges.items())), G.basepoint, G.marking)


class Tracer:
    def __init__(self):
        self.names: list[str] = [f"{m}.{f}" for m, f in TRACED]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.star_calls = 0
        self.candidates = 0
        self.seen_types: set = set()
        self.type_repeats = 0
        self.seen_pairs: set = set()
        self.pair_repeats = 0
        self.certified = 0
        self.fold_events = 0
        self.saved: list[tuple] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "outerspace" or n.startswith("outerspace.")]
        try:
            for mod_name, fn_name in TRACED:
                module = sys.modules[f"outerspace.{mod_name}"]
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in mods:
                    if getattr(mod, fn_name, None) is original:
                        self.saved.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)
            graph_cls = sys.modules["outerspace.graphs"].MarkedMetricGraph
            star = graph_cls.star

            def counted_star(g, v):
                self.star_calls += 1
                return star(g, v)

            self.saved.append((graph_cls, "star", star))
            graph_cls.star = counted_star
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self.saved:
            owner, name, original = self.saved.pop()
            setattr(owner, name, original)

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        after = {
            "stretch.enumerate_candidates": self._after_enumerate,
            "stretch.lambda_r": self._after_lambda_r,
            "plmaps.optimize_pl_map": self._after_optimize,
            "folding.fast_fold": self._after_fast_fold,
        }.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counts taken at the boundary -----------------------------------------

    def _after_enumerate(self, args, result) -> None:
        self.candidates += len(result)
        key = topology_key(args[0])
        if key in self.seen_types:
            self.type_repeats += 1
        self.seen_types.add(key)

    def _after_lambda_r(self, args, result) -> None:
        key = (point_key(args[0]), point_key(args[1]))
        if key in self.seen_pairs:
            self.pair_repeats += 1
        self.seen_pairs.add(key)

    def _after_optimize(self, args, result) -> None:
        self.certified += 1

    def _after_fast_fold(self, args, result) -> None:
        self.fold_events += len(result.events) - 1

    # -- aggregation ----------------------------------------------------------

    def self_times(self, duration=lambda start, end: end - start
                   ) -> list[float]:
        """Per span, ``duration(start, end)`` minus that of its children."""
        n = len(self.span_name)
        own = [duration(self.span_start[i], self.span_end[i])
               for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += own[i]
        return [own[i] - child[i] for i in range(n)]

    def layer_metrics(self, duration=lambda start, end: end - start
                      ) -> dict:
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, s in zip(self.span_name, self.self_times(duration)):
            calls[nid] += 1
            self_s[nid] += s
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[nid], "count")
            out[f"{name}.self_s"] = (self_s[nid], "s")
        ncalls = dict(zip(self.names, calls))
        enum_calls = ncalls["stretch.enumerate_candidates"]
        lam_calls = ncalls["stretch.lambda_r"]
        opt_calls = ncalls["plmaps.optimize_pl_map"]
        out["stretch.candidates_per_call"] = (
            self.candidates / enum_calls if enum_calls else 0.0, "count")
        out["stretch.enumerate_candidates.repeat_share"] = (
            self.type_repeats / enum_calls if enum_calls else 0.0, "ratio")
        out["stretch.lambda_r.repeat_share"] = (
            self.pair_repeats / lam_calls if lam_calls else 0.0, "ratio")
        out["plmaps.optimize_pl_map.certified_share"] = (
            self.certified / opt_calls if opt_calls else 0.0, "ratio")
        out["folding.fast_fold.events"] = (self.fold_events, "count")
        out["graphs.star.calls"] = (self.star_calls, "count")
        return out

    def calls_in_ops(self, ops) -> dict:
        """Calls of each traced function made by the ops whose ids are in
        ``ops``."""
        calls = dict.fromkeys(self.names, 0)
        for nid, op in zip(self.span_name, self.span_op):
            if op in ops:
                calls[self.names[nid]] += 1
        return calls

    def spans(self):
        """(name, start, end, parent span, op id) for every span."""
        for i in range(len(self.span_name)):
            yield (self.names[self.span_name[i]], self.span_start[i],
                   self.span_end[i], self.span_parent[i], self.span_op[i])
