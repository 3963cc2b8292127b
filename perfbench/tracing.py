"""Span recorder that times each ``padic_potts`` module from outside.

``Tracer.install`` wraps every public function of the layer modules, and
every public method and classmethod of their public classes, in a wrapper
that records a span (name, start, end, parent, op).  The wrapper replaces
the binding in every ``padic_potts`` module that holds the function, so a
module that did ``from .padic_analytic import exp_p`` calls the wrapper too.
``uninstall`` puts every original back.

Self time is accumulated online (a span's duration minus the time its child
spans cover), so it is exact for every call.  The first ``MAX_SPANS`` spans
are also kept in memory and written out when the run ends.

A few boundaries carry counters beside their span: exp_p arguments (to see
how many are distinct within an op), roots returned by the Hensel search,
witnesses in a phase report, vertices returned by the tree queries, Prime
validations and PrecisionExhausted raised.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from types import FunctionType

LAYERS = ("padic_core", "padic_analytic", "cayley_tree", "potts_model", "gibbs_solver", "cli")

# functions the per-layer metrics single out, by "<layer>:<qualname>"
EXP = "padic_analytic:exp_p"
LOG = "padic_analytic:log_p"
HENSEL = "padic_analytic:hensel_roots_in_disk"
ARITH = tuple(f"padic_core:PadicNumber.{m}" for m in ("add", "mul", "inverse", "neg"))
VALUATION = "padic_core:rational_valuation"
PRIME = "padic_core:Prime.__post_init__"
FMAP = "gibbs_solver:f_map_z"
CLASSIFY = "gibbs_solver:classify_phase"
TREE_LISTS = tuple(f"cayley_tree:{f}" for f in ("sphere", "ball", "direct_successors"))

PACKAGE = "padic_potts"
MAX_SPANS = 100_000  # spans kept in memory and written out; counters see every call


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s = Counter()  # layer -> time in its outermost spans
        self.counters = Counter()
        self.spans: list[tuple] = []
        self.seq = 0
        self.op = -1
        self._stack: list[list] = []
        self._depth = Counter()
        self._patches: list[tuple] = []
        self._exp_keys: set = set()
        self._targets_cache: list | None = None

    # -- bookkeeping ---------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._exp_keys = set()

    def end_op(self) -> None:
        self.counters["exp_distinct"] += len(self._exp_keys)

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _hook(self, name: str):
        if name == EXP:
            def hook(args, kwargs, result):
                x = args[0]
                prec = args[1] if len(args) > 1 else kwargs.get("precision")
                self._exp_keys.add((x.value, x.prime.value, x.precision, x.known_abs, prec))
            return hook
        if name == HENSEL:
            return lambda args, kwargs, result: self._count("hensel_roots", len(result))
        if name == CLASSIFY:
            return lambda args, kwargs, result: self._count("witnesses", len(result.witnesses))
        if name in TREE_LISTS:
            return lambda args, kwargs, result: self._count("vertices_returned", len(result))
        return None

    def _count(self, key: str, n: int) -> None:
        self.counters[key] += n

    def _wrap(self, fn, name: str, layer: str):
        fid = self._register(name, layer)
        hook = self._hook(name)
        perf = time.perf_counter
        stack = self._stack
        depth = self._depth
        calls, self_s, spans = self.calls, self.self_s, self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            seq = tracer.seq
            tracer.seq = seq + 1
            outer = depth[layer] == 0
            depth[layer] += 1
            frame = [perf(), 0.0, seq]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                end = perf()
                stack.pop()
                depth[layer] -= 1
                start = frame[0]
                dur = end - start
                calls[fid] += 1
                self_s[fid] += dur - frame[1]
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][2]
                if outer:
                    tracer.incl_s[layer] += dur
                if seq < MAX_SPANS:
                    spans.append((seq, fid, start, end, parent, tracer.op))

        return wrapper

    # -- patching ------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, replacement) for every binding to patch."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        wrapped: dict[int, object] = {}
        out = []
        for modname, mod in sorted(modules.items()):
            layer = modname.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if isinstance(obj, FunctionType):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}:{attr}", layer)
                elif isinstance(obj, type):
                    out.extend(self._class_targets(obj, layer))
        for modname, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    out.append((mod, attr, obj, wrapped[id(obj)]))
        return out

    def _class_targets(self, cls, layer):
        out = []
        for attr, obj in sorted(vars(cls).items()):
            special = f"{cls.__name__}.{attr}" == PRIME.split(":")[1]
            if attr.startswith("_") and not special:
                continue
            name = f"{layer}:{cls.__name__}.{attr}"
            if isinstance(obj, FunctionType):
                out.append((cls, attr, obj, self._wrap(obj, name, layer)))
            elif isinstance(obj, (classmethod, staticmethod)):
                kind = type(obj)
                out.append((cls, attr, obj, kind(self._wrap(obj.__func__, name, layer))))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self._targets_cache is None:
            self._targets_cache = self._targets() + self._error_counter()
        for owner, attr, orig, repl in self._targets_cache:
            setattr(owner, attr, repl)
            self._patches.append((owner, attr, orig))

    def _error_counter(self) -> list:
        errors = sys.modules.get(PACKAGE + ".errors")
        cls = getattr(errors, "PrecisionExhausted", None)
        if cls is None:
            return []
        orig = cls.__init__

        @functools.wraps(orig)
        def init(obj, *args, **kwargs):
            self.counters["precision_exhausted"] += 1
            orig(obj, *args, **kwargs)

        return [(cls, "__init__", orig, init)]

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- results ---------------------------------------------------------------

    def _sum(self, names, table) -> float:
        if isinstance(names, str):
            names = (names,)
        return sum(table[i] for i, n in enumerate(self.names) if n in names)

    def _layer_sum(self, layer: str, table) -> float:
        return sum(table[i] for i, l in enumerate(self.layer_of) if l == layer)

    def layer_metrics(self, ops: int, configs: int, stdout_bytes: int, overhead: float) -> dict:
        """Per-layer metrics, counts and times given per operation."""
        per = 1.0 / max(ops, 1)
        c, s = self.calls, self.self_s
        exp_calls = self._sum(EXP, c)
        m = {
            "potts_model.calls": (self._layer_sum("potts_model", c) * per, "count/op"),
            "potts_model.self_s": (self._layer_sum("potts_model", s) * per, "s/op"),
            "potts_model.configs": (configs * per, "count/op"),
            "potts_model.configs_per_s": (
                configs / self.incl_s["potts_model"] if self.incl_s["potts_model"] else 0.0, "1/s"),
            "padic_analytic.self_s": (self._layer_sum("padic_analytic", s) * per, "s/op"),
            "padic_analytic.exp_calls": (exp_calls * per, "count/op"),
            "padic_analytic.exp_self_s": (self._sum(EXP, s) * per, "s/op"),
            "padic_analytic.exp_distinct_ratio": (
                self.counters["exp_distinct"] / exp_calls if exp_calls else 0.0, "ratio"),
            "padic_analytic.log_calls": (self._sum(LOG, c) * per, "count/op"),
            "padic_analytic.log_self_s": (self._sum(LOG, s) * per, "s/op"),
            "padic_analytic.hensel_calls": (self._sum(HENSEL, c) * per, "count/op"),
            "padic_analytic.hensel_self_s": (self._sum(HENSEL, s) * per, "s/op"),
            "padic_analytic.hensel_roots": (self.counters["hensel_roots"] * per, "count/op"),
            "padic_core.self_s": (self._layer_sum("padic_core", s) * per, "s/op"),
            "padic_core.arith_calls": (self._sum(ARITH, c) * per, "count/op"),
            "padic_core.arith_self_s": (self._sum(ARITH, s) * per, "s/op"),
            "padic_core.valuation_calls": (self._sum(VALUATION, c) * per, "count/op"),
            "padic_core.valuation_self_s": (self._sum(VALUATION, s) * per, "s/op"),
            "padic_core.prime_constructions": (self._sum(PRIME, c) * per, "count/op"),
            "padic_core.precision_exhausted": (self.counters["precision_exhausted"] * per, "count/op"),
            "gibbs_solver.calls": (self._layer_sum("gibbs_solver", c) * per, "count/op"),
            "gibbs_solver.self_s": (self._layer_sum("gibbs_solver", s) * per, "s/op"),
            "gibbs_solver.fmap_calls": (self._sum(FMAP, c) * per, "count/op"),
            "gibbs_solver.witnesses": (self.counters["witnesses"] * per, "count/op"),
            "cayley_tree.calls": (self._layer_sum("cayley_tree", c) * per, "count/op"),
            "cayley_tree.self_s": (self._layer_sum("cayley_tree", s) * per, "s/op"),
            "cayley_tree.vertices_returned": (self.counters["vertices_returned"] * per, "count/op"),
            "cli.self_s": (self._layer_sum("cli", s) * per, "s/op"),
            "cli.stdout_bytes": (stdout_bytes * per, "B/op"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def write_spans(self, path) -> None:
        """The kept spans as JSON lines: seq, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans_kept": len(self.spans), "spans_total": self.seq}) + "\n")
            for seq, fid, start, end, parent, op in sorted(self.spans):
                fh.write(json.dumps([seq, self.names[fid], round(start, 9), round(end, 9),
                                     parent, op]) + "\n")
