"""Per-layer tracing of `affmv` from outside the library.

Every public function of the nine modules is replaced, in its own module
and in every module (or module-level dict) that bound it by name, with a
wrapper that counts the call and records a span: the function, its
parent span, the operation it belongs to, start and duration.  A layer's
self time is the time inside its public calls minus the time spent in
nested traced calls, scaled per operation by the reference-loop clock.
Spans are kept in memory, for the first traced round only (every round
repeats the same operations) and at most `SPAN_CAP` of them, and written
out at the end; the counts and self times cover every traced round.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from typing import Callable

LAYERS = (
    "roots", "lusztig", "polytope", "transition", "crystal",
    "verify", "documents", "render", "cli",
)
_REQUESTS = {
    "complete_from_left": "left",
    "complete_from_right": "right",
    "transition_l_to_r": "left",
    "transition_r_to_l": "right",
}
# The cli and verify rounds make over a million public calls, mostly
# ladder lookups in `roots`; the cap keeps the span file to a few MB.
SPAN_CAP = 250_000
# Counted per round besides the per-function calls.
EXTRA_COUNTERS = (
    "transition.mv_checks",
    "transition.requests",
    "transition.repeats",
    "lusztig.enumerate_data.items",
    "crystal.graph_nodes",
    "documents.bytes_out",
)


class Tracer:
    def __init__(self) -> None:
        self.funcs: list[str] = []
        self.func_layer: list[int] = []
        self.calls: list[int] = []
        self.counters = dict.fromkeys(EXTRA_COUNTERS, 0)
        self.self_s = [0.0] * len(LAYERS)
        self._self_raw = [0.0] * len(LAYERS)
        self._seen: set = set()
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self.recording = True
        self.op = -1
        self.span_parent = array("q")
        self.span_func = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.op_scale: dict[int, float] = {}

    # -- operations ---------------------------------------------------

    def begin_op(self, index: int) -> None:
        self.op = index

    def end_op(self, scale: float) -> None:
        """Fold the operation's raw self times in at its clock scale."""
        for i, raw in enumerate(self._self_raw):
            self.self_s[i] += raw * scale
            self._self_raw[i] = 0.0
        if self.recording:
            self.op_scale[self.op] = scale

    def cache_cleared(self) -> None:
        self._seen.clear()

    # -- wrappers -----------------------------------------------------

    def _wrap(self, name: str, layer: int, fn: Callable,
              before: Callable | None, after: Callable | None) -> Callable:
        fid = len(self.funcs)
        self.funcs.append(name)
        self.func_layer.append(layer)
        self.calls.append(0)
        calls, stack, child, self_raw = self.calls, self._stack, self._child, self._self_raw
        pc = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if before is not None:
                before(args, kwargs)
            sid = -1
            if self.recording and len(self.span_start) < SPAN_CAP:
                sid = len(self.span_start)
                self.span_parent.append(stack[-1] if stack else -1)
                self.span_func.append(fid)
                self.span_op.append(self.op)
                self.span_dur.append(0.0)
            stack.append(sid)
            child.append(0.0)
            t0 = pc()
            if sid >= 0:
                self.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = pc() - t0
                stack.pop()
                inner = child.pop()
                if child:
                    child[-1] += dur
                self_raw[layer] += dur - inner
                if sid >= 0:
                    self.span_dur[sid] = dur
            if after is not None:
                after(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__traced_original__ = fn
        return wrapper

    def _hooks(self, layer: str, name: str, binder: str):
        counters = self.counters

        def count(key: str, size: Callable[[object], int]):
            def after(result) -> None:
                counters[key] += size(result)
            return after

        if layer == "transition" and name in _REQUESTS:
            side = _REQUESTS[name]

            def request(args, kwargs) -> None:
                solver = kwargs.get("solver", args[1] if len(args) > 1 else "dfs")
                key = (solver, side, args[0])
                if key in self._seen:
                    counters["transition.repeats"] += 1
                else:
                    self._seen.add(key)
                    counters["transition.requests"] += 1
            return request, None
        if layer == "transition" and name == "clear_cache":
            return lambda args, kwargs: self._seen.clear(), None
        if layer == "polytope" and name == "mv_violations" and binder == "transition":
            def mv_check(args, kwargs) -> None:
                counters["transition.mv_checks"] += 1
            return mv_check, None
        if layer == "lusztig" and name == "enumerate_data":
            return None, count("lusztig.enumerate_data.items", len)
        if layer == "crystal" and name == "crystal_graph":
            return None, count("crystal.graph_nodes", lambda g: len(g.nodes))
        if layer == "documents" and name in ("dumps", "graph_to_dot"):
            return None, count("documents.bytes_out", lambda s: len(s.encode()))
        return None, None

    def install(self) -> None:
        import affmv

        modules = {name: importlib.import_module(f"affmv.{name}") for name in LAYERS}
        originals: dict[int, tuple[str, str, object]] = {}
        for layer, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if callable(fn) and not isinstance(fn, type) \
                        and getattr(fn, "__module__", None) == mod.__name__:
                    originals[id(fn)] = (layer, name, fn)
        wrappers: dict[tuple[int, str], Callable] = {}

        def wrapper_for(fn_id: int, binder: str) -> Callable:
            layer, name, fn = originals[fn_id]
            before, after = self._hooks(layer, name, binder)
            key = (fn_id, binder if before or after else "")
            if key not in wrappers:
                label = f"{layer}.{name}" + (f"@{binder}" if key[1] else "")
                wrappers[key] = self._wrap(label, LAYERS.index(layer), fn, before, after)
            return wrappers[key]

        binders = dict(modules, affmv=affmv)
        for binder, mod in binders.items():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    self._patch(mod, attr, value, wrapper_for(id(value), binder), False)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals:
                            self._patch(value, key, item, wrapper_for(id(item), binder), True)

    def _patch(self, target, key, original, wrapper, is_dict: bool) -> None:
        if is_dict:
            target[key] = wrapper
        else:
            setattr(target, key, wrapper)
        self._patches.append((target, key, original, is_dict))

    def uninstall(self) -> None:
        for target, key, original, is_dict in reversed(self._patches):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- results ------------------------------------------------------

    def layer_calls(self) -> list[int]:
        out = [0] * len(LAYERS)
        for fid, n in enumerate(self.calls):
            out[self.func_layer[fid]] += n
        return out

    def function_calls(self, qualified: str) -> int:
        """Calls of one function, summed over its binding-specific wrappers."""
        return sum(
            n for name, n in zip(self.funcs, self.calls)
            if name.split("@")[0] == qualified
        )

    def write_spans(self, path: str, labels: list[str]) -> int:
        """Write the recorded spans as gzipped TSV; returns the span count."""
        n = len(self.span_start)
        origin = self.span_start[0] if n else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\top\top_label\tfunction\tstart_s\tdur_s\tdur_norm_s\n")
            for i in range(n):
                op = self.span_op[i]
                dur = self.span_dur[i]
                out.write(
                    f"{i}\t{self.span_parent[i]}\t{op}\t{labels[op]}\t"
                    f"{self.funcs[self.span_func[i]].split('@')[0]}\t"
                    f"{self.span_start[i] - origin:.9f}\t{dur:.9f}\t"
                    f"{dur * self.op_scale.get(op, 1.0):.9f}\n"
                )
        return n
