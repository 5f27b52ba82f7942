"""Layer spans recorded from outside the program.

`Tracer.install()` replaces the public functions of each framesmith layer
(and a few named methods) by timing wrappers.  Functions are rebound in every
framesmith module that imported them by name, so `from .trace import pair_sum`
call sites are traced too.  Each call opens a span under the innermost open
span; a span's self time is its duration minus the time of its direct child
spans.  Spans are aggregated in memory per (parent, name) edge, because some
layers (piecewise.eval) see millions of calls per op.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "construction", "folding", "intervals", "piecewise", "roots",
          "numeric", "trace", "verification", "quadrature", "frametest",
          "serialize")

# (module, class, attribute) -> span name, for methods that carry a layer's work
METHODS = {
    ("piecewise", "PiecewiseLinear", "eval"): "piecewise.eval",
    ("piecewise", "PiecewiseLinear", "compose_scale"): "piecewise.compose_scale",
    ("roots", "SqrtSum", "sqrt_of"): "roots.sqrt_of",
    ("roots", "SqrtSum", "__mul__"): "roots.mul",
    ("roots", "SqrtSum", "enclosure"): "roots.enclosure",
    ("roots", "SqrtSum", "sign_verdict"): "roots.sign_verdict",
    ("quadrature", "QuadPlan", "__init__"): "quadrature.plan_build",
    ("quadrature", "QuadPlan", "integrate"): "quadrature.integrate",
}

# cli subcommand handlers are reported under the subcommand name
RENAMES = {"cli.cmd_construct": "cli.construct", "cli.cmd_check": "cli.check",
           "cli.cmd_trace": "cli.trace", "cli.cmd_frame_test": "cli.frame_test",
           "cli.cmd_waveletset": "cli.waveletset",
           "cli.cmd_check_waveletset": "cli.check_waveletset",
           "cli.cmd_sample": "cli.sample"}

IDENTITY_CHECKS = ("trace.dilation_trace_check", "trace.trace_split_check",
                   "trace.series_identity_check", "trace.ntf_generator_test")


class Stat:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.edges: dict[tuple[str, str], Stat] = defaultdict(Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []      # [name, children_time]
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, active, stats, edges = self._stack, self._active, self.stats, self.edges
        after = _AFTER.get(name)
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else ""
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                active[name] -= 1
                self_time = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                st = stats[name]
                st.calls += 1
                st.self_s += self_time
                if not active[name]:   # inclusive time once per outermost call
                    st.s += dur
                ed = edges[(parent, name)]
                ed.calls += 1
                ed.s += dur
                ed.self_s += self_time
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "framesmith") -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")}
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != mod.__name__:
                    continue  # imported from another layer; traced there
                name = RENAMES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                replace[id(obj)] = (obj, self._wrap(name, obj))
        # rebind each traced function wherever a module holds it by name
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[f"{package}.{layer}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    # -- reporting ---------------------------------------------------------

    def call_tree(self) -> list[dict]:
        return [{"parent": p, "name": n, "calls": st.calls,
                 "s": st.s, "self_s": st.self_s}
                for (p, n), st in sorted(self.edges.items())]


# post-call counters: work done at a layer boundary, counted where it happens

def _plan_built(counts, args, kwargs, result):
    plan = args[0]
    counts["quadrature.nodes"] += len(plan.nodes)
    counts["quadrature.closed_cells"] += len(plan.closed)


def _integrated(counts, args, kwargs, result):
    plan, freqs = args[0], args[1] if len(args) > 1 else kwargs["freqs"]
    counts["quadrature.freqs"] += len(freqs)
    # bytes of the dense exp(i*outer(freqs, nodes)) block, complex128
    counts["quadrature.phase_bytes_computed"] += 16 * len(freqs) * len(plan.nodes)


def _energy_done(counts, args, kwargs, result):
    counts["frametest.k_swept"] += sum(s.k_used for s in result.scales)


def _verdict_done(counts, args, kwargs, result):
    if result == "uncertain":
        counts["roots.sign_verdict.uncertain"] += 1


def _grid_walked(counts, args, kwargs, result):
    counts["trace.grid_points"] += len({row.xi for row in result})


_AFTER = {
    "quadrature.plan_build": _plan_built,
    "quadrature.integrate": _integrated,
    "frametest.frame_energy": _energy_done,
    "roots.sign_verdict": _verdict_done,
    **{name: _grid_walked for name in IDENTITY_CHECKS},
}

