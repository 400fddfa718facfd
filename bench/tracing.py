"""Span shims around the public API of hwsynth, installed from outside.

Import this module only after `run.py` has pinned the BLAS thread count.

`Tracer.install()` wraps every public module-level function of the six
library modules, plus the methods listed in `METHODS`, and rebinds each
wrapper under every name that held the original anywhere in `hwsynth.*`
(e.g. `synthflow.unroll_forward`, `hlstm.activation_forward`): a binding
left unwrapped would hide its time inside the caller's self time. `src/`
is never edited.

Each call records one span (name, start_ns, end_ns, parent index, stage).
Spans stay in memory; `SpanSummary` reduces them to per-stage self and
inclusive times. Counts that are not times (live MACs, windows, halving
decisions) are recorded by per-function hooks at the same boundary.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("numkit", "hlstm", "corpus", "growprune", "latlab", "synthflow")

# (module, class, method) wrapped on the class itself.
METHODS = (
    ("numkit", "MaskedLinear", "forward"),
    ("numkit", "MaskedLinear", "backward"),
    ("synthflow", "Trainer", "epoch"),
    ("synthflow", "SynthesisFlow", "train_baseline"),
    ("synthflow", "SynthesisFlow", "step_weight_growth"),
    ("synthflow", "SynthesisFlow", "step_rc_prune"),
    ("synthflow", "SynthesisFlow", "step_rc_grow"),
    ("synthflow", "SynthesisFlow", "step_weight_prune"),
)

# Elementwise helpers whose time belongs to the caller's self time
# (the loss in bptt and evaluate).
UNWRAPPED = {"hlstm.softmax"}


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start_ns, end_ns, parent, stage)
        self.stage = ""
        self.macs = defaultdict(lambda: [0, 0])   # stage -> [live, executed]
        self.windows = 0
        self.decisions: list = []      # (stage, HalveDecision)
        self.traced_wall = 0.0         # s spent with the shims installed
        self._stack: list[int] = []
        self._patches: list = []       # (owner, attr, original)

    # - recording -

    def _wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def shim(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, self.stage)
            if hook is not None:
                hook(args, result)
            return result

        shim.__wrapped__ = fn
        return shim

    def _wrap_windows(self, fn):
        """batch_windows is a generator: count the windows it yields."""
        def shim(*args, **kwargs):
            for window in fn(*args, **kwargs):
                self.windows += 1
                yield window
        shim.__wrapped__ = fn
        return shim

    def _count_macs(self, args, _result):
        layer, x = args[0], args[1]
        rows = x.size // layer.in_dim
        acc = self.macs[self.stage]
        acc[0] += np.count_nonzero(layer.mask) * rows
        acc[1] += layer.w.size * rows

    def _record_decision(self, _args, result):
        self.decisions.append((self.stage, result[1]))

    # - installation -

    def install(self) -> None:
        mods = {m: sys.modules[f"hwsynth.{m}"] for m in MODULES}
        hooks = {"growprune.halve_on_violation": self._record_decision,
                 "growprune.halve_weight_ratio": self._record_decision}
        shims = {}                     # id(original) -> (original, shim)
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in UNWRAPPED):
                    continue
                if inspect.isgeneratorfunction(obj):
                    shim = self._wrap_windows(obj)
                else:
                    shim = self._wrap(name, obj, hooks.get(name))
                shims[id(obj)] = (obj, shim)
        # Rebind under every name in every hwsynth module, not only the home one.
        owners = [m for n, m in sorted(sys.modules.items())
                  if n == "hwsynth" or n.startswith("hwsynth.")]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = shims.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(owner, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            hook = self._count_macs if (cls_name, meth) == ("MaskedLinear", "forward") else None
            self._patch(cls, meth,
                        self._wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth), hook))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class SpanSummary:
    """Per-stage reductions of a span list."""

    def __init__(self, spans):
        self.spans = spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _stage in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.child_ns = child_ns
        self.self_ns = defaultdict(int)      # (stage, name) -> ns
        self.by_name = defaultdict(list)     # name -> span indices
        for i, (name, start, end, parent, stage) in enumerate(spans):
            self.self_ns[stage, name] += end - start - child_ns[i]
            self.by_name[name].append(i)

    def self_s(self, stage, *names) -> float:
        return sum(self.self_ns[stage, n] for n in names) / 1e9

    def _outermost(self, stage, names):
        """Spans named in `names` with no ancestor also named in `names`."""
        spans = self.spans
        for name in names:
            for i in self.by_name[name]:
                if spans[i][4] != stage:
                    continue
                parent = spans[i][3]
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    yield spans[i]

    def incl_s(self, stage, *names) -> float:
        return sum(end - start for _, start, end, _, _ in
                   self._outermost(stage, names)) / 1e9

    def attributed_s(self, self_names, incl_names) -> float:
        """Self time of the spans a layer metric reads: those named in
        `self_names`, and all spans at or below one named in `incl_names`."""
        under = [False] * len(self.spans)
        total = 0
        for i, (name, start, end, parent, _stage) in enumerate(self.spans):
            under[i] = name in incl_names or (parent >= 0 and under[parent])
            if under[i] or name in self_names:
                total += end - start - self.child_ns[i]
        return total / 1e9

    def count(self, stage, *names) -> int:
        return sum(1 for _ in self._outermost(stage, names))
