"""Outside-in layer tracing for the benchmark.

Spans are recorded by wrapping public functions of ``sl2bounds`` at every
module attribute through which a caller looks them up (``bounds.build``,
``cli.build``, ``sl2branch.full_weight_values``, ...).  Nothing inside the
package changes.  Spans stay in memory; each has a parent, and a span's
self time is its duration minus that of its direct children.

Only public functions are wrapped: private helpers such as
``character._orbit_fill`` are implementation details that the changes this
benchmark compares are free to rename or remove.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

# span name -> (defining module, public function)
TRACED = {
    "rootsys.build": ("rootsys", "build"),
    "sl2branch.sl2_decompose": ("sl2branch", "sl2_decompose"),
    "sl2branch.invariant_dim": ("sl2branch", "invariant_dim"),
    "sl2branch.g0": ("sl2branch", "g0"),
    "semigroup.complement": ("semigroup", "complement"),
    "bounds.parabolic_table": ("bounds", "parabolic_table"),
    "bounds.levi_ss_components": ("bounds", "levi_ss_components"),
    "bounds.e_value": ("bounds", "e_value"),
    "bounds.E_set": ("bounds", "E_set"),
    "bounds.b_bound": ("bounds", "b_bound"),
    "cli.main": ("cli", "main"),
}
# full_weight_values builds the character box on the first request for a
# (type, lambda) in the process and reuses it afterwards, so its spans are
# split into these two names.
FIRST, REPEAT = "character.first_touch", "character.repeat"
SPAN_NAMES = (*TRACED, FIRST, REPEAT)
MODULES = ("rootsys", "character", "sl2branch", "semigroup", "bounds", "cli")


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock  # seconds; the pass's clock skips its probe time
        self.spans = []     # [name, start, end, parent index, raised]
        self._open = []     # indices of spans not yet ended
        self.touched = {}   # (fingerprint, lambda) -> (rs, lam), first touches
        self.histograms = set()  # distinct (fingerprint, lambda, marks)
        self.fwv_calls = 0
        self.cells_scanned = 0
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fn, name_of):
        spans, open_, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            span = [name_of(args, kwargs), clock(), 0.0,
                    open_[-1] if open_ else None, False]
            open_.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                open_.pop()
        return traced

    def _character_span(self, args, kwargs):
        rs, lam, marks = args[:3]
        key = (rs.fingerprint, lam.coords)
        self.fwv_calls += 1
        self.histograms.add((*key, tuple(int(m) for m in marks)))
        if key in self.touched:
            return REPEAT
        self.touched[key] = (rs, lam)
        return FIRST

    def _complement_span(self, sig):
        def name_of(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            gs, box_bound = bound.arguments["gs"], bound.arguments["box_bound"]
            self.cells_scanned += (box_bound + 1) ** gs.r
            return "semigroup.complement"
        return name_of

    def install(self, sl2bounds):
        """Wrap every traced function at each module attribute holding it."""
        modules = {m: importlib.import_module(f"sl2bounds.{m}") for m in MODULES}
        wrappers = {}
        for name, (mod, attr) in TRACED.items():
            fn = getattr(modules[mod], attr)
            if name == "semigroup.complement":
                name_of = self._complement_span(inspect.signature(fn))
            else:
                name_of = lambda args, kwargs, name=name: name
            wrappers[fn] = self._wrap(fn, name_of)
        fwv = modules["character"].full_weight_values
        wrappers[fwv] = self._wrap(fwv, self._character_span)
        for mod in (sl2bounds, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layers(self, sl2bounds, box_cells) -> dict:
        """Per-layer metrics of the spans recorded so far: calls, self time
        and errors per traced name, plus the exact work counters."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.errors"] = 0
        for (name, start, end, _, raised), inner in zip(self.spans, child_s):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - inner
            out[f"{name}.errors"] += raised

        levi_builds = 0
        for name, _, _, parent, _ in self.spans:
            if name == "rootsys.build" and self._under(parent, "bounds.levi_ss_components"):
                levi_builds += 1
        levis = out["bounds.levi_ss_components.calls"]
        out["bounds.builds_per_levi"] = levi_builds / levis if levis else 0.0
        out["sl2branch.histogram_useful_ratio"] = (
            len(self.histograms) / self.fwv_calls if self.fwv_calls else 0.0)
        out["semigroup.cells_scanned"] = self.cells_scanned
        out["character.box_cells"] = sum(
            box_cells(sl2bounds, rs, lam) for rs, lam in self.touched.values())
        # Every dominant weight below lambda occurs in L(lambda), so this
        # counts the dominant weights the recursion visits.  The boxes are
        # cached, so these calls recompute nothing.
        out["character.dominant_weights"] = sum(
            len(sl2bounds.dominant_character(rs, lam).mults)
            for rs, lam in self.touched.values())
        return out

    def _under(self, idx, name) -> bool:
        while idx is not None:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def self_total_s(self) -> float:
        """Sum of self times of all spans: the time some layer accounts for."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent is None)
