"""Spans around calls into the public functions of each cochoice module.

``Tracer.install`` replaces each function in ``TRACED`` with a wrapper in
every namespace that holds it, for example both ``cochoice.harness.canon_key``
and ``cochoice.target.canon_key``. A wrapper records a span only for the
outermost call of its function, so recursion through a module global
(``src_step_all``, ``erase``, ``effect_typecheck``) costs one span per call
from outside, not one per node.

Spans stay in memory as parallel arrays (name, start, end, parent span,
program id) and are written out by ``write``. Self time is kept as spans
close: a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# module -> {public function: short name used in metric names}
TRACED = {
    "harness": {
        "check_strong_bisim": "strong_bisim",
        "check_weak_bisim_pseudo": "weak_bisim",
        "end_to_end": "end_to_end",
        "check_subject_reduction": "subject_reduction",
        "check_non_coordination": "non_coordination",
    },
    "syntax": {n: n for n in ("canon_key", "subst_term", "name_subst", "alpha_eq")},
    "source": {n: n for n in ("src_step_all", "src_eval", "src_typecheck")},
    "target": {n: n for n in ("tgt_step_all", "tgt_step_nc", "effect_typecheck",
                              "subtype", "tgt_eval")},
    "effects": {n: n for n in ("includes", "overlap_witness")},
    "compiler": {n: n for n in ("compile_expr", "erase", "pseudo_compile")},
    "parser": {"parse": "parse"},
    "printer": {"format_expr": "format_expr"},
}
# lru_cache functions whose hit ratio and size are read from cache_info()
CACHED = {"syntax": ["canon_key"], "effects": ["deriv"],
          "compiler": ["erase", "pseudo_compile"]}
# A program span covers all checks of one program. Its self time, the time
# in no traced function, is reported as the layer "other".
PROGRAM = "program"


class Tracer:
    def __init__(self):
        self.names = [PROGRAM] + [f"{m}.{s}" for m, fns in TRACED.items()
                                  for s in fns.values()]
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.program = array("q")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.current_program = -1
        self._open: list = []   # indices of open spans, innermost last
        self._child: list = []  # time covered by children of each open span
        self._caches: dict = {}

    def wrap(self, label: str, fn):
        name_id = self.names.index(label)
        busy = False

        def traced(*args, **kwargs):
            nonlocal busy
            if busy:
                return fn(*args, **kwargs)
            busy = True
            idx = len(self.name)
            self.name.append(name_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(self._open[-1] if self._open else -1)
            self.program.append(self.current_program)
            self._open.append(idx)
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                busy = False
                self._open.pop()
                d = t1 - t0
                self.self_s[name_id] += d - self._child.pop()
                if self._child:
                    self._child[-1] += d
                self.calls[name_id] += 1
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded cochoice namespace."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "cochoice" or n.startswith("cochoice.")]
        for mod, fns in CACHED.items():
            for fn_name in fns:
                # kept before wrapping: a wrapper has no cache_info()
                self._caches[f"{mod}.{fn_name}"] = getattr(
                    sys.modules[f"cochoice.{mod}"], fn_name)
        for mod, fns in TRACED.items():
            home = sys.modules[f"cochoice.{mod}"]
            for fn_name, short in fns.items():
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod}.{short}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)

    def metrics(self) -> dict:
        """Calls, self seconds and cache figures, keyed by metric name."""
        out = {}
        for i, label in enumerate(self.names):
            out[f"{label}.calls"] = self.calls[i]
            out[f"{label}.s"] = self.self_s[i]
        for layer in TRACED:
            out[f"{layer}.s"] = sum(self.self_s[i] for i, label in enumerate(self.names)
                                    if label.startswith(layer + "."))
        out["other.s"] = self.self_s[0]
        for label, cached in self._caches.items():
            info = cached.cache_info()
            lookups = info.hits + info.misses
            out[f"{label}.hit_ratio"] = info.hits / lookups if lookups else 0.0
            out[f"{label}.entries"] = info.currsize
        return out

    def write(self, path: Path) -> None:
        """Spans as raw native-endian columns after a one-line JSON header."""
        columns = ["name", "start", "end", "parent", "program"]
        header = {"names": self.names, "spans": len(self.start),
                  "columns": {c: getattr(self, c).typecode for c in columns}}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(f)


def read_spans(path: Path) -> dict:
    """The columns written by ``Tracer.write``, as arrays, and the names."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        cols = {}
        for c, code in header["columns"].items():
            a = array(code)
            a.fromfile(f, header["spans"])
            cols[c] = a
    cols["names"] = header["names"]
    return cols
