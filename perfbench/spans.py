"""In-memory span recorder for the traced benchmark run (stdlib only).

``SpanRecorder.install`` wraps public functions of the program by rebinding
each name in every loaded module that holds it (``from .normal import
bvn_cdf`` copies the name into ``economy``, ``welfare`` and ``oracle``, so
all those bindings are replaced). Each call becomes a span: name, start,
end, parent span and op id. ``uninstall`` restores every binding. Spans stay
in compact arrays until ``write`` stores them at the end of the run.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array


class SpanRecorder:
    def __init__(self, package: str):
        self.package = package
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.values: dict[str, float] = {}
        self.current_op = -1
        #: spans are recorded only while enabled (the benchmark's own checks run disabled)
        self.enabled = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def add(self, key: str, value: float) -> None:
        """Accumulate a value the traced code reported (e.g. solver iterations)."""
        self.values[key] = self.values.get(key, 0.0) + value

    def _wrapper(self, fn, name: str, label=None, observe=None, around=None):
        fixed = self.code(name)
        codes, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(starts)
            codes.append(fixed if label is None else self.code(label(args, kwargs)))
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs) if around is None else around(fn, args, kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, module_name: str, attr: str, name: str, **hooks) -> None:
        """Trace ``module_name.attr`` under span ``name`` wherever it is bound.

        A module that was never imported runs no code, so it is skipped.
        """
        if module_name not in sys.modules:
            return
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._wrapper(original, name, **hooks)
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def __len__(self) -> int:
        return len(self.start)

    def summary(self, enclosing: tuple[str, ...] = ()) -> dict:
        """Per span name: calls, inclusive and self seconds.

        A span's self time is its duration minus the durations of its direct
        children. For each name in ``enclosing``, calls are also counted under
        ``"<name> in <enclosing>"`` when that span has such an ancestor.
        """
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        # parents precede children, so one forward pass finds enclosing spans
        inside = {e: bytearray(n) for e in enclosing}
        enc_codes = {e: self._codes.get(e, -1) for e in enclosing}
        stats: dict[str, list[float]] = {}
        for i in range(n):
            nm = self.names[self.name[i]]
            s = stats.setdefault(nm, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += dur[i]
            s[2] += dur[i] - child[i]
            p = self.parent[i]
            for e, flags in inside.items():
                if p >= 0 and (flags[p] or self.name[p] == enc_codes[e]):
                    flags[i] = 1
                    key = f"{nm} in {e}"
                    stats.setdefault(key, [0, 0.0, 0.0])[0] += 1
        return {k: {"calls": int(v[0]), "total_s": v[1], "self_s": v[2]} for k, v in stats.items()}

    def write(self, path: str) -> None:
        """Store every span as gzip'd CSV: id, name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("id,name,start,end,parent,op\n")
            names, t0 = self.names, (self.start[0] if len(self.start) else 0.0)
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{names[self.name[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op[i]}\n"
                )
