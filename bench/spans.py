"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: the benchmark calls
each layer through a wrapper, and for calls that cross a module boundary
inside the package (the names ``solver`` imports from ``quasisaw`` and
``syntax``, and the helpers ``plane`` calls itself) the module attribute
is swapped for a wrapper while a traced pass runs and restored after.

A span is (name, start_ns, end_ns, parent index, query id).  A layer's
self time is its span's duration minus the time its child spans cover;
spans nest strictly because every call is synchronous.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# (module attribute, span name) for every call that crosses a layer
# boundary inside the package.  Recursive functions are wrapped only
# where another module calls them, so a recursion is one span.
PATCHES = {
    "solver": [
        ("check", "quasisaw.check"),
        ("oracle_check", "quasisaw.oracle_check"),
        ("classify_frame", "quasisaw.classify_frame"),
        ("verify", "solver.verify"),
        ("variables", "syntax.variables"),
        ("language_of", "syntax.language_of"),
        ("to_bullet", "syntax.to_bullet"),
    ],
    "plane": [
        ("validate_scene", "plane.validate_scene"),
        ("build_arrangement", "plane.build_arrangement"),
    ],
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1
        self.counts: dict[str, int] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def patched(self, modules: dict):
        """Swap the boundary names of ``modules`` (short name -> module)
        for traced wrappers; restore them on exit."""
        saved = []
        try:
            for mod_name, names in PATCHES.items():
                mod = modules[mod_name]
                for attr, span in names:
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self.wrap(span, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, inclusive and self time in ms."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            agg["calls"] += 1
            agg["ms"] += (end - start) / 1e6
            agg["self_ms"] += (end - start - covered[i]) / 1e6
        return out

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tquery\n")
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{query}\n")
