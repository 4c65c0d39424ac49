"""Spans around the calls into each layer of minmaxlp, recorded from outside
the program by replacing the names its modules look up at call time.

A span has a name, a start, an end and the span that caused it.  Spans and
counts are kept in memory, tagged with the operation and repeat they belong
to, and written out when the run ends.  A layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# span name -> the bindings that resolve to that layer; several modules
# import the same function under their own name
SPANS = {
    "cli.main": ["minmaxlp.cli:main"],
    "model.load": ["minmaxlp.cli:load_lp"],
    "model.save": ["minmaxlp.cli:save_solution", "minmaxlp.cli:_dumps"],
    "figure.render": ["minmaxlp.cli:render_svg"],
    "reduction.solve": ["minmaxlp:solve", "minmaxlp.reduction:solve", "minmaxlp.cli:solve"],
    "reduction.phase1": ["minmaxlp.reduction:phase1", "minmaxlp.cli:phase1"],
    "minmax.solve": ["minmaxlp.reduction:solve_exact", "minmaxlp.reduction:solve_subgradient"],
    "transforms": [
        f"minmaxlp.{module}:{name}"
        for module in ("reduction", "cli")
        for name in ("make_origin_strictly_feasible", "rotation_to_last_axis", "rotate_problem")
    ],
    "reduction.dualize": [
        f"minmaxlp.{module}:{name}"
        for module in ("reduction", "cli")
        for name in ("dual_constraint_points", "build_support_problem")
    ],
    "reduction.recover": ["minmaxlp.reduction:classify_and_recover",
                          "minmaxlp.reduction:recover_solution"],
}

# called tens of thousands of times per solve: counted, not spanned
COUNTS = {
    "minmax.evaluate": ["minmaxlp.minmax:evaluate", "minmaxlp.reduction:evaluate"],
}

_LIBRARY = {"reduction.solve", "minmax.solve", "transforms", "reduction.dualize",
            "reduction.recover", "minmax.evaluate"}

# layers that must record calls on each workload; a name that records none
# there means the trace no longer sees that layer
REQUIRED = {
    "solve_mix": _LIBRARY | {"reduction.phase1"},
    "cli_mix": _LIBRARY | {"reduction.phase1", "cli.main", "model.load", "model.save",
                           "figure.render"},
}

# per-layer metric -> unit
METRICS = {
    "minmax.phase1_ms": "ms",
    "minmax.support_ms": "ms",
    "minmax.evaluate_calls": "count",
    "reduction.phase1_calls": "count",
    "reduction.phase1_self_ms": "ms",
    "reduction.dualize_ms": "ms",
    "reduction.solve_self_ms": "ms",
    "reduction.recover_ms": "ms",
    "transforms.ms": "ms",
    "model.load_ms": "ms",
    "model.save_ms": "ms",
    "cli.self_ms": "ms",
    "figure.render_ms": "ms",
    "figure.svg_bytes": "B",
}


def _resolve(binding: str):
    module, attr = binding.split(":")
    return importlib.import_module(module), attr


class Tracer:
    """Installs wrappers around every binding in SPANS and COUNTS for one
    traced call at a time; between calls the program runs unwrapped."""

    def __init__(self):
        # [op, repeat, id, parent id, name, start ns, end ns, bytes returned]
        self.spans: list[list] = []
        self.counts: dict[tuple[int, int], Counter] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._key = (-1, -1)
        self._count = Counter()

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [*self._key, len(spans), stack[-1] if stack else None, name,
                      time.perf_counter_ns(), 0, None]
            spans.append(record)
            stack.append(record[2])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[6] = time.perf_counter_ns()
            if name == "figure.render":
                record[7] = len(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self._count[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, op: int, repeat: int) -> None:
        self._key = (op, repeat)
        self._count = self.counts.setdefault(self._key, Counter())
        for table, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for name, bindings in table.items():
                for binding in bindings:
                    module, attr = _resolve(binding)
                    if not hasattr(module, attr):
                        if binding not in self.missing:
                            self.missing.append(binding)
                        continue
                    original = getattr(module, attr)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, make(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def calls(self) -> Counter:
        """Calls recorded per span or count name, over the whole run."""
        total = Counter(record[4] for record in self.spans)
        for counts in self.counts.values():
            total.update(counts)
        return total

    def layers(self, op: int, repeat: int) -> dict[str, float]:
        """Per-layer metrics of one traced call of one operation."""
        mine = [r for r in self.spans if r[0] == op and r[1] == repeat]
        by_id = {r[2]: r for r in mine}
        child_ns = defaultdict(int)
        for r in mine:
            if r[3] is not None:
                child_ns[r[3]] += r[6] - r[5]
        total, self_ns = Counter(), Counter()
        phase1_solver_ns = 0
        for r in mine:
            ns = r[6] - r[5]
            total[r[4]] += ns
            self_ns[r[4]] += ns - child_ns[r[2]]
            if r[4] == "minmax.solve" and r[3] is not None and by_id[r[3]][4] == "reduction.phase1":
                phase1_solver_ns += ns
        ms = 1e-6
        count = Counter(r[4] for r in mine)
        return {
            "minmax.phase1_ms": phase1_solver_ns * ms,
            "minmax.support_ms": (total["minmax.solve"] - phase1_solver_ns) * ms,
            "minmax.evaluate_calls": self.counts.get((op, repeat), Counter())["minmax.evaluate"],
            "reduction.phase1_calls": count["reduction.phase1"],
            "reduction.phase1_self_ms": self_ns["reduction.phase1"] * ms,
            "reduction.dualize_ms": total["reduction.dualize"] * ms,
            "reduction.solve_self_ms": self_ns["reduction.solve"] * ms,
            "reduction.recover_ms": total["reduction.recover"] * ms,
            "transforms.ms": total["transforms"] * ms,
            "model.load_ms": total["model.load"] * ms,
            "model.save_ms": total["model.save"] * ms,
            "cli.self_ms": self_ns["cli.main"] * ms,
            "figure.render_ms": total["figure.render"] * ms,
            "figure.svg_bytes": sum(r[7] or 0 for r in mine),
        }

    def write(self, path) -> None:
        keys = ("op", "repeat", "id", "parent", "name", "start_ns", "end_ns", "bytes")
        with open(path, "w") as f:
            for record in self.spans:
                f.write(json.dumps(dict(zip(keys, record))) + "\n")
            for (op, repeat), counts in sorted(self.counts.items()):
                for name, n in sorted(counts.items()):
                    f.write(json.dumps({"op": op, "repeat": repeat, "count": name, "n": n}) + "\n")
