"""Span tracing around the public functions of the rodtwin layer modules.

A wrapped function is replaced by name in every loaded ``rodtwin`` module
that binds it, so calls are traced as their callers see them: a call from
``pipeline`` into ``conduction.assemble_and_solve_conduction`` goes through
the name ``pipeline`` imported. Spans are kept in memory as
``(id, name, start, end, parent)`` tuples and written out once at the end.
A target that no longer exists is recorded as absent instead of failing, so
the trace survives functions being merged or deleted.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# Layer module -> public functions wrapped. ``mesh`` is built once per case
# and is charged to pipeline self time; ``cli``, ``config`` and ``errors``
# are not on a timed path.
TARGETS = {
    "core": ("water_properties",),
    "channel": ("solve_channel",),
    "conduction": ("assemble_and_solve_conduction",),
    "pipeline": ("couple_rod_channel", "generate_dataset", "burnup_sweep"),
    "khnet": ("train", "loss_and_gradients", "adam_step", "dense_forward",
              "boundary_features", "reconstruct_field"),
    "thermomech": ("stress_field", "hoop_strain_summary",
                   "lame_thermoelastic_slice", "solid_cylinder_slice"),
    "metrics": ("compute_metrics",),
    "io": ("save_dataset", "load_dataset", "save_checkpoint",
           "load_checkpoint"),
}

# Counts read from a traced call's return value: span -> (counter, attribute).
RESULT_COUNTERS = {
    "pipeline.couple_rod_channel": ("pipeline.coupling_sweeps", "iterations"),
    "conduction.assemble_and_solve_conduction": ("conduction.picard_sweeps",
                                                 "picard_iterations"),
}


class Tracer:
    """Records nested spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []       # (id, name, start, end, parent)
        self.counts: dict[int, dict] = {}  # span id -> {counter: value}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []    # (module, attribute, original)

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = (sid, name, start, time.perf_counter(), parent)
            self._stack.pop()

    def _wrap(self, name: str, fn):
        # span() inlined: a generator context manager per call would add
        # noticeable overhead to the ~60k water_properties calls of a sweep
        counter = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[sid] = (sid, name, start, time.perf_counter(),
                                   parent)
                self._stack.pop()
            if counter is not None:
                value = getattr(result, counter[1], None)
                if isinstance(value, int):
                    self.counts[sid] = {counter[0]: value}
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Replace every target in each loaded rodtwin module that binds it."""
        if self._patched:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rodtwin"
                                         or n.startswith("rodtwin."))]
        self.absent = []
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"rodtwin.{layer}")
            for fname in names:
                span_name = f"{layer}.{fname}"
                original = getattr(home, fname, None) if home else None
                if not callable(original):
                    self.absent.append(span_name)
                    continue
                wrapper = self._wrap(span_name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON array per line: [id, name, start, end, parent, counts]."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([*s, self.counts.get(s[0], {})]) + "\n")


def summarize(spans: list, counts: dict) -> dict:
    """Per span name under each root span name: calls, busy and self seconds.

    Returns {root name: {span name: {"calls", "busy", "self", "parents",
    counters...}}}, where the root is the outermost span enclosing a call
    (for example "setup" or "op") and "parents" maps each direct parent's
    name to the busy time spent in calls from it.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    out: dict[str, dict] = {}
    for sid, name, start, end, parent in spans:
        root, p = name, parent
        while p >= 0:
            root, p = by_id[p][1], by_id[p][4]
        row = out.setdefault(root, {}).setdefault(
            name, {"calls": 0, "busy": 0.0, "self": 0.0, "parents": {}})
        dur = end - start
        row["calls"] += 1
        row["busy"] += dur
        row["self"] += dur - child_time.get(sid, 0.0)
        pname = by_id[parent][1] if parent >= 0 else None
        row["parents"][pname] = row["parents"].get(pname, 0.0) + dur
        for key, value in counts.get(sid, {}).items():
            row[key] = row.get(key, 0) + value
    return out
