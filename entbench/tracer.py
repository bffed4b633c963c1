"""Span recorder that wraps entdyn's layer functions from outside the package.

Each wrapped call records a span (layer name, parent span, start, end) in
memory; ``write`` dumps them at the end of a run.  Functions are wrapped at
the module attributes through which the drivers call them, so a call
nested inside another layer (the two decompositions inside
``build_floquet``, the snapshots inside ``run_rqc``) becomes a child span
and is subtracted from its parent's self time.  ``installed`` restores the
original attributes on exit, so untraced calls pay no wrapper cost.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager

# (entdyn module, attribute, layer name).  The drivers are the root spans.
LAYERS = (
    ("experiments", "delta_s_sweep", "experiments"),
    ("experiments", "reservoir_curve", "experiments"),
    ("experiments", "enumerate_sector", "basis.enumerate_sector"),
    ("experiments", "build_xxz", "operators.build"),
    ("experiments", "build_ising_z", "operators.build"),
    ("experiments", "build_local_cut", "operators.build"),
    ("experiments", "spectral_decompose", "evolution.spectral_decompose"),
    ("experiments", "build_floquet", "evolution.build_floquet"),
    ("experiments", "propagate", "evolution.propagate"),
    ("experiments", "floquet_power", "evolution.floquet_power"),
    ("experiments", "run_rqc", "evolution.run_rqc"),
    ("experiments", "hcee", "entanglement.hcee"),
    ("experiments", "baee", "entanglement.baee"),
    ("evolution", "spectral_decompose", "evolution.spectral_decompose"),
    ("evolution", "_hcee", "entanglement.hcee"),
    ("evolution", "_baee", "entanglement.baee"),
)

# Layers whose peak-memory rise is reported; reading the high-water mark
# costs a system call, so the other layers skip it.
RSS_LAYERS = frozenset({"evolution.spectral_decompose", "evolution.build_floquet"})


def maxrss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans plus a count of two-site gate applications."""

    def __init__(self):
        # [layer, parent index or -1, start, end, rss before, rss after]
        self.spans: list[list] = []
        self.gates = 0
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        track_rss = layer in RSS_LAYERS

        def traced(*args, **kwargs):
            rec = [layer, stack[-1] if stack else -1, 0.0, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            if track_rss:
                rec[4] = maxrss_mb()
            rec[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                if track_rss:
                    rec[5] = maxrss_mb()
                stack.pop()

        return traced

    def _count_gates(self, fn):
        def counted(*args, **kwargs):
            self.gates += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, entdyn):
        """Wrap every layer function of ``entdyn`` for the duration."""
        saved = []
        try:
            for mod_name, attr, layer in LAYERS:
                mod = getattr(entdyn, mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(layer, getattr(mod, attr)))
            kernels = entdyn._kernels
            saved.append((kernels, "gate_mix", kernels.gate_mix))
            kernels.gate_mix = self._count_gates(kernels.gate_mix)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: inclusive and self seconds, calls, largest RSS rise."""
        child = [0.0] * len(self.spans)
        for layer, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (layer, _, start, end, rss0, rss1) in enumerate(self.spans):
            t = out.setdefault(
                layer, {"s": 0.0, "self_s": 0.0, "calls": 0, "rss_rise_mb": 0.0}
            )
            t["s"] += end - start
            t["self_s"] += end - start - child[i]
            t["calls"] += 1
            t["rss_rise_mb"] = max(t["rss_rise_mb"], rss1 - rss0)
        return out

    def write(self, path) -> None:
        keys = ("layer", "parent", "start", "end", "rss_before_mb", "rss_after_mb")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
