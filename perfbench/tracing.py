"""In-memory spans around the public functions of the ``airybeam`` modules.

The package has no tracing of its own.  Its modules bind each other's
functions by name (``from .airy import airy_all``), so a call is caught by
replacing the name in the module that makes the call, e.g.
``airybeam.sources.airy_all``.  Each wrapped call records a span (name,
start, end, parent, invocation) in a list; the spans are written out when
the benchmark ends.  A layer's self time is the time of its spans minus the
time of their child spans.

``airybeam.scaling`` is not wrapped: its calls cost under a microsecond,
less than a wrapper adds, so their time stays in their callers' self time.
"""

from __future__ import annotations

import os
import time
import types
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "scenarios", "sources", "airy", "green", "output")
AIRY_MID_RANGE = 9.0      # |x| below this is the Taylor-stepped middle range

# (calling module, layer of the called functions, names bound in the caller)
_BINDINGS = (
    ("cli", "green", ("green_closed", "green_oracle")),
    ("cli", "output", ("write_csv", "write_json", "write_pgm")),
    ("cli", "scenarios", ("detector_image", "atom_laser_depletion",
                          "current_transition_scan", "photodetachment_cross_section")),
    ("cli", "sources", ("current_density_gauss", "current_density_point",
                        "gaussian_scaled", "sum_rule_check",
                        "total_current_gauss", "total_current_point")),
    ("scenarios", "sources", ("current_density_gauss", "current_density_point",
                              "sum_rule_check", "total_current_gauss",
                              "total_current_point", "total_current_slicing")),
    ("sources", "airy", ("airy_all", "airy_bracket_log", "airy_scaled")),
    ("green", "airy", ("airy_all", "airy_scaled")),
)


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, invocation]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._invocation = -1

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span; ``after(args, result)`` runs outside it."""
        layer = name.split(".", 1)[0]
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self._invocation]
            spans.append(span)
            stack.append(idx)
            counts[layer + ".calls"] += 1
            counts[name] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[layer + ".errors"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def invocation(self, main, argv):
        """Run ``main(argv)`` as the root span of a new invocation."""
        self._invocation += 1
        return self.wrap("cli.main", main)(argv)

    def count_integrand(self, counter: str, quad):
        """``quad`` whose integrand counts its evaluations in ``counter``."""
        counts = self.counts

        def counted_quad(f, *args, **kwargs):
            def counted(*xs):
                counts[counter] += 1
                return f(*xs)
            return quad(counted, *args, **kwargs)

        return counted_quad

    def _airy_after(self, args, result):
        self.counts["airy.mid"] += abs(args[0]) < AIRY_MID_RANGE

    def _scenario_after(self, args, result):
        if hasattr(result, "pixels"):
            n = result.pixels.size
        elif hasattr(result, "fractions"):
            n = result.fractions.size
        elif isinstance(result, list):            # transition curves
            n = sum(c.exact.values.size + c.slicing.values.size for c in result)
        else:
            n = result.values.size
        self.counts["scenarios.points"] += n

    def _output_after(self, args, result):
        path = str(args[1])
        size = os.path.getsize(path)
        if os.path.exists(path + ".meta.json"):
            size += os.path.getsize(path + ".meta.json")
        self.counts["output.bytes"] += size

    @contextmanager
    def installed(self):
        """Wrap the bindings of every layer for the duration of the block."""
        import airybeam.cli
        import airybeam.green
        import airybeam.scenarios
        import airybeam.sources
        mods = {"cli": airybeam.cli, "green": airybeam.green,
                "scenarios": airybeam.scenarios, "sources": airybeam.sources}
        after = {"airy": self._airy_after, "scenarios": self._scenario_after,
                 "output": self._output_after}
        patches = []
        for caller, layer, names in _BINDINGS:
            for name in names:
                fn = getattr(mods[caller], name)
                patches.append((mods[caller], name, fn,
                                self.wrap(f"{layer}.{name}", fn, after.get(layer))))
        for caller, counter in (("sources", "sources.sum_rule_j_evals"),
                                ("green", "green.integrand_evals")):
            quad = mods[caller].quad
            patches.append((mods[caller], "quad", quad,
                            self.count_integrand(counter, quad)))

        def warn(*args, stacklevel=1, **kwargs):
            self.counts["sources.far_field_warnings"] += 1
            warnings.warn(*args, stacklevel=stacklevel + 1, **kwargs)

        patches.append((airybeam.sources, "warnings", warnings,
                        types.SimpleNamespace(warn=warn)))
        for mod, name, _, new in patches:
            setattr(mod, name, new)
        try:
            yield self
        finally:
            for mod, name, old, _ in reversed(patches):
                setattr(mod, name, old)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span time minus the time of child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name.split(".", 1)[0]] += end - start - inner
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this round (see BENCHMARK.json ``per_layer``)."""
        c, t = self.counts, self.self_times()
        ratio = lambda a, b: a / b if b else 0.0
        return {
            "airy.calls": c["airy.calls"],
            "airy.self_s": t["airy"],
            "airy.us_per_call": ratio(t["airy"] * 1e6, c["airy.calls"]),
            "airy.mid_share": ratio(c["airy.mid"], c["airy.calls"]),
            "airy.errors": c["airy.errors"],
            "green.closed_calls": c["green.green_closed"],
            "green.oracle_calls": c["green.green_oracle"],
            "green.oracle_kept_ratio": ratio(c["green.green_oracle"],
                                             c["green.green_closed"]),
            "green.integrand_evals": c["green.integrand_evals"],
            "green.self_s": t["green"],
            "sources.calls": c["sources.calls"],
            "sources.self_s": t["sources"],
            "sources.us_per_call": ratio(t["sources"] * 1e6, c["sources.calls"]),
            "sources.sum_rule_j_evals": c["sources.sum_rule_j_evals"],
            "sources.far_field_warnings": c["sources.far_field_warnings"],
            "sources.errors": c["sources.errors"],
            "scenarios.calls": c["scenarios.calls"],
            "scenarios.points": c["scenarios.points"],
            "scenarios.self_s": t["scenarios"],
            "output.calls": c["output.calls"],
            "output.bytes": c["output.bytes"],
            "output.self_s": t["output"],
            "output.mb_per_s": ratio(c["output.bytes"] / 1e6, t["output"]),
            "cli.self_s": t["cli"],
        }

    def write_spans(self, fh, round_index: int) -> None:
        """Append the spans as tab-separated lines."""
        for i, (name, start, end, parent, inv) in enumerate(self.spans):
            fh.write(f"{round_index}\t{inv}\t{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
