"""Outside-in layer trace: spans around each layer's public functions.

The wrappers are installed from the benchmark, never inside the program.  A
function imported with ``from .x import f`` is bound in several module
namespaces, so every namespace of the package that binds the original
function object gets the wrapper.  Spans are kept in memory; self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYER_FUNCTIONS = (
    "cli.main",
    "cli.build_argparser",
    "cli.run_command",
    "poly_io.parse_poly",
    "entropy.entropy_sequence",
    "entropy.convergence_report",
    "fixcount.fix_count",
    "fixcount.det_exact",
    "fixcount.fix_count_char_crt",
    "groupring.build_quotient_group",
    "groupring.reduce_to_quotient",
    "groupring.rho_matrix",
    "detlog.logdet_unit",
    "detlog.c0_unit_normalize",
    "detlog.tr_log_one_unit",
    "detlog.det_laurent_matrix",
    "mahler.mahler_1d",
    "mahler.newton_polygon",
    "mahler.slope_split",
    "padic.padic_log",
    "padic.series_guard",
)

PACKAGE = "padic_entropy"


class Tracer:
    """Span recorder plus the counted-work observers."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._open: list[int] = []
        self.rho_cells = 0
        self.det_bits = 0
        self.series_cutoff = 0
        self.group_calls = 0
        self.group_hits = 0
        self._groups_seen: dict[int, object] = {}

    def _observe(self, name: str, result):
        if name == "groupring.rho_matrix":
            self.rho_cells += len(result) ** 2
        elif name == "fixcount.det_exact":
            self.det_bits += abs(result).bit_length()
        elif name == "padic.series_guard":
            self.series_cutoff += result[1]
        elif name == "groupring.build_quotient_group":
            self.group_calls += 1
            if id(result) in self._groups_seen:
                self.group_hits += 1
            self._groups_seen[id(result)] = result  # keeps the id from being reused

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, clock(), 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                _, start, _, parent = spans[idx]
                spans[idx] = (name, start, clock(), parent)
            self._observe(name, result)
            return result

        return traced

    def install(self):
        """Replace every binding of each layer function in the package."""
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for qualname in LAYER_FUNCTIONS:
            mod_name, fn_name = qualname.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            wrapper = self.wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """{qualname: {"self_s": ..., "calls": ...}} over all recorded spans."""
        totals = {name: {"self_s": 0.0, "calls": 0} for name in LAYER_FUNCTIONS}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name]["self_s"] += (end - start) - inner
            totals[name]["calls"] += 1
        return totals

    def counters(self) -> dict[str, float]:
        return {
            "fixcount.rho_cells": self.rho_cells,
            "fixcount.det_bits": self.det_bits,
            "padic.series_cutoff": self.series_cutoff,
            "groupring.group_cache_hit_ratio": (
                self.group_hits / self.group_calls if self.group_calls else 0.0
            ),
        }
