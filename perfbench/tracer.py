"""In-memory span tracing of chainbook's public functions, from outside the package.

``Tracer.install`` wraps each function named in ``TRACED`` and rebinds every
name in every loaded ``chainbook`` module that refers to it, so calls made
through ``from .miners import run_horizon`` (in experiments, mechanism,
welfare and equilibrium) and module-internal calls are traced alike.  Each
call appends one span ``(id, parent_id, name, start, end, attr)``; spans
stay in memory until ``write`` dumps them.  ``summarize`` derives calls,
total and self times, and the count ratios from a span dump.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# layer (package module) -> traced attributes.  "Class.method" wraps a method.
TRACED = {
    "distributions": ("ValueDistribution.sample",),
    "market": ("build_instance",),
    "equilibrium": (
        "crossing_index",
        "psne",
        "msne",
        "realize_profile",
        "equilibrium_profile",
    ),
    "miners": (
        "selfish_select",
        "recommend_matching",
        "uniform_feasible_pairing",
        "run_round",
        "run_horizon",
    ),
    "welfare": ("social_welfare", "social_optimum"),
    "mechanism": (
        "optimal_block_size_complete",
        "optimal_block_size_distributional",
        "capped_search_report",
    ),
    "experiments": (
        "simulate_once",
        "compare_mechanisms",
        "run_mechanism_comparison",
        "run_blocksize_limit",
    ),
    "reporting": ("emit_report",),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)


def _selection_attr(args, kwargs, result):
    """(pairs selected, scan limit): the limit is min(A, positive-fee buyers, sellers)."""
    pool = args[0] if args else kwargs["pool"]
    instance = args[1] if len(args) > 1 else kwargs["instance"]
    buyers = sum(1 for f in pool.buy_fees if f > 0.0) if pool.seller_ids else 0
    sellers = sum(1 for f in pool.sell_fees if f > 0.0) if pool.buyer_ids else 0
    return [result.size, min(instance.block_size, buyers, sellers)]


# Span attributes the count ratios need, computed after the span has ended.
ATTRS = {
    "miners.selfish_select": _selection_attr,
    "equilibrium.psne": lambda args, kwargs, result: result is not None,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._stack: list[int] = [-1]
        self._clock = time.perf_counter

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        attr_of = ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id; filled in when the call returns
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, index, start, end, None)
            if attr_of:
                spans[span_id] = (span_id, parent, index, start, end, attr_of(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED and rebind it wherever chainbook imported it."""
        modules = [m for n, m in sys.modules.items() if n == "chainbook" or n.startswith("chainbook.")]
        for layer, attrs in TRACED.items():
            module = sys.modules[f"chainbook.{layer}"]
            for attr in attrs:
                name = f"{layer}.{attr.split('.')[-1]}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def summarize(dump: dict) -> dict[str, float]:
    """Per-function calls/total_s/self_s, per-layer self time, and count ratios."""
    names = dump["names"]
    spans = dump["spans"]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, index, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for span_id, parent, index, start, end, _ in spans:
        name = names[index]
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[span_id]

    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = self_time[name]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            t for name, t in self_time.items() if name.startswith(layer + ".")
        )

    by_name = defaultdict(list)
    for span in spans:
        by_name[names[span[2]]].append(span[5])
    selections = by_name["miners.selfish_select"]
    selected = sum(size for size, _ in selections)
    limit = sum(lim for _, lim in selections)
    out["miners.select_fill_ratio"] = selected / limit if limit else 0.0
    out["miners.select_empty_share"] = (
        sum(1 for size, _ in selections if size == 0) / len(selections) if selections else 0.0
    )
    horizons = calls["miners.run_horizon"]
    out["miners.rounds_per_horizon"] = calls["miners.run_round"] / horizons if horizons else 0.0
    pure = by_name["equilibrium.psne"]
    out["equilibrium.mixed_share"] = sum(1 for p in pure if not p) / len(pure) if pure else 0.0
    out["welfare.optimum_calls_per_play"] = (
        calls["welfare.social_optimum"] / horizons if horizons else 0.0
    )
    return out
