"""Span recorder for the traced run.

The recorder wraps public gallaikit functions with spans. `cli`,
`constructor` and `bounds` bind some of them by name at import time, so a
function is replaced in every gallaikit module that holds it. A span records
its name, start, end, parent, the round and operation it ran under, whether it
returned, and a count read from the result object the function returns. Spans
are kept in memory; the caller writes them out when the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass


def _steps(res) -> int:
    return len(res.certificate.steps) if res.certificate is not None else 0


# (module, function, span name, count read from the result, or None)
TRACED = [
    ("gallaikit.cli", "_cmd_construct", "cli.construct", None),
    ("gallaikit.cli", "_cmd_verify", "cli.verify", None),
    ("gallaikit.cli", "_cmd_oracle", "cli.oracle", None),
    ("gallaikit.cli", "_cmd_certify", "cli.certify", None),
    ("gallaikit.core", "write_colouring", "core.write_colouring", None),
    ("gallaikit.core", "read_colouring", "core.read_colouring", None),
    ("gallaikit.core", "colour_counts", "core.colour_counts", None),
    ("gallaikit.constructor", "construct", "constructor.construct", _steps),
    ("gallaikit.constructor", "construct_staged", "constructor.staged", None),
    ("gallaikit.constructor", "greedy_descent", "constructor.descent", None),
    ("gallaikit.constructor", "construct_greedy", "constructor.greedy", lambda r: r.nodes),
    ("gallaikit.constructor", "construct_mindeg3", "constructor.mindeg3", None),
    ("gallaikit.constructor", "realize_certificate", "constructor.realize", None),
    ("gallaikit.constructor", "write_certificate", "constructor.cert_io", None),
    ("gallaikit.constructor", "read_certificate", "constructor.cert_io", None),
    ("gallaikit.verifier", "find_rainbow_triangle", "verifier.triangle_scan", None),
    ("gallaikit.verifier", "verify_certificate", "verifier.replay", None),
    ("gallaikit.verifier", "find_gallai_partition", "verifier.gallai_partition", None),
    ("gallaikit.bounds", "peel_splitting_process", "bounds.peel", lambda r: len(r.steps)),
    ("gallaikit.bounds", "triangle_infeasibility_check", "bounds.certify", None),
    ("gallaikit.bounds", "clash_bound_check", "bounds.certify", None),
    ("gallaikit.bounds", "tree_forced_check", "bounds.certify", None),
    ("gallaikit.bounds", "balanced_tree_forced_check", "bounds.certify", None),
    ("gallaikit.bounds", "general_lower_sequence", "bounds.certify", None),
    ("gallaikit.oracle", "exact_g", "oracle.exact_g", None),
    ("gallaikit.oracle", "is_realizable", "oracle.is_realizable", lambda r: r.nodes),
]

# Functions whose tracemalloc peak is a per-layer metric, measured in a round
# of its own because tracemalloc slows every allocation it sees.
MEMORY = [
    ("gallaikit.core", "read_colouring", "core.read_colouring_peak_mb"),
    ("gallaikit.constructor", "construct_mindeg3", "constructor.mindeg3_peak_mb"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at the top
    round: int
    op: str
    ok: bool = False
    count: int = 0


class Recorder:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.peaks_mb: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._round = -1
        self._op = ""
        self._patched: list[tuple[object, str, object]] = []

    def begin_op(self, round_no: int, op: str) -> None:
        self._round, self._op = round_no, op

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self._round, self._op)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                res = fn(*args, **kwargs)
                span.ok = True
                if count is not None:
                    span.count = count(res)
                return res
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return wrapper

    def _memory_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks_mb[name] = max(self.peaks_mb[name], peak)
        return wrapper

    def _patch(self, module: str, func: str, wrapper_of) -> None:
        orig = getattr(sys.modules[module], func)
        wrapped = wrapper_of(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "gallaikit" or mod_name.startswith("gallaikit."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def install(self) -> None:
        for module, func, name, count in TRACED:
            self._patch(module, func, functools.partial(self._span_wrapper, name=name, count=count))

    def install_memory(self) -> None:
        for module, func, name in MEMORY:
            self._patch(module, func, functools.partial(self._memory_wrapper, name=name))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)

    # -- results -----------------------------------------------------------

    def round_metrics(self, round_no: int) -> dict[str, float]:
        """Per-layer metrics of one traced round: self times in s and counts."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        count = defaultdict(int)
        calls = defaultdict(int)
        oks = defaultdict(int)
        for i, s in enumerate(self.spans):
            if s.round != round_no:
                continue
            self_s[s.name] += s.end - s.start - child[i]
            total_s[s.name] += s.end - s.start
            count[s.name] += s.count
            calls[s.name] += 1
            oks[s.name] += s.ok

        def per_s(n, secs):
            return n / secs if secs > 0 else 0.0

        staged = calls["constructor.staged"]
        exact_s = self_s["oracle.exact_g"] + self_s["oracle.is_realizable"]
        out = {f"{name}_s": self_s[name] for name in (
            "verifier.triangle_scan", "verifier.replay", "verifier.gallai_partition",
            "bounds.peel", "bounds.certify", "core.write_colouring",
            "core.read_colouring", "core.colour_counts", "constructor.mindeg3",
            "constructor.construct", "constructor.realize", "constructor.descent",
            "constructor.cert_io", "constructor.staged", "constructor.greedy")}
        out.update({f"{name}_s": total_s[name] for name in (
            "cli.construct", "cli.verify", "cli.oracle", "cli.certify")})
        out.update({
            "bounds.peel_steps": count["bounds.peel"],
            "constructor.cert_steps": count["constructor.construct"],
            "constructor.staged_calls": staged,
            "constructor.staged_yield": oks["constructor.staged"] / staged if staged else 0.0,
            "constructor.greedy_nodes": count["constructor.greedy"],
            "constructor.greedy_nodes_per_s": per_s(count["constructor.greedy"],
                                                     self_s["constructor.greedy"]),
            "oracle.exact_g_s": exact_s,
            "oracle.nodes": count["oracle.is_realizable"],
            "oracle.nodes_per_s": per_s(count["oracle.is_realizable"], exact_s),
            "oracle.agreement_s": total_s["cli.oracle"] - total_s["oracle.exact_g"],
        })
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "peaks_mb": dict(self.peaks_mb)}, f)
