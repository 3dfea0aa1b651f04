"""Span tracing of the package's public functions, installed from outside it.

``install`` replaces every public function of the traced layers, in every
package module that binds it, by a wrapper that records a span
``(id, parent, name, start, end, run_id, extra)``.  ``RegionIState``
construction is traced through its ``__post_init__`` validation.  Spans stay
in memory; forked pool workers write theirs to a spill directory when they
exit, and the parent merges them.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

LAYERS = ("linalg", "model", "measures", "sweep", "verify", "cli")


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _joint_key(state, obs_a, obs_b):
    """Identity of a joint table: the state's bytes and the observable pair."""
    digest = hashlib.blake2b(state.matrix.tobytes(), digest_size=8)
    digest.update(f"{obs_a.name}/{obs_a.dim}|{obs_b.name}/{obs_b.dim}".encode())
    return digest.hexdigest()


class Tracer:
    def __init__(self, spill_dir: Path):
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.run_id = None
        self.pid = os.getpid()
        self.spill_dir = Path(spill_dir)
        self._count = 0

    def _adopt_fork(self) -> None:
        # First span in a forked pool worker: drop the spans copied from the
        # parent, keep its open stack as the parents of this process's spans,
        # and write this process's spans out when it exits.
        self.pid = os.getpid()
        self.spans = []
        self._count = 0
        mp_util.Finalize(None, self.spill, exitpriority=10)

    def spill(self) -> None:
        path = self.spill_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(self.spans))

    def merge_spills(self) -> None:
        """Adopt the spans written by pool workers that have exited."""
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            self.spans.extend(tuple(span) for span in json.loads(path.read_text()))
            path.unlink()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._adopt_fork()
            sid = f"{tracer.pid}:{tracer._count}"
            tracer._count += 1
            parent = tracer.stack[-1] if tracer.stack else None
            extra = None
            if name == "measures.joint_distribution":
                extra = {"key": _joint_key(*args, **kwargs)}
            elif name == "sweep.run_sweep":
                cpu_before = _children_cpu()
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                if name == "sweep.run_sweep":
                    extra = {"child_cpu": _children_cpu() - cpu_before, "workers": args[0].workers}
                elif name == "sweep.write_output":
                    records, path = args[0], args[1]
                    size = os.path.getsize(path) if os.path.exists(path) else 0
                    extra = {"records": len(records), "bytes": size}
                tracer.spans.append((sid, parent, name, start, end, tracer.run_id, extra))

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every traced layer."""
    import unruh_steering  # noqa: F401  (loads every layer module)

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"unruh_steering.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            wrappers[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    # Rebind in every module that imported the function by name.
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "unruh_steering" and not mod_name.startswith("unruh_steering."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
    state_cls = sys.modules["unruh_steering.model"].RegionIState
    state_cls.__post_init__ = tracer.wrap("model.RegionIState", state_cls.__post_init__)


def self_times(spans) -> dict[str, float]:
    """Span id -> duration minus the time of its direct children in the same process."""
    own = {sid: end - start for sid, _, _, start, end, _, _ in spans}
    for sid, parent, _, start, end, _, _ in spans:
        if parent is not None and parent.split(":")[0] == sid.split(":")[0] and parent in own:
            own[parent] -= end - start
    return own


def summarize_pass(spans, joint_needed: dict) -> dict[str, float]:
    """Per-layer figures of one pass.

    ``joint_needed`` maps each op index of the pass to whether that op's
    requested quantities need the measured joint tables.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    useful_keys = set()
    child_cpu = pool_capacity = 0.0
    out_bytes = out_records = 0
    for sid, _, name, start, end, run_id, extra in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        incl_s[name] += end - start
        if name == "measures.joint_distribution" and joint_needed[run_id[1]]:
            useful_keys.add((run_id[1], extra["key"]))
        elif name == "sweep.run_sweep":
            child_cpu += extra["child_cpu"]
            if extra["workers"] > 1:
                pool_capacity += extra["workers"] * (end - start)
        elif name == "sweep.write_output":
            out_bytes += extra["bytes"]
            out_records += extra["records"]

    figures: dict[str, float] = {}
    for name in calls:
        figures[f"{name}.calls"] = calls[name]
        figures[f"{name}.self_us_per_call"] = self_s[name] / calls[name] * 1e6
        figures[f"{name}.self_ms"] = self_s[name] * 1e3
        figures[f"{name}.ms"] = incl_s[name] * 1e3
    joint_calls = calls.get("measures.joint_distribution", 0)
    figures["measures.joint_distribution.useful_ratio"] = (
        len(useful_keys) / joint_calls if joint_calls else 0.0
    )
    write_s = incl_s.get("sweep.write_output", 0.0)
    figures["sweep.write_output.bytes"] = out_bytes
    figures["sweep.write_output.records_per_s"] = out_records / write_s if write_s else 0.0
    figures["sweep.pool.child_cpu_s"] = child_cpu
    figures["sweep.pool.busy_ratio"] = child_cpu / pool_capacity if pool_capacity else 0.0
    return figures


def summarize(spans, joint_needed: dict) -> tuple[dict[str, float], bool]:
    """Per-layer figures over all traced passes.

    Counts come from the first pass; a second return value tells whether
    every pass repeated them exactly.  Times are medians over passes.
    """
    by_pass = defaultdict(list)
    for span in spans:
        by_pass[span[5][0]].append(span)
    passes = [summarize_pass(by_pass[k], joint_needed) for k in sorted(by_pass)]
    names = set().union(*passes)
    exact = [n for n in names if n.endswith((".calls", ".useful_ratio", ".bytes"))]
    repeat = all(p.get(n, 0) == passes[0].get(n, 0) for p in passes for n in exact)
    merged = {}
    for n in names:
        values = [p.get(n, 0.0) for p in passes]
        merged[n] = values[0] if n in exact else statistics.median(values)
    return merged, repeat
