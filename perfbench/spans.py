"""Span tracing from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer
(see LAYERS.md) so every call records a span: name, start,
end, parent span, lane and the search or job it belongs to.  Nothing in
``src/`` changes; the wrappers are removed again by
:meth:`Tracer.uninstall`.

A *lane* is one thread of one process.  Spans nest strictly within a
lane (they follow the call stack), so a span's parent is the innermost
open span of its own lane.  Processes forked from a traced process (the
search's fork pool) append their spans to ``spans-<pid>.jsonl`` in the
tracer's output directory whenever their lane's stack empties, and
traced ``repro worker`` processes (``worker_shim.py``) when they exit;
the benchmark merges those files at the end of the traced pass.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time


class Tracer:
    """In-memory span recorder for one process.

    ``role`` names the process's lanes in the report: ``main`` for the
    benchmark process, ``pool`` for its forked evaluation children and
    ``worker`` for traced ``repro worker`` processes.
    """

    def __init__(self, outdir: str, role: str = "main") -> None:
        self.outdir = outdir
        self.role = role
        self.spans: list = []
        self._root_pid = os.getpid()
        self._local = threading.local()
        self._seq = 0
        self._lock = threading.Lock()
        self._patches: list = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: str | None) -> None:
        """Tag this thread's following spans with search/job *op*."""
        self._local.op = op

    def _op(self) -> str:
        op = getattr(self._local, "op", None)
        if op:
            return op
        name = threading.current_thread().name
        # PrecisionService names each job thread repro-job-<job id>.
        return name[len("repro-job-"):] if name.startswith("repro-job-") else ""

    def _lane(self) -> str:
        thread = threading.current_thread()
        kind = self.role
        if self.role == "main" and thread is not threading.main_thread():
            if thread.name.startswith("repro-job-"):
                kind = "job"
            elif thread.name.startswith("tenant"):
                kind = "tenant"
            else:
                kind = "thread"
        return f"{kind}/{os.getpid()}/{thread.name}"

    def begin(self, name: str) -> dict:
        with self._lock:
            self._seq += 1
            sid = f"{os.getpid()}:{self._seq}"
        stack = self._stack()
        span = {
            "id": sid,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1]["id"] if stack else None,
            "lane": self._lane(),
            "op": self._op(),
            "attrs": {},
        }
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)
        if not stack and os.getpid() != self._root_pid:
            self.flush()

    def note(self, **attrs) -> None:
        """Add counts to the innermost open span of this thread."""
        stack = self._stack()
        if stack:
            bag = stack[-1]["attrs"]
            for key, value in attrs.items():
                bag[key] = bag.get(key, 0) + value

    def flush(self) -> None:
        """Append this process's finished spans to its span file."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = os.path.join(self.outdir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    def _after_fork(self) -> None:
        # A forked child starts with the parent's open stack and spans;
        # it records only its own work, and flushes it (see end()).
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans = []
        if self.role == "main":
            self.role = "pool"

    # -- wrapping -------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner, attr: str, name: str, after=None,
                  probe=None, op=None) -> None:
        """Record a span *name* around ``owner.attr``.  ``after(attrs,
        args, result)`` may add counts to it once the call returns;
        ``probe(args)`` returns counters whose change across the call is
        added to it; ``op(args)`` names the search or job the call
        serves, for it and the spans below it."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if op is not None:
                tracer.set_op(op(args))
            span = tracer.begin(name)
            before = probe(args) if probe is not None else None
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span["attrs"], args, result)
                return result
            finally:
                if before is not None:
                    now = probe(args)
                    tracer.note(**{k: now[k] - before[k] for k in now})
                tracer.end(span)

        self._patch(owner, attr, wrapper)

    def wrap_everywhere(self, module, attr: str, name: str) -> None:
        """:meth:`wrap_span` a module-level function, also where other
        ``repro`` modules imported it by name."""
        original = getattr(module, attr)
        self.wrap_span(module, attr, name)
        wrapper = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if (
                mod is not module
                and mod_name.startswith("repro")
                and mod.__dict__.get(attr) is original
            ):
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def wrap_note(self, owner, attr: str, probe) -> None:
        """Add ``probe(args)`` deltas across a call of ``owner.attr`` to
        the innermost open span (counts without a span of their own)."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = probe(args)
            try:
                return original(*args, **kwargs)
            finally:
                after = probe(args)
                tracer.note(**{k: after[k] - before[k] for k in after})

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(tracer: Tracer) -> None:
    """Wrap every traced layer entry point (see LAYERS.md)."""
    # ``repro`` re-exports functions named like its subpackages (e.g.
    # ``repro.instrument``), so modules are imported with ``from``.
    from repro import analysis
    from repro.cluster import worker
    from repro.compiler import driver
    from repro.instrument import engine
    from repro.search import parallel
    from repro.campaign.core import Campaign
    from repro.cluster.coordinator import BaseLeaseEvaluator
    from repro.config.model import Config
    from repro.instrument.cache import InstrumentCache
    from repro.search.bfs import SearchEngine
    from repro.search.parallel import ParallelEvaluator
    from repro.store.result_store import ResultStore
    from repro.vm.machine import VM, Machine
    from repro.workloads.base import Workload

    t = tracer
    t.wrap_everywhere(driver, "compile_program", "compiler.compile")
    t.wrap_span(Config, "instruction_policies", "config.resolve")
    t.wrap_everywhere(engine, "instrument", "instrument")
    t.wrap_note(
        InstrumentCache, "instrument",
        lambda args: {"block_hits": args[0].hits,
                      "block_misses": args[0].misses},
    )

    def fuse_probe(args):
        # VM.__init__ creates the counters, so they read 0 before it.
        vm = args[0]
        return {
            "fuse_hits": getattr(vm, "fuse_hits", 0),
            "fuse_misses": getattr(vm, "fuse_misses", 0),
        }

    def vm_run_counts(attrs, _args, result):
        attrs["steps"] = attrs.get("steps", 0) + result.steps

    t.wrap_span(VM, "__init__", "vm.load", probe=fuse_probe)
    t.wrap_span(VM, "rebind", "vm.load", probe=fuse_probe)
    t.wrap_span(VM, "run", "vm.execute", after=vm_run_counts, probe=fuse_probe)
    t.wrap_note(
        Machine, "run",
        lambda args: {"compile_hits": args[0].compile_cache_hits,
                      "compile_misses": args[0].compile_cache_misses},
    )
    t.wrap_span(Workload, "verify", "workloads.verify")
    t.wrap_everywhere(analysis, "analyze", "analysis")

    def search_counts(attrs, args, result):
        evaluator = args[0].evaluator
        attrs["configs_tested"] = result.configs_tested
        attrs["configs_executed"] = evaluator.executions
        attrs["dedup_hits"] = evaluator.cache_hits
        attrs["pruned"] = result.analysis_pruned
        attrs["descent_configs"] = sum(
            1 for r in result.history
            if r.phase.startswith("lattice:") and r.reason != "pruned"
        )

    t.wrap_span(SearchEngine, "run", "search", after=search_counts)
    t.wrap_span(ParallelEvaluator, "evaluate_batch", "search.parallel.batch")

    def label(workload) -> str:
        return f"{workload.name}.{workload.klass}"

    t.wrap_span(
        parallel, "_worker_eval", "search.parallel.task",
        op=lambda args: label(parallel._STATE["workload"]),
    )

    def store_get_counts(attrs, _args, result):
        attrs["hits"] = attrs.get("hits", 0) + (result is not None)

    t.wrap_span(ResultStore, "get", "store.get", after=store_get_counts)
    t.wrap_span(ResultStore, "put", "store.put")
    t.wrap_span(Campaign, "checkpoint", "campaign.checkpoint")
    t.wrap_span(BaseLeaseEvaluator, "evaluate_batch", "service.batch")

    t.wrap_span(
        worker, "execute_config", "cluster.worker.task",
        op=lambda args: "worker:" + label(args[0]),
    )


def load_spans(outdir: str) -> list:
    """Every span the child processes flushed into *outdir*."""
    spans = []
    for name in sorted(os.listdir(outdir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(outdir, name)) as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def root_lane() -> str:
    """The lane of this process's main thread (where the passes run)."""
    return f"main/{os.getpid()}/{threading.main_thread().name}"


def _on_root_lane(span: dict, start: float, end: float) -> bool:
    """Whether *span* ran on the main lane within the pass."""
    return span["lane"] == root_lane() and start <= span["start"] <= end


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(spans: list, start: float, end: float,
                  untraced_wall: float, traced_wall: float,
                  queue_wait: float = 0.0) -> dict:
    """The per-layer metrics of one traced pass over ``[start, end]``.

    Times ending in ``_s`` (and ``instrument.s``/``analysis.s``) are self
    times summed over every lane, except the dispatch spans
    ``search.parallel.batch_s``, ``search.parallel.task_s``,
    ``service.batch_s`` and ``cluster.worker.task_s``, which are whole
    span durations so that their differences are dispatch overheads.
    Layer times are clock seconds; the overhead ratio compares the
    traced and untraced pass walls as the run reports them.
    """
    from arith import self_times

    selfs = self_times(spans)
    own: dict = {}
    whole: dict = {}
    calls: dict = {}
    attrs: dict = {}
    for span in spans:
        name = span["name"]
        own[name] = own.get(name, 0.0) + selfs[span["id"]]
        whole[name] = whole.get(name, 0.0) + span["end"] - span["start"]
        calls[name] = calls.get(name, 0) + 1
        for key, value in span["attrs"].items():
            attrs[key] = attrs.get(key, 0) + value
            per = (name, key)
            attrs[per] = attrs.get(per, 0) + value

    def a(key, name=None):
        return attrs.get((name, key) if name else key, 0)

    root_self = sum(
        selfs[s["id"]] for s in spans if _on_root_lane(s, start, end)
    )
    wall = end - start
    metrics = {
        "compiler.compile_s": own.get("compiler.compile", 0.0),
        "config.resolve_s": own.get("config.resolve", 0.0),
        "config.resolve_calls": calls.get("config.resolve", 0),
        "search.dedup_hits": a("dedup_hits", "search"),
        "instrument.s": own.get("instrument", 0.0),
        "instrument.calls": calls.get("instrument", 0),
        "instrument.block_hit_ratio": _ratio(a("block_hits"),
                                             a("block_misses")),
        "vm.load_s": own.get("vm.load", 0.0),
        "vm.execute_s": own.get("vm.execute", 0.0),
        "vm.runs": calls.get("vm.execute", 0),
        "vm.steps": a("steps", "vm.execute"),
        "vm.fuse_hit_ratio": _ratio(a("fuse_hits"), a("fuse_misses")),
        "vm.compile_hit_ratio": _ratio(a("compile_hits"),
                                       a("compile_misses")),
        "workloads.verify_s": own.get("workloads.verify", 0.0),
        "workloads.verify_calls": calls.get("workloads.verify", 0),
        "analysis.s": own.get("analysis", 0.0),
        "analysis.total_s": whole.get("analysis", 0.0),
        "search.pruned": a("pruned", "search"),
        "search.configs_resolved": a("configs_tested", "search")
        + a("dedup_hits", "search") + a("pruned", "search"),
        "search.configs_executed": a("configs_executed", "search"),
        "search.descent_configs": a("descent_configs", "search"),
        "search.self_s": own.get("search", 0.0),
        "search.parallel.batch_s": whole.get("search.parallel.batch", 0.0),
        "search.parallel.batches": calls.get("search.parallel.batch", 0),
        "search.parallel.task_s": whole.get("search.parallel.task", 0.0),
        "store.get_s": own.get("store.get", 0.0),
        "store.put_s": own.get("store.put", 0.0),
        "store.gets": calls.get("store.get", 0),
        "store.hits": a("hits", "store.get"),
        "store.puts": calls.get("store.put", 0),
        "campaign.checkpoint_s": own.get("campaign.checkpoint", 0.0),
        "service.queue_wait_s": queue_wait,
        "service.batch_s": whole.get("service.batch", 0.0),
        "cluster.worker.task_s": whole.get("cluster.worker.task", 0.0),
        "trace.wall_s": wall,
        "trace.untraced_s": wall - root_self,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    metrics["service.lease_overhead_s"] = (
        metrics["service.batch_s"] - metrics["cluster.worker.task_s"]
    )
    return metrics


#: counts that repeat exactly from run to run on a deterministic load
EXACT_COUNTS = (
    "config.resolve_calls", "search.dedup_hits", "instrument.calls",
    "vm.runs", "vm.steps", "workloads.verify_calls", "search.pruned",
    "search.configs_resolved", "search.configs_executed",
    "search.descent_configs", "search.parallel.batches",
)


def layer_table(workload: str, spans: list, start: float, end: float,
                metrics: dict, exact: bool) -> str:
    """Human-readable per-layer report of one traced pass; *exact* says
    whether the load's counts repeat exactly (no racing tenants)."""
    from arith import self_times

    selfs = self_times(spans)
    rows: dict = {}
    for span in spans:
        row = rows.setdefault(span["name"], {
            "calls": 0, "self": 0.0, "root": 0.0, "lanes": set(),
        })
        row["calls"] += 1
        row["self"] += selfs[span["id"]]
        row["lanes"].add(span["lane"].split("/", 1)[0])
        if _on_root_lane(span, start, end):
            row["root"] += selfs[span["id"]]
    wall = end - start
    lines = [
        f"traced set-up and pass of {workload}: pass wall {wall:.4f} s; "
        f"main-lane columns cover the pass only",
        f"{'span':<24} {'lanes':<18} {'calls':>7} {'self s':>10} "
        f"{'main-lane s':>11} {'% wall':>7}",
    ]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self"]):
        lines.append(
            f"{name:<24} {','.join(sorted(row['lanes'])):<18} "
            f"{row['calls']:>7} {row['self']:>10.4f} {row['root']:>11.4f} "
            f"{100.0 * row['root'] / wall:>6.1f}%"
        )
    untraced = metrics["trace.untraced_s"]
    lines.append(
        f"{'untraced remainder':<24} {'main':<18} {'':>7} {'':>10} "
        f"{untraced:>11.4f} {100.0 * untraced / wall:>6.1f}%"
    )
    lines.append(
        f"tracing overhead: traced pass wall / untraced pass wall, as "
        f"reported = {metrics['trace.overhead_ratio']:.3f}x"
    )
    lines.append("metric                          value  kind")
    for name, value in metrics.items():
        if isinstance(value, int):
            kind = "exact" if exact and name in EXACT_COUNTS else "count"
        elif name.endswith("ratio"):
            kind = "ratio"
        else:
            kind = "s"
        shown = f"{value}" if isinstance(value, int) else f"{value:.4f}"
        lines.append(f"{name:<28} {shown:>10}  {kind}")
    lines.append(
        "main-lane self times plus the untraced remainder equal the traced "
        "wall; other lanes (pool, worker, job, tenant) run concurrently and "
        "their self times are busy time"
    )
    return "\n".join(lines)
