#!/usr/bin/env python3
"""The repository benchmark: mixed-precision searches end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite-serial --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each was chosen):

``suite-serial``
    eight in-process serial searches with the ``SearchOptions()``
    defaults.
``lattice-guided``
    four in-process searches with shadow analysis, the four-width
    precision lattice and a two-process fork pool.
``service-mixed``
    a ``PrecisionService`` with two ``repro worker`` processes and two
    tenants, each submitting a six-job mix in a closed loop.

A run sets up several times (``setup_s`` is the median), then repeats
the workload in *passes* until ``--seconds`` have been spent.  In-process
workloads count their first pass as a warm-up once there is a second.
Every search result is re-checked on the cold reference path, and every
service job against an in-process search.  With ``--trace 1`` the run
makes one traced and one untraced pass and reports per-layer metrics
instead (see ``spans.py`` and LAYERS.md).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units
come from ``BENCHMARK.json``.  Raw spans, the layer table and a run
summary are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: set-ups per run; setup_s is their median
SETUPS = 4
#: (name, class) pairs
SUITE_SERIAL = [
    ("cg", "S"), ("ep", "T"), ("ft", "T"), ("sp", "T"),
    ("nekcg", "T"), ("mg", "W"), ("lu", "S"), ("ep", "S"),
]
LATTICE_GUIDED = [("mg", "W"), ("cg", "S"), ("nekcg", "T"), ("ft", "T")]
SERVICE_MIX = [
    ("cg", "T"), ("ep", "T"), ("sp", "T"), ("nekcg", "T"), ("ft", "T"),
    ("cg", "T"),
]
#: each tenant's rotation of SERVICE_MIX.  The offset between them fixes
#: how often the tenants race on the same program, and so how many
#: configurations the shared store answers (293 to 433 executions over
#: the six offset-1 pairs), so the seed only decides which tenant takes
#: which rotation.
SERVICE_ROTATIONS = (0, 1)
WORKERS = 2


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def proc_cpu_seconds(pid: int) -> float:
    """User+sys CPU of a live child process, from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


#: seconds one calibration kernel takes at the reference machine speed
#: (the median on the 2-core Intel Xeon at 2.0 GHz this benchmark was
#: sized on).  Only scales the normalized times; it never changes a ratio.
CAL_REF = 0.006
CAL_MASK = (1 << 64) - 1


def _kernel(n: int = 10_000) -> int:
    """Pure-Python work shaped like the VM's dispatch loop (closure
    calls, list and dict indexing, masked integer arithmetic) that uses
    nothing from ``repro``, so no program change can speed it up."""
    regs = [0] * 16
    mem = list(range(512))
    table = {i: (i * 2654435761) & CAL_MASK for i in range(64)}
    ops = (
        lambda a, b: (a + b) & CAL_MASK,
        lambda a, b: (a * b) & CAL_MASK,
        lambda a, b: a ^ b,
        lambda a, b: (a >> 3) | (b << 1) & CAL_MASK,
    )
    for i in range(n):
        r = i & 15
        regs[r] = ops[i & 3](regs[(r + 1) & 15], mem[i & 511] + table[i & 63])
        mem[(i * 7) & 511] = regs[r] & 0xFFFF
    return regs[0]


def calibrate() -> float:
    """Seconds the calibration kernel takes right now (median of 5)."""
    times = []
    for _ in range(5):
        began = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - began)
    return sorted(times)[2]


def speed_factor(before: float, after: float) -> float:
    """Converts seconds measured between two calibrations into seconds
    at the reference speed.  The shared machine this benchmark runs on
    drifts by tens of percent within minutes; a single-thread search
    and the kernel slow down largely together, so the product is
    steadier (see README.md for where it is and is not used)."""
    return 2.0 * CAL_REF / (before + after)


def label(workload) -> str:
    return f"{workload.name}.{workload.klass}"


class Pass:
    """One repetition of a workload: its operations and what it cost.

    ``wall``, ``cpu`` and each operation's ``latency`` are the reported
    times (at the reference speed for loads that normalize); the
    ``clock_`` twins are the same times as the clock read them.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        #: dicts: label, result or row, error, mismatches, latencies
        self.ops: list = []
        self.start = self.end = 0.0    # clock bounds of the pass
        self.wall = self.clock_wall = 0.0
        self.cpu = self.clock_cpu = 0.0
        self.setup = None   # (reported, clock) set-up paid by this pass
        self.spans: list = []
        self.queue_wait = 0.0


def cold_verdict(workload, config) -> tuple:
    """(passed, cycles) of *config* on the cold reference path: uncached
    instrumentation, the reference (unfused) VM loop, then verify."""
    from repro.instrument.engine import instrument
    from repro.vm.errors import VmTrap
    from repro.vm.machine import run_program

    built = instrument(workload.program, config)
    try:
        result = run_program(built.program, fused=False, **workload.vm_params())
    except VmTrap:
        return False, 0
    return bool(workload.verify(result)), result.cycles


def reported_final(result) -> tuple | None:
    """(passed, cycles) the search reported for its final config."""
    for record in result.history:
        if record.phase == "final":
            return record.passed, record.cycles
    return None


class Checker:
    """Cold-path verdicts, each (program, config) computed once."""

    def __init__(self) -> None:
        self._verdicts: dict = {}

    def mismatches(self, workload, result) -> list:
        reported = reported_final(result)
        if reported is None:
            # Nothing passed, so no final config was composed or run.
            if result.final_verified:
                return ["final_verified without a final evaluation"]
            return []
        key = (label(workload), frozenset(result.final_config.flags.items()))
        if key not in self._verdicts:
            self._verdicts[key] = cold_verdict(workload, result.final_config)
        cold = self._verdicts[key]
        if cold != reported or reported[0] != result.final_verified:
            return [f"final config: search reported {reported}, "
                    f"cold reference path gives {cold}"]
        return []


# -- in-process workloads ---------------------------------------------------------


class InProcessLoad:
    """Searches in this process, one after another.  Searches that run
    on this one thread alone are reported at the reference speed (the
    speed probe runs on one thread too); fork-pool searches, whose
    children share the cores, as the clock read them."""

    warm_up = True
    setup_per_pass = False

    def __init__(self, programs, options: dict, seed: int) -> None:
        self.programs = list(programs)
        random.Random(seed).shuffle(self.programs)
        self.options = options
        self.normalized = options.get("workers", 1) == 1
        self.workloads: list = []

    def setup(self) -> float:
        """Compile every program, then run its baseline and profile."""
        from repro.workloads import make_workload

        start = time.perf_counter()
        workloads = [make_workload(name, klass) for name, klass in self.programs]
        for workload in workloads:
            workload.baseline()
            workload.profile()
        self.workloads = workloads
        return time.perf_counter() - start

    def run_pass(self, tracer) -> Pass:
        """Run every search once.  When normalizing, untraced passes
        probe the speed between searches; a traced pass only before and
        after, so that nothing untraced runs inside it."""
        from repro.search import SearchEngine, SearchOptions

        options = SearchOptions(**self.options)
        p = Pass(tracer is not None)
        probe = self.normalized and tracer is None
        last = calibrate() if self.normalized else 0.0
        p.start = time.perf_counter()
        for workload in self.workloads:
            if tracer is not None:
                tracer.set_op(label(workload))
            op = {"label": label(workload), "workload": workload}
            cpu0 = cpu_seconds()
            began = time.perf_counter()
            try:
                op["result"] = SearchEngine(workload, options).run()
            except Exception as exc:  # counted in failed_frac
                op["error"] = f"{type(exc).__name__}: {exc}"
            op["latency"] = time.perf_counter() - began
            op["cpu"] = cpu_seconds() - cpu0
            if probe:
                now = calibrate()
                op["factor"] = speed_factor(last, now)
                last = now
            p.ops.append(op)
        p.end = time.perf_counter()
        if not probe:
            factor = (speed_factor(last, calibrate())
                      if self.normalized else 1.0)
            for op in p.ops:
                op["factor"] = factor
        for op in p.ops:
            op["clock_latency"] = op["latency"]
            op["latency"] *= op["factor"]
            p.clock_wall += op["clock_latency"]
            p.wall += op["latency"]
            p.clock_cpu += op["cpu"]
            p.cpu += op["cpu"] * op["factor"]
        return p

    def check(self, passes) -> None:
        checker = Checker()
        rows: dict = {}
        for p in passes:
            for op in p.ops:
                result = op.get("result")
                if result is None:
                    continue
                found = checker.mismatches(op["workload"], result)
                # Identical searches must give identical rows.
                first = rows.setdefault(op["label"], result.row())
                if result.row() != first:
                    found.append(f"row {result.row()} differs from {first}")
                op["mismatches"] = found

    @staticmethod
    def quality(op) -> tuple | None:
        result = op.get("result")
        if result is None:
            return None
        return (result.static_pct * 100.0, result.dynamic_pct * 100.0,
                result.final_verified)

    @staticmethod
    def fingerprint(op):
        result = op["result"]
        return [op["label"], result.row()]


# -- the job service -------------------------------------------------------------------


class ServiceLoad:
    """A PrecisionService in this process, ``repro worker`` subprocesses,
    and closed-loop tenants (tenant 0 on the main thread).  Most of its
    wall is waiting on leases, polls and journal syncs, not computing,
    so its times are reported as the clock read them."""

    warm_up = False
    normalized = False
    #: each pass starts a fresh service, so that its store starts empty
    setup_per_pass = True

    def __init__(self, seed: int) -> None:
        rotations = list(SERVICE_ROTATIONS)
        random.Random(seed).shuffle(rotations)
        self.mixes = [SERVICE_MIX[r:] + SERVICE_MIX[:r] for r in rotations]
        self._serial = 0

    def _start(self, tracer=None):
        from repro.service import PrecisionService

        self._serial += 1
        root = OUT / f"service-{os.getpid()}-{self._serial}"
        shutil.rmtree(root, ignore_errors=True)
        service = PrecisionService(str(root))
        procs = []
        try:
            env = dict(os.environ, PYTHONPATH=str(SRC))
            if tracer is not None:
                command = [sys.executable, str(HERE / "worker_shim.py"),
                           service.address, tracer.outdir]
            else:
                command = [sys.executable, "-m", "repro", "worker",
                           service.address, "--quiet"]
            with open(OUT / "worker.log", "a") as log:
                for _ in range(WORKERS):
                    procs.append(subprocess.Popen(
                        command, cwd=ROOT, env=env,
                        stdout=subprocess.DEVNULL, stderr=log,
                    ))
            deadline = time.monotonic() + 60
            while service.workers_connected < WORKERS:
                if time.monotonic() > deadline:
                    raise RuntimeError("workers never connected")
                if any(proc.poll() is not None for proc in procs):
                    raise RuntimeError("a worker exited during start-up")
                time.sleep(0.005)
        except BaseException:
            self._stop(service, procs, root)
            raise
        return service, procs, root

    @staticmethod
    def _stop(service, procs, root) -> None:
        try:
            service.close()
        finally:
            for proc in procs:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            shutil.rmtree(root, ignore_errors=True)

    def setup(self) -> float:
        """Start the service and wait until its workers are connected,
        then tear it down again (a set-up sample beside the passes')."""
        start = time.perf_counter()
        live = self._start()
        elapsed = time.perf_counter() - start
        self._stop(*live)
        return elapsed

    def run_pass(self, tracer) -> Pass:
        from repro.service import ServiceClient

        p = Pass(tracer is not None)
        began = time.perf_counter()
        service, procs, root = self._start(tracer)
        clock = time.perf_counter() - began
        p.setup = (clock, clock)
        try:
            results: list = [[] for _ in self.mixes]

            def tenant(index: int) -> None:
                ops = results[index]
                with ServiceClient(service.address) as client:
                    for name, klass in self.mixes[index]:
                        op = {"label": f"{name}.{klass}"}
                        span = tracer.begin("tenant.job") if tracer else None
                        submitted = time.perf_counter()
                        try:
                            job = client.submit(
                                name, klass, {"analysis": False},
                                tenant=f"tenant{index}",
                            )
                            if span is not None:
                                span["op"] = job
                            reply = client.wait(job)
                            op.update(state=reply["state"], row=reply["row"],
                                      config=reply["config"])
                        except Exception as exc:  # counted in failed_frac
                            op["error"] = f"{type(exc).__name__}: {exc}"
                        op["latency"] = op["clock_latency"] = (
                            time.perf_counter() - submitted
                        )
                        if span is not None:
                            tracer.end(span)
                        ops.append(op)

            worker_cpu0 = sum(proc_cpu_seconds(proc.pid) for proc in procs)
            cpu0 = cpu_seconds()
            p.start = time.perf_counter()
            others = [
                threading.Thread(target=tenant, args=(i,), name=f"tenant{i}")
                for i in range(1, len(self.mixes))
            ]
            for thread in others:
                thread.start()
            tenant(0)
            for thread in others:
                thread.join()
            p.end = time.perf_counter()
            p.cpu = (cpu_seconds() - cpu0
                     + sum(proc_cpu_seconds(proc.pid) for proc in procs)
                     - worker_cpu0)
            p.wall = p.clock_wall = p.end - p.start
            p.clock_cpu = p.cpu
            p.queue_wait = sum(
                job.started - job.submitted for job in service.registry.jobs()
            )
            p.ops = [op for ops in results for op in ops]
        finally:
            self._stop(service, procs, root)
        return p

    def check(self, passes) -> None:
        """Each job's row and config must equal an in-process search of
        the same workload and options, whose final config must pass the
        cold-path check."""
        from repro.campaign import options_from_dict
        from repro.config.fileformat import dump_config
        from repro.search import SearchEngine
        from repro.workloads import make_workload

        options = options_from_dict({"analysis": False})
        checker = Checker()
        reference: dict = {}
        for name, klass in dict.fromkeys(SERVICE_MIX):
            workload = make_workload(name, klass)
            result = SearchEngine(workload, options).run()
            best = (result.refined_config
                    if result.refined_config is not None
                    and result.refined_verified else result.final_config)
            reference[f"{name}.{klass}"] = (
                result.row(),
                dump_config(best, lattice=options.lattice),
                checker.mismatches(workload, result),
            )
        for p in passes:
            for op in p.ops:
                if "row" not in op:
                    continue
                row, config, cold = reference[op["label"]]
                found = list(cold)
                if op["row"] != row:
                    found.append(f"job row {op['row']} != search row {row}")
                if op["config"] != config:
                    found.append("job config differs from the search's")
                op["mismatches"] = found

    @staticmethod
    def quality(op) -> tuple | None:
        row = op.get("row")
        if row is None:
            return None
        return row["static_pct"], row["dynamic_pct"], row["final"] == "pass"

    @staticmethod
    def fingerprint(op):
        return [op["label"], op.get("row")]


WORKLOADS = {
    "suite-serial": lambda seed: InProcessLoad(SUITE_SERIAL, {}, seed),
    "lattice-guided": lambda seed: InProcessLoad(
        LATTICE_GUIDED,
        {"analysis": True, "lattice": "f64,f32,bf16,f16", "workers": 2},
        seed,
    ),
    "service-mixed": ServiceLoad,
}


# -- measuring ---------------------------------------------------------------------------


def traced_pass(load, trace_dir: Path) -> Pass:
    import spans

    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    tracer = spans.Tracer(str(trace_dir))
    spans.install(tracer)
    try:
        if not load.setup_per_pass:
            # A traced set-up first, so that compile spans are recorded.
            load.setup()
        p = load.run_pass(tracer)
    finally:
        tracer.uninstall()
    p.spans = tracer.spans + spans.load_spans(str(trace_dir))
    shutil.rmtree(trace_dir, ignore_errors=True)
    return p


def measure(load, seconds: float, trace: bool) -> tuple[list, list]:
    """(set-up samples, passes) of one run."""
    setups: list = []

    def set_up() -> None:
        before = calibrate() if load.normalized else 0.0
        clock = load.setup()
        factor = speed_factor(before, calibrate()) if load.normalized else 1.0
        setups.append((clock * factor, clock))

    if not load.setup_per_pass:
        for _ in range(SETUPS):
            set_up()
    passes: list = []
    if trace:
        if load.warm_up:
            passes.append(load.run_pass(None))
        passes.append(traced_pass(load, OUT / f"trace-{os.getpid()}"))
        passes.append(load.run_pass(None))
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(load.run_pass(None))
    setups += [p.setup for p in passes if p.setup is not None]
    while len(setups) < SETUPS:
        set_up()
    return setups, passes


def measured(load, passes: list) -> list:
    """The passes whose timings count: all but a warm-up."""
    timed = [p for p in passes if not p.traced]
    if load.warm_up and len(timed) > 1:
        timed = timed[1:]
    return timed


def end_to_end(load, setups, passes, attempted, failed,
               clock: bool = False) -> dict:
    """The end-to-end metrics, with times as reported or, with *clock*,
    as the clock read them."""
    import arith

    timed = measured(load, passes)
    quality = [q for p in passes for q in map(load.quality, p.ops) if q]
    prefix = "clock_" if clock else ""
    return {
        "setup_s": arith.median(s[clock] for s in setups),
        "wall_s": arith.median(getattr(p, prefix + "wall") for p in timed),
        "cpu_s": arith.median(getattr(p, prefix + "cpu") for p in timed),
        "job_latency_s_p50": arith.median(
            op[prefix + "latency"] for p in timed for op in p.ops
        ),
        "replaced_static_pct": arith.mean(q[0] for q in quality),
        "replaced_dynamic_pct": arith.mean(q[1] for q in quality),
        "final_pass_frac": arith.mean(q[2] for q in quality),
        "failed_frac": failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def report_end_to_end(name, seed, load, setups, passes, values, raw,
                      attempted, units) -> None:
    import arith

    timed = measured(load, passes)
    latencies = [op["latency"] for p in timed for op in p.ops]
    samples = {
        "setup_s": len(setups), "wall_s": len(timed), "cpu_s": len(timed),
        "job_latency_s_p50": len(latencies),
    }
    print(f"workload {name}  seed {seed}  passes {len(passes)} "
          f"({len(passes) - len(timed)} warm-up)  operations {attempted}")
    print(f"{'metric':<22} {'value':>12} {'raw clock':>12} {'unit':<6} samples")
    for metric, value in values.items():
        count = samples.get(metric, attempted)
        print(f"{metric:<22} {value:>12.4f} {raw[metric]:>12.4f} "
              f"{units[metric]:<6} {count}")
    speed = ("at the reference machine speed (see README.md)"
             if load.normalized else "clock times")
    print(f"values are {speed}; job latency " + "  ".join(
              f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
              for k, v in arith.summarize(latencies).items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="mixed-precision search benchmark"
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import arith
    import spans

    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    OUT.mkdir(exist_ok=True)

    load = WORKLOADS[args.workload](args.seed)
    setups, passes = measure(load, args.seconds, bool(args.trace))
    load.check(passes)
    attempted, failed = arith.count_failures(
        op for p in passes for op in p.ops
    )
    for p in passes:
        for op in p.ops:
            for problem in ([op["error"]] if op.get("error") else []) + \
                    op.get("mismatches", []):
                print(f"FAILED {op['label']}: {problem}", file=sys.stderr)

    values = end_to_end(load, setups, passes, attempted, failed)
    raw = end_to_end(load, setups, passes, attempted, failed, clock=True)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setups": setups,
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu,
                    "clock_wall_s": p.clock_wall, "clock_cpu_s": p.clock_cpu,
                    "traced": p.traced} for p in passes],
        "end_to_end": values,
        "end_to_end_clock": raw,
        "fingerprint": sorted(
            load.fingerprint(op) for op in passes[0].ops if "error" not in op
        ),
    }
    if args.trace:
        traced = next(p for p in passes if p.traced)
        untraced = measured(load, passes)
        layers = spans.layer_metrics(
            traced.spans, traced.start, traced.end,
            untraced_wall=arith.median(p.wall for p in untraced),
            traced_wall=traced.wall,
            queue_wait=traced.queue_wait,
        )
        table = spans.layer_table(
            args.workload, traced.spans, traced.start, traced.end, layers,
            exact=isinstance(load, InProcessLoad),
        )
        print(table)
        stem = f"{args.workload}-{args.seed}"
        with open(OUT / f"layers-{stem}.txt", "w") as handle:
            handle.write(table + "\n")
        with open(OUT / f"spans-{stem}.jsonl", "w") as handle:
            for span in traced.spans:
                handle.write(json.dumps(span) + "\n")
        summary["per_layer"] = layers
        wanted, metrics = bench["per_layer"], layers
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        units["failed_frac"] = "ratio"  # printed, but no bound (it is 0)
        report_end_to_end(args.workload, args.seed, load, setups, passes,
                          values, raw, attempted, units)
        wanted, metrics = bench["end_to_end"], values
    with open(OUT / f"summary-{args.workload}-{args.seed}.json", "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
