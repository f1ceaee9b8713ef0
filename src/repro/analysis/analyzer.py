"""Run the shadow-value analysis over one workload.

One observed execution of the *original* double-precision program —
same VM parameters the workload itself runs with — produces the full
:class:`~repro.analysis.report.AnalysisReport`.  One observer
(:class:`~repro.analysis.observer.ShadowObserver`) rides the run: it
gathers the statistics (value ranges, cancellations, float32 shadow
errors) and mirrors every singleton-replacement run bit-exactly, and
each mirror becomes a pass/fail/unknown *verdict* by replaying its
diverged outputs through the workload's own verification routine.  This
is the "single dynamic-analysis pass" that replaces many search
evaluations: the run costs roughly one instrumented evaluation, and its
verdicts let the search skip every singleton whose failure is already
decided.
"""

from __future__ import annotations

from repro.analysis.observer import ShadowObserver
from repro.analysis.report import (
    AnalysisReport,
    InstructionAnalysis,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_UNKNOWN,
)
from repro.config.generator import build_tree
from repro.telemetry import NULL_TELEMETRY
from repro.vm.errors import VmTrap
from repro.vm.machine import ExecResult, run_program


def analyze(workload, telemetry=None, tree=None) -> AnalysisReport:
    """Shadow-execute *workload* once and build its analysis report.

    The workload's own VM parameters (stack, seed, step budget) are
    used, so the observed run is the exact run the search's baseline
    evaluation performs.  With *telemetry* attached the run is wrapped
    in an ``analysis.run`` span and the report totals land in the
    ``analysis.*`` counters.  *tree* (a pre-built
    :class:`repro.config.model.ProgramTree`) is accepted to avoid a
    rebuild when the caller — the search engine — already has one.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    name = getattr(workload, "name", workload.program.name)
    observer = ShadowObserver()
    result = None
    with tel.span("analysis.run", workload=name):
        try:
            result = run_program(
                workload.program,
                observer=observer,
                **getattr(workload, "vm_params", dict)(),
            )
        except VmTrap:
            # The original program should not trap; if it does the
            # partial statistics are still valid observations, but no
            # channel verdict can be trusted (the mirrored runs were cut
            # short with it).
            pass
        if tree is None:
            tree = build_tree(workload.program)
        instructions = {}
        for addr, st in observer.stats.items():
            node = tree.by_addr.get(addr)
            verdict, why = _verdict(workload, observer, addr, result)
            instructions[addr] = InstructionAnalysis(
                addr=addr,
                node_id=node.node_id if node is not None else "",
                mnemonic=st.mnemonic,
                execs=st.execs,
                min_abs=st.min_abs,
                max_abs=st.max_abs,
                cancel_events=st.cancel_events,
                cancel_max_bits=st.cancel_max_bits,
                max_local_err=st.max_local_err,
                max_shadow_err=st.max_shadow_err,
                overflow=st.overflow,
                underflow=st.underflow,
                flips=st.flips,
                verdict=verdict,
                verdict_why=why,
            )
        report = AnalysisReport(
            workload=name,
            program=workload.program.name,
            candidates=tree.candidate_count,
            observed=len(instructions),
            instructions=instructions,
        )
    if tel.enabled:
        tel.count("analysis.instructions", report.observed)
        tel.count(
            "analysis.cancellations",
            sum(ia.cancel_events for ia in instructions.values()),
        )
        tel.count(
            "analysis.flips", sum(ia.flips for ia in instructions.values())
        )
        tel.count(
            "analysis.overflows",
            sum(ia.overflow + ia.underflow for ia in instructions.values()),
        )
        for verdict in (VERDICT_PASS, VERDICT_FAIL, VERDICT_UNKNOWN):
            n = sum(
                1 for ia in instructions.values() if ia.verdict == verdict
            )
            if n:
                tel.count(f"analysis.verdict.{verdict}", n)
    return report


def _verdict(workload, observer: ShadowObserver, addr: int, result):
    """Exact singleton outcome for *addr*: substitute the channel's
    diverged output records into the baseline stream and run the
    workload's own verification."""
    if result is None:  # baseline trapped: no mirrored run completed
        return VERDICT_UNKNOWN, "baseline-trap"
    ch = observer.channels.get(addr)
    outs = observer.outputs_for(addr, result.outputs)
    if outs is None:
        why = ch.why if ch is not None and ch.why else "collective"
        return VERDICT_UNKNOWN, why
    fake = ExecResult(
        outputs=outs, cycles=result.cycles, steps=result.steps
    )
    return (VERDICT_PASS if workload.verify(fake) else VERDICT_FAIL), ""
