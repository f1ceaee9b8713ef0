"""Markdown report generation for a completed search.

Produces the artifact a developer would actually act on after running
the analysis: headline numbers, the per-function breakdown with profile
weights (where to spend conversion effort), the tested-configuration
history, and the final configuration in the exchange format — roughly the
information the paper's GUI presents, as a shareable document.
"""

from __future__ import annotations

from repro.config.fileformat import dump_config
from repro.config.model import LEVEL_FUNCTION


def render_markdown_report(result, workload=None, metrics=None,
                           analysis=None, lattice=None) -> str:
    """Render *result* (a SearchResult) as a Markdown document.

    ``metrics`` may be a :class:`repro.telemetry.MetricsRegistry` collected
    during the search; its summary table is embedded as an extra section.
    ``analysis`` may be the :class:`repro.analysis.AnalysisReport` that
    guided the search; its verdict census is embedded too.  ``lattice``
    is the search's precision lattice (a spec string or
    :class:`repro.lattice.Lattice`): the recommended configuration is
    written under its header, exactly as ``dump_config`` writes it.
    """
    lines = [f"# Mixed-precision analysis: {result.workload}", ""]
    lines += [
        f"* candidates: **{result.candidates}** double-precision instructions",
        f"* configurations tested: **{result.configs_tested}**",
        f"* static replacement: **{result.static_pct * 100:.1f}%** of instructions",
        f"* dynamic replacement: **{result.dynamic_pct * 100:.1f}%** of executions",
        f"* final (union) verification: **{'pass' if result.final_verified else 'FAIL'}**",
    ]
    if result.refined_config is not None:
        lines += [
            f"* second-phase refinement: **{result.refined_static_pct * 100:.1f}%** "
            f"static / **{result.refined_dynamic_pct * 100:.1f}%** dynamic, "
            f"verification **{'pass' if result.refined_verified else 'FAIL'}** "
            f"({result.refine_drops} replacement(s) dropped)",
        ]
    if getattr(result, "analysis_used", False):
        lines.append(
            f"* analysis guidance: **{result.analysis_pruned}** "
            f"evaluation(s) pruned by shadow-channel verdicts"
        )
    lines.append(f"* wall time: {result.wall_seconds:.1f}s")
    lines.append("")

    if analysis is not None:
        lines += ["## Shadow analysis", ""]
        lines += [
            f"* observed: **{analysis.observed}** of "
            f"{analysis.candidates} candidates",
            "",
            "| verdict | instructions |",
            "|---|---|",
        ]
        for verdict, count in analysis.verdict_histogram().items():
            lines.append(f"| {verdict} | {count} |")
        lines.append("")
        flagged = [
            ia
            for ia in analysis.instructions.values()
            if ia.cancel_events or ia.overflow or ia.flips
        ]
        if flagged:
            lines += [
                "Instructions with shadow warnings "
                "(cancellation / float32 overflow / decision flips):",
                "",
                "| insn | mnemonic | verdict | cancels | overflows | flips |",
                "|---|---|---|---|---|---|",
            ]
            for ia in sorted(flagged, key=lambda e: e.addr):
                lines.append(
                    f"| `{ia.node_id or hex(ia.addr)}` | {ia.mnemonic} "
                    f"| {ia.verdict} | {ia.cancel_events} "
                    f"| {ia.overflow} | {ia.flips} |"
                )
            lines.append("")

    config = (
        result.refined_config
        if result.refined_config is not None and result.refined_verified
        else result.final_config
    )

    if config is not None:
        profile = workload.profile() if workload is not None else {}
        total = max(1, sum(profile.get(i.addr, 0) for i in config.tree.instructions()))
        lines += ["## Per-function breakdown", ""]
        lines += [
            "| function | candidates | replaced | execution share |",
            "|---|---|---|---|",
        ]
        for fn in config.tree.nodes_at(LEVEL_FUNCTION):
            insns = list(fn.instructions())
            policies = [config.effective_policy(i) for i in insns]
            replaced = sum(1 for p in policies if p.is_narrow)
            weight = sum(profile.get(i.addr, 0) for i in insns) / total
            lines.append(
                f"| `{fn.label}` | {len(insns)} | {replaced} "
                f"({100.0 * replaced / max(1, len(insns)):.0f}%) "
                f"| {weight * 100:.1f}% |"
            )
        lines.append("")

    lines += ["## Search history", ""]
    lines += [
        "| # | configuration | phase | outcome | wall |",
        "|---|---|---|---|---|",
    ]
    for index, record in enumerate(result.history, start=1):
        if record.passed:
            outcome = "pass"
        elif record.trap:
            outcome = "trap"
        elif getattr(record, "reason", "") == "pruned":
            outcome = "pruned"
        else:
            outcome = "fail"
        wall = f"{record.wall_s * 1000.0:.0f} ms" if record.wall_s else "-"
        lines.append(
            f"| {index} | `{record.label}` | {record.phase} "
            f"| {outcome} | {wall} |"
        )
    lines.append("")

    if metrics is not None:
        lines += ["## Telemetry metrics", "", "```"]
        lines.append(metrics.summary().rstrip())
        lines += ["```", ""]

    if config is not None:
        lines += [
            "## Recommended configuration (exchange format)",
            "",
            "```",
            dump_config(config, lattice=lattice).rstrip(),
            "```",
            "",
        ]
    return "\n".join(lines)
