"""Tree rendering of configurations (the paper's Figure 4, as text).

Each node shows its explicit flag (column 1), its *effective* policy
after hierarchical override resolution, and — when a profile is given —
the share of candidate executions under the node, which is the
information the GUI uses to steer a developer toward worthwhile
conversions.  With an analysis report attached each instruction also
carries its shadow columns: the channel verdict of the singleton
replacement and the worst local float32 error the shadow observed;
group nodes aggregate their verdict census.
"""

from __future__ import annotations

from repro.config.model import Config, ConfigNode, LEVEL_INSN


def _node_weight(node: ConfigNode, profile: dict) -> int:
    return sum(profile.get(i.addr, 0) for i in node.instructions())


def _insn_analysis(analysis, node) -> str:
    ia = analysis.get(node.addr)
    if ia is None:
        return "  [shadow: unobserved]"
    verdict = ia.verdict
    if verdict == "unknown" and ia.verdict_why:
        verdict = f"unknown:{ia.verdict_why}"
    err = f" lerr={ia.max_local_err:.1e}" if ia.max_local_err else ""
    marks = ""
    if ia.cancel_events:
        marks += f" cancel={ia.cancel_events}"
    if ia.overflow:
        marks += f" ovf={ia.overflow}"
    if ia.flips:
        marks += f" flips={ia.flips}"
    return f"  [shadow: {verdict}{err}{marks}]"


def _group_analysis(analysis, node) -> str:
    summary = analysis.summarize([i.addr for i in node.instructions()])
    if summary is None:
        return "  [shadow: unobserved]"
    verdicts = summary["verdicts"]
    census = "/".join(
        f"{n} {v}" for v, n in verdicts.items()
    )
    return f"  [shadow: {census}]"


def render_config_tree(
    config: Config,
    profile: dict | None = None,
    max_instructions: int | None = None,
    analysis=None,
) -> str:
    """Render the structure tree with flags and effective policies.

    *analysis* is an optional :class:`repro.analysis.AnalysisReport`;
    when given, every line grows a shadow column.
    """
    tree = config.tree
    total = 1
    if profile:
        total = max(1, sum(profile.get(i.addr, 0) for i in tree.instructions()))
    lines = [f"program: {tree.program_name}   candidates: {tree.candidate_count}"]
    lines.append("flag  effective  structure")
    for root in tree.roots:
        _render(
            root, config, profile, total, 0, lines, max_instructions, analysis
        )
    return "\n".join(lines) + "\n"


def _render(node, config, profile, total, depth, lines, max_instructions,
            analysis, shown=None):
    if shown is None:
        shown = [0]
    flag = config.flags.get(node.node_id)
    col = flag.value if flag is not None else "."
    indent = "  " * depth
    if node.level == LEVEL_INSN:
        if max_instructions is not None and shown[0] >= max_instructions:
            return
        shown[0] += 1
        effective = config.effective_policy(node).value
        extra = ""
        if profile is not None:
            count = profile.get(node.addr, 0)
            extra = f"  [{100.0 * count / total:5.2f}% execs]"
        if analysis is not None:
            extra += _insn_analysis(analysis, node)
        src = f"  ; line {node.line}" if node.line else ""
        lines.append(
            f"  {col}      {effective}      {indent}{node.node_id}: "
            f'{node.addr:#06x} "{node.text}"{extra}{src}'
        )
        return
    weight = ""
    if profile is not None:
        weight = f"  [{100.0 * _node_weight(node, profile) / total:5.1f}% execs]"
    if analysis is not None:
        weight += _group_analysis(analysis, node)
    lines.append(f"  {col}             {indent}{node.node_id}: {node.label}{weight}")
    for child in node.children:
        _render(child, config, profile, total, depth + 1, lines,
                max_instructions, analysis, shown)


def render_search_summary(result) -> str:
    """One-paragraph summary of a SearchResult plus its history tail."""
    lines = [
        f"search of {result.workload}: {result.candidates} candidates, "
        f"{result.configs_tested} configurations tested",
        f"  static  replaced: {result.static_pct * 100.0:5.1f}%",
        f"  dynamic replaced: {result.dynamic_pct * 100.0:5.1f}%",
        f"  final (union) verification: "
        f"{'pass' if result.final_verified else 'fail'}",
    ]
    if getattr(result, "analysis_used", False):
        lines.append(
            f"  analysis guidance: {result.analysis_pruned} "
            f"evaluations pruned"
        )
    lines.append("  history:")
    for record in result.history:
        if record.passed:
            status = "PASS"
        elif record.trap:
            status = "TRAP"
        elif getattr(record, "reason", "") == "pruned":
            status = "prun"
        else:
            status = "fail"
        lines.append(f"    {status:4s}  {record.label}")
    return "\n".join(lines) + "\n"
