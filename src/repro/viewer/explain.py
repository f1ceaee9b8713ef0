"""The search "explain" report: why each site ended up at its precision.

A completed search leaves its evidence scattered across four artifacts:
the result history (what was tested, what passed), the shadow-value
analysis (what was predicted), the profile (what each site costs), and
the trace (retries, crashes, store replays, worker attribution).  This
module threads them back together *per config-tree site*, producing the
decision-provenance document a developer reads before trusting — or
overriding — the recommended configuration.

Every input except the result itself is optional; sections degrade to
"(not available)" rather than failing, so the report renders for a bare
`SearchResult` and gets richer as artifacts are supplied.
"""

from __future__ import annotations

from repro.config.model import LEVEL_FUNCTION, Policy


def render_explain_report(
    result, analysis=None, events=None, profile=None
) -> str:
    """Render decision provenance for *result* (a SearchResult).

    ``analysis`` is the :class:`repro.analysis.AnalysisReport` that
    guided (or could have guided) the search; ``events`` a list of trace
    events (see :func:`repro.telemetry.tools.load_events`); ``profile``
    a profile document (:func:`repro.profile.collect_profile`).
    """
    lines = [f"# Search explanation: {result.workload}", ""]
    config = (
        result.refined_config
        if result.refined_config is not None and result.refined_verified
        else result.final_config
    )
    if config is None:
        lines.append("No final configuration — the search found nothing.")
        return "\n".join(lines)

    evidence = _evidence_by_node(result.history)
    site_cycles, total_cycles = _cycles_by_node(events, profile)

    lines += ["## Per-site decisions", ""]
    lines += [
        "| site | function | policy | analysis | evidence | cycle share |",
        "|---|---|---|---|---|---|",
    ]
    for node in sorted(config.tree.by_addr.values(), key=lambda n: n.addr):
        policy = config.effective_policy(node)
        verdict = _verdict_for(analysis, node)
        records = _records_for(node, evidence)
        cycles = site_cycles.get(node.node_id)
        share = (
            f"{100.0 * cycles / total_cycles:.1f}%"
            if cycles is not None and total_cycles
            else "-"
        )
        lines.append(
            f"| `{node.node_id}` | `{_function_of(node)}` "
            f"| {_width_label(policy)} "
            f"| {verdict} | {_summarize_records(records)} | {share} |"
        )
    lines.append("")

    reasons = result.fail_reasons()
    lines += ["## Reliability", ""]
    lines.append(f"* evaluations: **{result.configs_tested}**")
    for reason, count in sorted(reasons.items()):
        lines.append(f"* failed with `{reason}`: **{count}**")
    if events:
        retries = sum(1 for e in events if e["kind"] == "eval.retry")
        requeues = sum(1 for e in events if e["kind"] == "cluster.requeue")
        crashes = sum(1 for e in events if e["kind"] == "eval.worker_crash")
        lost = sum(1 for e in events if e["kind"] == "cluster.worker_lost")
        lines.append(
            f"* retries: **{retries}**, cluster requeues: **{requeues}**, "
            f"workers lost: **{lost}**, configs crashed out: **{crashes}**"
        )
        workers = sorted({e["worker"] for e in events if "worker" in e})
        if workers:
            remote = [e for e in events if e["kind"] == "eval.remote"]
            per = {w: 0 for w in workers}
            for e in remote:
                if e.get("worker") in per:
                    per[e["worker"]] += 1
            shares = ", ".join(f"{w}: {n}" for w, n in sorted(per.items()))
            lines.append(
                f"* distributed across **{len(workers)}** worker(s) "
                f"({shares})"
            )
    lines.append("")

    lines += ["## Replays and caches", ""]
    if result.resumed:
        lines.append("* resumed from a campaign checkpoint")
    lines.append(f"* store replays: **{result.store_replays}**")
    if events:
        counters = _replayed_counters(events)
        for name in ("eval.cache_hits", "store.hits"):
            if name in counters:
                lines.append(f"* `{name}`: **{counters[name]}**")
    lines.append("")
    return "\n".join(lines)


def _width_label(policy) -> str:
    """A site's width as the report prints it: ``single``/``double`` as
    in the paper's binary space, the width's name below f32."""
    if not policy.is_narrow:
        return "double"
    return "single" if policy is Policy.SINGLE else policy.width.name


# -- evidence plumbing -------------------------------------------------------


def _evidence_by_node(history) -> dict:
    """node id -> [EvalRecord] for every record naming that node.

    Labels are the engine's human-readable group names — node ids joined
    with ``+`` — so a plain token split recovers the mapping.
    """
    per: dict[str, list] = {}
    for record in history:
        for token in record.label.replace("+", " ").split():
            per.setdefault(token, []).append(record)
    return per


def _records_for(node, evidence: dict) -> list:
    """Evidence records for *node*: its own plus every ancestor's."""
    records = []
    current = node
    while current is not None:
        records.extend(evidence.get(current.node_id, ()))
        current = current.parent
    return records


def _summarize_records(records: list) -> str:
    if not records:
        return "untested (inherited)"
    passes = sum(1 for r in records if r.passed)
    last = records[-1]
    if last.passed:
        decisive = f"passed at `{last.label}` ({last.phase})"
    elif last.reason:
        decisive = f"{last.reason} at `{last.label}` ({last.phase})"
    else:
        decisive = f"failed at `{last.label}` ({last.phase})"
    return f"{len(records)} eval(s), {passes} pass; {decisive}"


def _verdict_for(analysis, node) -> str:
    if analysis is None:
        return "-"
    ia = analysis.instructions.get(node.addr)
    if ia is None:
        return "unobserved"
    return ia.verdict


def _function_of(node) -> str:
    current = node.parent
    while current is not None:
        if current.level == LEVEL_FUNCTION:
            return current.label
        current = current.parent
    return "?"


def _cycles_by_node(events, profile) -> tuple[dict, int]:
    """Per-site cycles from the profile document or profile.site events."""
    per: dict[str, int] = {}
    if profile is not None:
        for site in profile.get("sites", ()):
            if site["node"]:
                per[site["node"]] = site["cycles"]
        return per, profile.get("attributed_cycles", 0)
    if events:
        total = 0
        for event in events:
            if event["kind"] == "profile.site":
                if event["node"]:
                    per[event["node"]] = event["cycles"]
                total += event["cycles"]
        return per, total
    return per, 0


def _replayed_counters(events) -> dict:
    counters: dict[str, int] = {}
    for event in events:
        if event["kind"] == "metric.count":
            counters[event["name"]] = (
                counters.get(event["name"], 0) + event["value"]
            )
    return counters
