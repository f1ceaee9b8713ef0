"""Annotated source view (the GUI's debug-information panel).

Given the original source text of a module and a configuration, prints
every line with the effective precision decisions of the instructions
compiled from it — ``s``/``d``/``i`` markers plus candidate counts —
which is the view "that shows the corresponding source code location for
a particular instruction" in the paper.
"""

from __future__ import annotations

from collections import defaultdict

from repro.config.model import Config


def render_source_view(config: Config, source: str, module_label: str = "") -> str:
    """Annotate *source* lines with per-line precision decisions."""
    by_line: dict[int, list] = defaultdict(list)
    for node in config.tree.instructions():
        if node.line:
            by_line[node.line].append(config.effective_policy(node))

    lines = []
    if module_label:
        lines.append(f"; module {module_label}")
    for number, text in enumerate(source.splitlines(), start=1):
        policies = by_line.get(number)
        if policies:
            counts = {p: policies.count(p) for p in set(policies)}
            marker = "/".join(
                f"{count}{policy.value}" for policy, count in sorted(
                    counts.items(), key=lambda kv: kv[0].value
                )
            )
            marker = f"[{marker:>6s}]"
        else:
            marker = " " * 8
        lines.append(f"{marker} {number:4d}  {text}")
    return "\n".join(lines) + "\n"
