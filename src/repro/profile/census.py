"""Per-site cycle census: where a workload's cycles actually go.

The profiler runs a workload's original double-precision build once
with per-instruction execution counting and turns the tallies into a
schema-versioned profile document:

* **sites** — every executed instruction with its text address, static
  cycle attribution (execution count times the instruction's
  fall-through cost, the same attribution :meth:`VM.opcode_stats`
  uses), and its config-tree node id when the instruction is a
  precision-replacement candidate (``node`` is ``""`` otherwise);
* **opcodes** — the per-mnemonic roll-up;
* **blocks / functions / modules** — candidate cycles summed up the
  config tree, i.e. exactly the per-site cost signal a cost-aware
  search objective weighs when it decides which subtree to descend.

Counting comes from the VM's ``profile=True`` counters, which stay on
fused dispatch; a ``VM(..., fused=False, profile=True)`` run is the
oracle they are differential-tested against (tests/profile).
"""

from __future__ import annotations

import json

from repro.config.generator import build_tree
from repro.config.model import LEVEL_BLOCK, LEVEL_FUNCTION, LEVEL_MODULE
from repro.telemetry import NULL_TELEMETRY
from repro.vm.machine import VM

#: Schema version of the profile document (bump on shape changes).
PROFILE_VERSION = 1


def collect_profile(workload, tree=None, telemetry=None) -> dict:
    """Profile *workload*'s original build; returns the profile document.

    The run uses the workload's own VM parameters, so the profiled
    execution is the exact run the search's baseline evaluation
    performs.  *tree* (a pre-built config tree) is accepted to avoid a
    rebuild.  With *telemetry* attached, the census lands in the trace
    as one ``profile.census`` plus one ``profile.site`` per site.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    program = workload.program
    if tree is None:
        tree = build_tree(program)
    vm = VM(program, profile=True, **getattr(workload, "vm_params", dict)())
    result = vm.run()
    profile = build_profile(workload, tree, vm.instruction_stats(), result)
    emit_profile(profile, tel)
    return profile


def build_profile(workload, tree, stats, result) -> dict:
    """Assemble the profile document from an instruction census."""
    sites = []
    opcodes: dict[str, list] = {}
    rollups = {LEVEL_BLOCK: {}, LEVEL_FUNCTION: {}, LEVEL_MODULE: {}}
    attributed = 0
    candidate_cycles = 0
    for addr, mnemonic, execs, cycles in sorted(stats):
        node = tree.by_addr.get(addr)
        site = {
            "addr": addr,
            "node": node.node_id if node is not None else "",
            "mnemonic": mnemonic,
            "execs": execs,
            "cycles": cycles,
        }
        sites.append(site)
        attributed += cycles
        entry = opcodes.setdefault(mnemonic, [0, 0])
        entry[0] += execs
        entry[1] += cycles
        if node is None:
            continue
        candidate_cycles += cycles
        parent = node.parent
        while parent is not None:
            table = rollups.get(parent.level)
            if table is not None:
                entry = table.setdefault(parent.node_id, [0, 0])
                entry[0] += execs
                entry[1] += cycles
                # structural context beyond the schema floor: lets trace
                # tools rebuild the flame hierarchy without the tree
                if parent.level == LEVEL_BLOCK:
                    site["block"] = parent.node_id
                elif parent.level == LEVEL_FUNCTION:
                    site["function"] = parent.label
            parent = parent.parent
    return {
        "version": PROFILE_VERSION,
        "program": tree.program_name,
        "workload": getattr(workload, "name", tree.program_name),
        "klass": getattr(workload, "klass", ""),
        "steps": result.steps,
        "cycles": result.cycles,
        # statically attributed cycles never exceed the true clock
        # (taken-branch extras are excluded, as in VM.opcode_stats)
        "attributed_cycles": attributed,
        # the slice of attributed cycles spent in precision candidates —
        # the denominator a cost-aware objective normalizes against
        "candidate_cycles": candidate_cycles,
        "sites": sites,
        "opcodes": _unpack(opcodes),
        "blocks": _unpack(rollups[LEVEL_BLOCK]),
        "functions": _unpack(rollups[LEVEL_FUNCTION]),
        "modules": _unpack(rollups[LEVEL_MODULE]),
    }


def _unpack(table: dict) -> dict:
    return {
        nid: {"execs": e, "cycles": c} for nid, (e, c) in sorted(table.items())
    }


def emit_profile(profile: dict, telemetry) -> None:
    """Emit the profile as ``profile.census`` + ``profile.site`` events."""
    if not telemetry.enabled:
        return
    telemetry.emit(
        "profile.census",
        program=profile["program"],
        steps=profile["steps"],
        cycles=profile["cycles"],
        sites=len(profile["sites"]),
        attributed_cycles=profile["attributed_cycles"],
    )
    for site in profile["sites"]:
        telemetry.emit("profile.site", **site)


def dumps(profile: dict) -> str:
    """Canonical serialization (stable key order, trailing newline)."""
    return json.dumps(profile, indent=2, sort_keys=True) + "\n"


def load_profile(path: str) -> dict:
    """Read a profile.json back; rejects unknown schema versions."""
    with open(path, "r", encoding="utf-8") as handle:
        profile = json.load(handle)
    version = profile.get("version")
    if version != PROFILE_VERSION:
        raise ValueError(
            f"unsupported profile version {version!r} "
            f"(expected {PROFILE_VERSION})"
        )
    return profile
