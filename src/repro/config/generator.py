"""Initial configuration generation by static analysis (paper Section 2.1:
"The initial list of these structures is easily generated using a simple
static analysis that traverses the program's control flow graph").

Builds the :class:`~repro.config.model.ProgramTree` for a program:
modules -> functions -> basic blocks -> candidate instructions.  IDs are
assigned in program (address) order with the paper's naming scheme
(``FUNC01``, ``BBLK01``, ``INSN01`` ... plus ``MODL01`` for modules,
which the paper's search starts from).

Structures that contain no replacement candidates are omitted: the
configuration space is defined over the double-precision instructions.
"""

from __future__ import annotations

from repro.binary.model import Program
from repro.config.model import (
    ConfigNode,
    LEVEL_BLOCK,
    LEVEL_FUNCTION,
    LEVEL_INSN,
    LEVEL_MODULE,
    ProgramTree,
)


def build_tree(program: Program) -> ProgramTree:
    """Derive the structure tree of *program* (builds the CFG if needed)."""
    program.ensure_cfg()
    counters = {"MODL": 0, "FUNC": 0, "BBLK": 0, "INSN": 0}

    def next_id(prefix: str) -> str:
        counters[prefix] += 1
        return f"{prefix}{counters[prefix]:02d}"

    by_id: dict[str, ConfigNode] = {}
    by_addr: dict[int, ConfigNode] = {}
    roots: list[ConfigNode] = []

    for module in program.modules:
        module_node = ConfigNode(next_id("MODL"), LEVEL_MODULE, module)
        for fn in program.functions:
            if fn.module != module:
                continue
            if not fn.blocks:
                continue
            fn_node = ConfigNode(
                next_id("FUNC"), LEVEL_FUNCTION, f"{fn.name}()", parent=module_node
            )
            for block in fn.blocks:
                block_node = ConfigNode(
                    next_id("BBLK"), LEVEL_BLOCK, f"{block.start:#x}", parent=fn_node
                )
                for instr in block.instructions:
                    if not instr.is_candidate:
                        continue
                    insn_node = ConfigNode(
                        next_id("INSN"),
                        LEVEL_INSN,
                        instr.render(),
                        parent=block_node,
                        addr=instr.addr,
                        text=instr.render(),
                        line=program.debug_lines.get(instr.addr, instr.line),
                    )
                    block_node.children.append(insn_node)
                    by_addr[instr.addr] = insn_node
                    by_id[insn_node.node_id] = insn_node
                if block_node.children:
                    fn_node.children.append(block_node)
                    by_id[block_node.node_id] = block_node
            if fn_node.children:
                module_node.children.append(fn_node)
                by_id[fn_node.node_id] = fn_node
        if module_node.children:
            roots.append(module_node)
            by_id[module_node.node_id] = module_node

    return ProgramTree(
        program_name=program.name, roots=roots, by_id=by_id, by_addr=by_addr
    )
