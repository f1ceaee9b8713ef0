"""Configuration data model: structure tree + flag assignment.

The *structure tree* (``ProgramTree``) is derived once from a program by
static CFG analysis: modules contain functions contain basic blocks
contain candidate instructions.  Only structures that contain at least
one replacement candidate appear — the configuration space is defined
over ``Pd``, the set of double-precision instructions.

A ``Config`` is a sparse mapping ``node id -> Policy`` over that tree.
Resolution follows the paper's override rule: walking from the root down
to an instruction, the *first* (outermost) explicit flag wins; if no node
on the path has a flag, the instruction defaults to ``double``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Policy(str, Enum):
    """Per-structure precision decision.

    The paper's model is binary (single/double/ignore); the precision
    lattice (:mod:`repro.lattice`) adds two narrower rungs below single.
    Policies are ordered by *narrowness*: ``d < s < b < h`` — see
    :meth:`rank` and :func:`narrowest`.
    """

    SINGLE = "s"
    DOUBLE = "d"
    IGNORE = "i"
    BF16 = "b"
    HALF = "h"

    @property
    def is_narrow(self) -> bool:
        """True for any replacement policy (anything below double)."""
        return self in _NARROW_RANK

    def rank(self) -> int:
        """Narrowness rank: DOUBLE=0, SINGLE=1, BF16=2, HALF=3.

        IGNORE has no rank (it is not a precision level).
        """
        if self is Policy.DOUBLE:
            return 0
        return _NARROW_RANK[self]


_NARROW_RANK = {Policy.SINGLE: 1, Policy.BF16: 2, Policy.HALF: 3}


def narrowest(a: Policy, b: Policy) -> Policy:
    """The narrower of two non-IGNORE policies (lattice meet)."""
    return a if a.rank() >= b.rank() else b


LEVEL_MODULE = "module"
LEVEL_FUNCTION = "function"
LEVEL_BLOCK = "block"
LEVEL_INSN = "instruction"

@dataclass(slots=True)
class ConfigNode:
    """One structure in the tree (module / function / block / instruction)."""

    node_id: str
    level: str
    label: str
    children: list["ConfigNode"] = field(default_factory=list)
    parent: "ConfigNode | None" = None
    #: for instruction nodes: the text-section address
    addr: int = -1
    #: for instruction nodes: disassembly text (informational)
    text: str = ""
    #: source line from debug info, 0 if unknown
    line: int = 0

    def instructions(self):
        """All instruction nodes in this subtree, in address order."""
        if self.level == LEVEL_INSN:
            yield self
        else:
            for child in self.children:
                yield from child.instructions()

    def walk(self):
        """All nodes in this subtree, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.node_id} {self.level} {self.label!r}>"


@dataclass(slots=True)
class ProgramTree:
    """The full structure tree of one program."""

    program_name: str
    roots: list[ConfigNode]
    by_id: dict[str, ConfigNode]
    #: instruction address -> node
    by_addr: dict[int, ConfigNode]

    def walk(self):
        for root in self.roots:
            yield from root.walk()

    def instructions(self):
        for root in self.roots:
            yield from root.instructions()

    def node(self, node_id: str) -> ConfigNode:
        return self.by_id[node_id]

    @property
    def candidate_count(self) -> int:
        return len(self.by_addr)

    def nodes_at(self, level: str):
        return [n for n in self.walk() if n.level == level]


class Config:
    """A precision configuration: sparse flags over a ProgramTree."""

    def __init__(self, tree: ProgramTree, flags: dict[str, Policy] | None = None):
        self.tree = tree
        self.flags: dict[str, Policy] = dict(flags or {})

    # -- construction helpers -------------------------------------------------

    def copy(self) -> "Config":
        return Config(self.tree, self.flags)

    def set(self, node_id: str, policy: Policy | None) -> "Config":
        """Set (or clear, with None) a flag; returns self for chaining."""
        if node_id not in self.tree.by_id:
            raise KeyError(f"unknown node id {node_id!r}")
        if policy is None:
            self.flags.pop(node_id, None)
        else:
            self.flags[node_id] = Policy(policy)
        return self

    @classmethod
    def all_double(cls, tree: ProgramTree) -> "Config":
        return cls(tree)

    @classmethod
    def all_single(cls, tree: ProgramTree) -> "Config":
        cfg = cls(tree)
        for root in tree.roots:
            cfg.flags[root.node_id] = Policy.SINGLE
        return cfg

    def union(self, other: "Config") -> "Config":
        """Compose two configs: each node takes the narrowest flag of either.

        This implements the paper's "final configuration": the union of all
        individually passing replacements.  With only SINGLE flags in play
        this is exactly the paper's "any SINGLE wins" rule; lattice flags
        generalize it to narrowest-wins.  IGNORE flags are preserved;
        conflicting narrow/IGNORE resolves to IGNORE (safety).
        """
        if other.tree is not self.tree:
            raise ValueError("configs must share a ProgramTree")
        merged = dict(self.flags)
        for node_id, policy in other.flags.items():
            current = merged.get(node_id)
            if current is Policy.IGNORE or policy is Policy.IGNORE:
                merged[node_id] = Policy.IGNORE
            elif current is None:
                merged[node_id] = policy
            else:
                merged[node_id] = narrowest(current, policy)
        return Config(self.tree, merged)

    # -- resolution -------------------------------------------------------------

    def effective_policy(self, node: ConfigNode) -> Policy:
        """Resolve the policy for an instruction node (outermost flag wins)."""
        path = []
        cursor: ConfigNode | None = node
        while cursor is not None:
            path.append(cursor)
            cursor = cursor.parent
        for ancestor in reversed(path):  # root first
            flag = self.flags.get(ancestor.node_id)
            if flag is not None:
                return flag
        return Policy.DOUBLE

    def instruction_policies(self) -> dict[int, Policy]:
        """Resolved policy for every candidate instruction address."""
        out: dict[int, Policy] = {}
        for root in self.tree.roots:
            self._resolve_into(root, None, out)
        return out

    def _resolve_into(
        self, node: ConfigNode, inherited: Policy | None, out: dict[int, Policy]
    ) -> None:
        effective = inherited if inherited is not None else self.flags.get(node.node_id)
        if node.level == LEVEL_INSN:
            out[node.addr] = effective if effective is not None else Policy.DOUBLE
            return
        for child in node.children:
            self._resolve_into(child, effective, out)

    # -- metrics ------------------------------------------------------------------

    def static_replaced_fraction(self) -> float:
        """Fraction of candidate instructions resolved narrow (static %)."""
        policies = self.instruction_policies()
        if not policies:
            return 0.0
        narrowed = sum(1 for p in policies.values() if p.is_narrow)
        return narrowed / len(policies)

    def dynamic_replaced_fraction(self, exec_counts: dict[int, int]) -> float:
        """Fraction of candidate instruction *executions* resolved narrow,
        weighted by a profile of the original program."""
        policies = self.instruction_policies()
        total = 0
        narrowed = 0
        for addr, policy in policies.items():
            count = exec_counts.get(addr, 0)
            total += count
            if policy.is_narrow:
                narrowed += count
        return narrowed / total if total else 0.0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Config)
            and other.tree is self.tree
            and other.flags == self.flags
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.flags.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = {}
        for p in self.flags.values():
            counts[p.value] = counts.get(p.value, 0) + 1
        return f"<Config {len(self.flags)} flags {counts}>"

