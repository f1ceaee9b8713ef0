"""The analysis report: per-instruction shadow statistics, keyed like
the configuration tree.

An :class:`AnalysisReport` is the durable artifact of one shadow run
(`repro analyze` writes it as JSON): for every observed candidate
instruction it records the value range, cancellation census, float32
shadow errors and range violations, addressed both by text address and
by the ``INSNnn`` node id the search's :class:`repro.config` tree
assigns — so search, viewer and experiments can join it against any
configuration without re-deriving the tree.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

REPORT_VERSION = 2

#: channel verdict values (see :mod:`repro.analysis.observer`)
VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_UNKNOWN = "unknown"


def _enc(v: float):
    """Floats in JSON: infinities become the strings "inf"/"-inf"."""
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return v


def _dec(v) -> float:
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return float(v)


@dataclass(slots=True)
class InstructionAnalysis:
    """Shadow statistics of one candidate instruction."""

    addr: int
    node_id: str          # INSNnn id in the config tree ("" if unmapped)
    mnemonic: str
    execs: int
    min_abs: float        # smallest nonzero |operand-or-result| seen
    max_abs: float        # largest finite |operand-or-result| seen
    cancel_events: int    # ADDSD/SUBSD exponent drops >= CANCEL_MIN_BITS
    cancel_max_bits: int  # worst exponent drop observed
    max_local_err: float  # worst rel. error of the one-instruction f32 replacement
    max_shadow_err: float  # worst rel. error of the accumulated f32 shadow
    overflow: int         # results above float32 range
    underflow: int        # nonzero results below float32 normals
    flips: int            # compares/conversions that decide differently in f32
    #: exact singleton-replacement outcome from the shadow channel:
    #: "pass"/"fail" when the channel followed the whole replaced run,
    #: "unknown" when divergence escaped the model (see channels.py).
    verdict: str = VERDICT_UNKNOWN
    #: why the channel lost its verdict ("" unless verdict == "unknown")
    verdict_why: str = ""

    def to_json(self) -> dict:
        d = asdict(self)
        for k in ("min_abs", "max_abs", "max_local_err", "max_shadow_err"):
            d[k] = _enc(d[k])
        return d

    @classmethod
    def from_json(cls, d: dict) -> "InstructionAnalysis":
        d = dict(d)
        for k in ("min_abs", "max_abs", "max_local_err", "max_shadow_err"):
            d[k] = _dec(d[k])
        return cls(**d)


@dataclass(slots=True)
class AnalysisReport:
    """Everything one shadow-execution run learned about a workload."""

    workload: str
    program: str
    candidates: int       # candidate instructions in the config tree
    observed: int         # candidates that actually executed
    instructions: dict    # addr -> InstructionAnalysis

    # -- lookups ---------------------------------------------------------

    def get(self, addr: int) -> InstructionAnalysis | None:
        return self.instructions.get(addr)

    def for_addrs(self, addrs) -> list:
        """The observed entries among *addrs* (unobserved ones skipped)."""
        out = []
        for addr in addrs:
            ia = self.instructions.get(addr)
            if ia is not None:
                out.append(ia)
        return out

    def summarize(self, addrs) -> dict | None:
        """Aggregate statistics over a node's instruction addresses, the
        shape the viewer renders per tree node.  None when nothing under
        the node was observed."""
        entries = self.for_addrs(addrs)
        if not entries:
            return None
        return {
            "execs": sum(e.execs for e in entries),
            "min_abs": min(e.min_abs for e in entries),
            "max_abs": max(e.max_abs for e in entries),
            "cancel_events": sum(e.cancel_events for e in entries),
            "cancel_max_bits": max(e.cancel_max_bits for e in entries),
            "max_local_err": max(e.max_local_err for e in entries),
            "max_shadow_err": max(e.max_shadow_err for e in entries),
            "overflow": sum(e.overflow for e in entries),
            "underflow": sum(e.underflow for e in entries),
            "flips": sum(e.flips for e in entries),
            "verdicts": {
                v: n
                for v in (VERDICT_PASS, VERDICT_FAIL, VERDICT_UNKNOWN)
                if (n := sum(1 for e in entries if e.verdict == v))
            },
        }

    def verdict_histogram(self) -> dict:
        """Counts per verdict, with unknown reasons broken out — the
        shape the viewer's analysis section renders."""
        hist: dict[str, int] = {}
        for ia in self.instructions.values():
            key = ia.verdict
            if key == VERDICT_UNKNOWN and ia.verdict_why:
                key = f"unknown:{ia.verdict_why}"
            hist[key] = hist.get(key, 0) + 1
        return dict(sorted(hist.items()))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "workload": self.workload,
            "program": self.program,
            "candidates": self.candidates,
            "observed": self.observed,
            "instructions": [
                self.instructions[a].to_json()
                for a in sorted(self.instructions)
            ],
        }

    def dumps(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)

    @classmethod
    def from_json(cls, d: dict) -> "AnalysisReport":
        version = d.get("version")
        if version != REPORT_VERSION:
            raise ValueError(f"unsupported analysis report version {version!r}")
        instructions = {}
        for entry in d["instructions"]:
            ia = InstructionAnalysis.from_json(entry)
            instructions[ia.addr] = ia
        return cls(
            workload=d["workload"],
            program=d["program"],
            candidates=d["candidates"],
            observed=d["observed"],
            instructions=instructions,
        )

    @classmethod
    def loads(cls, text: str) -> "AnalysisReport":
        return cls.from_json(json.loads(text))
