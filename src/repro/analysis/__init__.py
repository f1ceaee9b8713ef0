"""Shadow-value analysis: predict replaceability from one observed run.

The paper's search treats every candidate configuration as a black box
(one instrumented run each).  This subsystem — modeled on the authors'
follow-on CRAFT work — runs the workload *once* under one VM observer
(:class:`repro.analysis.observer.ShadowObserver`) and learns two kinds
of things about every candidate instruction:

* **statistics**: value ranges, catastrophic-cancellation events,
  float32 range violations, and local/accumulated relative-error
  estimates from a side-by-side float32 shadow of every double value;
* **verdicts**: the bit-exact outcome of the singleton replacement —
  per candidate, a sparse mirror (a *channel*) of the run where exactly
  that instruction is single, decided by the workload's own
  verification routine.

The resulting :class:`AnalysisReport` is keyed the same way as the
configuration tree, so the search can rank predicted-replaceable
candidates first and prune singletons whose failure the channel already
decided — without changing the final composed configuration.
"""

from repro.analysis.analyzer import analyze
from repro.analysis.guide import SearchGuide
from repro.analysis.observer import ShadowObserver
from repro.analysis.report import AnalysisReport, InstructionAnalysis

__all__ = [
    "analyze",
    "AnalysisReport",
    "InstructionAnalysis",
    "SearchGuide",
    "ShadowObserver",
]
