"""Turning an analysis report into search guidance.

Two predicates over a set of instruction addresses (the instructions a
search queue item would flag single):

* :meth:`SearchGuide.replaceable_rank` — ranks items all of whose
  observed channel verdicts are "pass" ahead of everything else; the
  search adds it in front of the profile-count key, so
  predicted-replaceable items are evaluated (and usually confirmed)
  first.  A wrong "pass" costs nothing but ordering.
* :meth:`SearchGuide.predict_fail` — True exactly when the item is a
  *single* instruction whose channel verdict is "fail", so the search
  records the failure and descends without spending an evaluation.

Pruning is only sound if it never fires on an item that would have
passed — a false prune changes the final composed configuration (the
children get flagged instead of the parent).  Magnitude heuristics
cannot provide that: calibration over the NAS suite found passing
single-instruction configurations carrying local errors five orders of
magnitude above the verification bound next to failing ones far below
it, and fourteen failure-monotonicity violations (a group whose every
member fails alone, yet the group passes — and vice versa), which rules
out deriving *group* verdicts from leaf verdicts too.  The channel
verdict needs no margin: it is the bit-exact outcome of the singleton
run (:mod:`repro.analysis.observer`), verified by the workload's own
routine, and "unknown" — divergence the channel model could not follow
— always falls back to a real evaluation.  Differential tests assert
guided and unguided searches compose identical final configurations on
every NAS workload.
"""

from __future__ import annotations

from repro.analysis.report import VERDICT_FAIL, VERDICT_PASS


class SearchGuide:
    """Search-facing view of one :class:`AnalysisReport`."""

    def __init__(self, report) -> None:
        self.report = report

    # -- prioritization ----------------------------------------------------

    def replaceable_rank(self, addrs) -> int:
        """1 when every observed instruction's singleton channel passed
        (the item is likely to verify), else 0."""
        seen = False
        for ia in self.report.for_addrs(addrs):
            seen = True
            if ia.verdict != VERDICT_PASS:
                return 0
        return 1 if seen else 0

    # -- pruning -----------------------------------------------------------

    def predict_fail(self, addrs) -> bool:
        """True when the channel run already *decided* this item fails.

        Deliberately exact and deliberately narrow: only single-
        instruction items, and only the "fail" verdict — the channel
        mirrored that item's whole run, so the verdict is the
        evaluation's outcome, not a prediction.  Group items are never
        pruned (failure is not monotone across granularities), and
        "unknown" means "must evaluate", never "will pass".
        """
        if len(addrs) != 1:
            return False
        ia = self.report.get(addrs[0])
        return ia is not None and ia.verdict == VERDICT_FAIL

    # -- lattice width seeding ---------------------------------------------

    def predict_unfit(self, addrs, width) -> bool:
        """True when some observed instruction's value range cannot be
        represented at lattice *width* (a :class:`repro.fpbits.FpFormat`).

        This is the width-seeding predicate of the lattice descent: the
        shadow run records the smallest and largest magnitudes flowing
        through every candidate, and a site whose values overflow
        ``width.max_finite`` (or all land below ``width.min_normal``)
        would round to infinity/zero when narrowed — the descent skips
        the evaluation and descends structurally instead, exactly like
        a channel-predicted failure.  Unlike :meth:`predict_fail` this
        *is* a range heuristic (it fires on groups too); it only steers
        which lattice evaluations are spent, never whether an item
        enters the final configuration at the width it already
        verified.
        """
        from repro.lattice import fits_width

        for ia in self.report.for_addrs(addrs):
            if not fits_width(width, ia.min_abs, ia.max_abs):
                return True
        return False
