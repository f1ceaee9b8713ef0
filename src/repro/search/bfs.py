"""The breadth-first search engine itself.

With a :class:`repro.telemetry.Telemetry` attached the engine narrates
the whole search: a ``search.begin``/``search.end`` span, one
``search.eval`` event per tested configuration (label, level, pass/fail,
cycles, wall time, phase), ``search.queue`` depth samples after every
batch, ``search.descend`` partition/expansion decisions, and a
``search.refine`` summary of the second phase.  A baseline ``vm.opcodes``
census of the uninstrumented workload is emitted at span start so every
trace carries the VM-level profile the prioritization runs on.
"""

from __future__ import annotations

import contextlib
import heapq
import time
from collections import deque
from dataclasses import dataclass

from repro.config.generator import build_tree
from repro.config.model import (
    Config,
    ConfigNode,
    LEVEL_BLOCK,
    LEVEL_FUNCTION,
    LEVEL_INSN,
    LEVEL_MODULE,
    Policy,
    ProgramTree,
)
from repro.search.evaluator import Evaluator
from repro.search.results import REASON_PRUNED, EvalRecord, SearchResult
from repro.telemetry import NULL_TELEMETRY

_LEVEL_RANK = {
    LEVEL_MODULE: 0,
    LEVEL_FUNCTION: 1,
    LEVEL_BLOCK: 2,
    LEVEL_INSN: 3,
}


@dataclass(frozen=True, slots=True)
class SearchOptions:
    """Knobs of the automatic search.

    stop_level:
        Finest granularity the descent may reach (paper: "the search can
        also be configured to stop at basic blocks or functions, allowing
        for faster convergence with coarser results").
    partition:
        Binary partitioning of large failed aggregates (first paper
        optimization).
    partition_threshold:
        Minimum child count for partitioning to kick in.
    prioritize:
        Profile-count prioritization (second paper optimization).
    max_configs:
        Safety budget on evaluated configurations.
    refine:
        Second search phase (suggested in the paper's Section 3.1): when
        the union of individually passing replacements fails, greedily
        drop the hottest passing items until a composable subset passes.
    refine_budget:
        Evaluation budget for the refinement phase.
    workers:
        Parallel evaluation processes (paper: the search "can launch many
        independent tests if cores are available").  1 = serial; >1 uses
        a fork-based process pool, falling back to serial on platforms
        without fork.  Results are identical either way.
    incremental:
        Thread the incremental-evaluation caches (block-template
        instrumentation cache, persistent VM with compiled-closure reuse,
        semantic config dedup) through the evaluators.  Semantics-
        invisible; ``False`` is the escape hatch that restores cold-path
        evaluation for every config (CLI: ``--no-incremental``).
    analysis:
        Shadow-value analysis guidance (``repro.analysis``): run the
        workload once under the shadow observer before the search, then
        (1) seed prioritization with predicted-replaceable items ahead
        of profile counts and (2) prune candidates whose shadow error
        already exceeds the workload's verification bound.  Pruned items
        are treated exactly like observed failures (recorded in history
        with ``reason="pruned"`` and descended), so the final composed
        configuration is identical to the unguided search as long as the
        predictor never prunes an item that would have passed —
        differential tests assert exactly that.  ``False`` (the CLI's
        ``--no-analysis``) keeps the cold path untouched.

        ``"auto"`` makes the engine decide per run whether the guidance
        pays for itself (:mod:`repro.analysis.economics`): the first
        search of a workload analyzes and measures; later searches skip
        the shadow run when its measured wall cost exceeds the
        evaluation time the measured prune count is predicted to save
        (mg.W-style workloads, where guidance was a net wall-time
        loss).  ``True`` keeps the unconditional-analysis contract —
        callers relying on pruning behaviour are unaffected by auto
        mode existing.  Every decision is recorded as a
        ``search.guidance`` telemetry event.
    retry_limit / retry_backoff:
        Crash-fault tolerance of distributed evaluation (``workers > 1``
        or ``cluster``): a configuration whose worker dies is retried at
        most ``retry_limit`` times with ``retry_backoff * 2**(attempt-1)``
        seconds of backoff; a config still crashing after that is
        recorded as failed with reason ``worker_crash`` instead of
        aborting the campaign (shared :mod:`repro.search.retry` policy).
    cluster:
        ``HOST:PORT`` to serve the search's evaluations on (port 0 lets
        the OS pick).  Non-empty switches the engine to the network
        :class:`~repro.cluster.ClusterEvaluator`: batches are leased to
        ``repro worker`` processes instead of a local fork pool.
        ``workers`` then only sets the batch size (how many leases can
        be outstanding at once), not a process count.  Results are
        byte-identical to a serial search regardless of worker count,
        joins, or crashes.
    lease_timeout:
        Cluster only: seconds of worker silence before its leases are
        requeued (workers heartbeat at a quarter of this).
    lattice:
        Precision lattice spec (:func:`repro.lattice.parse_lattice`),
        e.g. ``"f64,f32,bf16,f16"``.  The main BFS always searches the
        first narrow rung (f32, the paper's binary double/single
        search); any further rungs add a *lattice descent* phase that
        re-tests every passing item one width narrower, descending
        structurally on failure, until the bottom of the lattice.  The
        default binary lattice runs zero descent evaluations and is
        byte-identical to the historical two-level search.  With
        ``analysis`` on, descent candidates whose observed value ranges
        cannot be represented at the next width are pruned like
        predicted failures (the tentpole's width seeding).
    """

    stop_level: str = LEVEL_INSN
    partition: bool = True
    partition_threshold: int = 4
    prioritize: bool = True
    max_configs: int = 20_000
    refine: bool = False
    refine_budget: int = 64
    workers: int = 1
    incremental: bool = True
    analysis: bool | str = False
    retry_limit: int = 3
    retry_backoff: float = 0.05
    cluster: str = ""
    lease_timeout: float = 30.0
    lattice: str = "f64,f32"

    def __post_init__(self) -> None:
        if self.stop_level not in _LEVEL_RANK:
            raise ValueError(f"bad stop_level {self.stop_level!r}")
        if self.analysis not in (True, False, "auto"):
            raise ValueError(
                f"analysis must be True, False or 'auto', "
                f"not {self.analysis!r}"
            )
        from repro.lattice import parse_lattice

        parse_lattice(self.lattice)  # raises LatticeError on a bad spec


class _Item:
    """A work-queue entry: one node, or a group of sibling nodes."""

    __slots__ = ("nodes", "is_group")

    def __init__(self, nodes: list[ConfigNode], is_group: bool) -> None:
        self.nodes = nodes
        self.is_group = is_group

    def label(self) -> str:
        if not self.is_group:
            return self.nodes[0].node_id
        first, last = self.nodes[0].node_id, self.nodes[-1].node_id
        return f"[{first}..{last}]({len(self.nodes)})"

    def flags(self, policy: Policy = Policy.SINGLE) -> dict[str, Policy]:
        return {n.node_id: policy for n in self.nodes}


class SearchEngine:
    """Drives the automatic search for one workload.

    Parameters
    ----------
    workload:
        Object with ``name``, ``program``, ``run``, ``verify`` and
        ``profile()`` (exec counts of the original program).
    options:
        :class:`SearchOptions`.
    base_config:
        Optional starting configuration carrying e.g. user-set IGNORE
        flags (the paper's escape hatch for RNG-style code); its flags are
        merged into every tested configuration.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; see the module
        docstring for the events a traced search produces.
    report:
        Optional pre-computed :class:`repro.analysis.AnalysisReport`.
        Only consulted when ``options.analysis`` is on; when omitted the
        engine runs the analysis itself at search start.
    campaign:
        Optional :class:`repro.campaign.Campaign`.  The engine journals
        its full frontier state (queue, passing set, history, counters)
        to the campaign after every batch, resumes from the campaign's
        latest checkpoint when one exists, and uses the campaign's
        result store unless ``store`` overrides it.  The campaign stays
        open after :meth:`run` — its owner closes it.
    store:
        Optional :class:`repro.store.ResultStore` threaded into the
        evaluator: decided outcomes are replayed instead of re-executed
        (resume + warm start), new outcomes are persisted as they
        arrive.
    executor:
        Optional executor for the engine's
        :class:`~repro.search.evaluator.Evaluator` front (see
        :mod:`repro.search.evaluator`).  When omitted the engine builds
        one from its options — a cluster coordinator for ``cluster``, a
        fork pool for ``workers > 1`` where fork is available, inline
        otherwise — and closes it when :meth:`run` exits; a supplied
        executor stays open for its owner to reuse.
    """

    def __init__(
        self,
        workload,
        options: SearchOptions | None = None,
        base_config: Config | None = None,
        executor=None,
        telemetry=None,
        report=None,
        campaign=None,
        store=None,
    ) -> None:
        self.workload = workload
        self.options = options or SearchOptions()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.tree: ProgramTree = (
            base_config.tree if base_config is not None else build_tree(workload.program)
        )
        self._campaign = campaign
        if store is None and campaign is not None:
            store = campaign.store
        self._owns_executor = executor is None
        self.evaluator = Evaluator(
            workload, telemetry=self.telemetry,
            incremental=self.options.incremental, store=store,
            lattice=self.options.lattice,
            executor=self._build_executor() if executor is None else executor,
        )
        self.base_config = base_config or Config.all_double(self.tree)
        self._seq = 0
        self._heap: list = []
        self._fifo: deque = deque()
        self._profile: dict[int, int] = {}
        self._report = report
        self._guide = None  # built in _run when options.analysis is on
        self._analysis_wall = 0.0
        self._pruned = 0
        self._batches = 0
        self._resumed = False

    def _build_executor(self):
        opts = self.options
        if opts.cluster:
            from repro.cluster import ClusterEvaluator
            from repro.search.retry import RetryPolicy

            return ClusterEvaluator(
                self.workload, bind=opts.cluster, telemetry=self.telemetry,
                incremental=opts.incremental,
                retry=RetryPolicy(opts.retry_limit, opts.retry_backoff),
                lease_timeout=opts.lease_timeout,
            )
        if opts.workers > 1:
            # Imported only here: the pool's multiprocessing imports cost
            # a serial search about 1.6 MB of peak RSS.
            from repro.search.parallel import ParallelEvaluator, fork_available

            if fork_available():
                return ParallelEvaluator(
                    self.workload, self.tree, opts.workers,
                    telemetry=self.telemetry, incremental=opts.incremental,
                    retry_limit=opts.retry_limit,
                    retry_backoff=opts.retry_backoff,
                )
        return None  # the front's default inline executor

    @property
    def analysis_report(self):
        """The :class:`repro.analysis.AnalysisReport` the search used
        (None before a guided run, or when ``options.analysis`` is off)."""
        return self._report

    # -- queue ------------------------------------------------------------------

    def _weight(self, item: _Item) -> int:
        total = 0
        for node in item.nodes:
            for insn in node.instructions():
                total += self._profile.get(insn.addr, 0)
        return total

    def _addrs(self, item: _Item) -> list[int]:
        return [
            insn.addr for node in item.nodes for insn in node.instructions()
        ]

    def _push(self, item: _Item) -> None:
        if self.options.prioritize:
            self._seq += 1
            heapq.heappush(self._heap, self._item_key(item, self._seq))
        else:
            self._fifo.append(item)

    def _pop(self) -> _Item | None:
        if self.options.prioritize:
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[-1]
        if not self._fifo:
            return None
        return self._fifo.popleft()

    # -- descent ------------------------------------------------------------------

    def _split(self, item: _Item) -> tuple[str, list[_Item] | None]:
        """How a failed *item* breaks up: its ``search.descend`` action
        and the sub-items, None when it cannot be subdivided (a single
        instruction, or the stop_level cap).  Groups halve; aggregates
        partition when they have many children, else expand."""
        opts = self.options
        if item.is_group and len(item.nodes) > 1:
            mid = len(item.nodes) // 2
            return "split", [
                _Item(item.nodes[:mid], True), _Item(item.nodes[mid:], True)
            ]
        node = item.nodes[0]
        if (
            node.level == LEVEL_INSN
            or _LEVEL_RANK[node.level] >= _LEVEL_RANK[opts.stop_level]
        ):
            return "stop", None
        children = node.children
        if opts.partition and len(children) > opts.partition_threshold:
            mid = len(children) // 2
            return "partition", [
                _Item(children[:mid], True), _Item(children[mid:], True)
            ]
        return "expand", [_Item([child], False) for child in children]

    def _descend(self, item: _Item) -> None:
        """Queue the sub-items of a failed *item* (see :meth:`_split`)."""
        if item.is_group and len(item.nodes) == 1:
            item = _Item(item.nodes, False)  # a lone sibling is its node
        action, pieces = self._split(item)
        tel = self.telemetry
        if tel.enabled:
            tel.emit("search.descend", label=item.label(), action=action)
        for piece in pieces or ():
            self._push(piece)

    def _record(self, history: list, label: str, level: str, outcome,
                wall: float, phase: str) -> bool:
        """Record one evaluation *outcome* in *history* and as a
        ``search.eval`` event; returns whether it passed."""
        passed, cycles, trap, reason = outcome
        history.append(
            EvalRecord(
                label, passed, cycles, trap,
                wall_s=wall, phase=phase, reason=reason,
            )
        )
        tel = self.telemetry
        if tel.enabled:
            tel.emit(
                "search.eval",
                label=label,
                level=level,
                passed=passed,
                cycles=cycles,
                trap=trap,
                reason=reason,
                wall_s=round(wall, 6),
                phase=phase,
            )
        return passed

    def _prune(self, history: list, item: _Item, phase: str, **extra) -> None:
        """Record *item* as failed without evaluating it: the analysis
        predicted the failure (*extra* joins the ``search.prune`` event)."""
        self._pruned += 1
        history.append(
            EvalRecord(item.label(), False, phase=phase, reason=REASON_PRUNED)
        )
        tel = self.telemetry
        if tel.enabled:
            tel.count("analysis.pruned")
            tel.emit(
                "search.prune",
                label=item.label(),
                level=item.nodes[0].level,
                **extra,
            )

    # -- lattice descent ----------------------------------------------------------

    def _lattice_descend(self, passing: list, history: list) -> list:
        """Third search phase (the precision-lattice tentpole): walk every
        passing item down the remaining lattice rungs.

        Returns ``[(item, policy), ...]`` — the disjoint passing items,
        each at the narrowest width that verified for it.  For each rung
        below f32 the candidates (items settled at the previous rung) are
        evaluated individually, exactly like the main loop's phase-1
        items: the item's nodes at the rung's policy, everything else
        double.  A failing candidate splits structurally and its pieces
        re-enter the same rung at the previous width; unsplittable items
        keep the width they already verified at.  With a binary lattice
        the rung list below f32 is empty and this method is a no-op —
        no evaluations, no history records, `levels` == `passing`.
        """
        from repro.lattice import parse_lattice

        lattice = parse_lattice(self.options.lattice)
        levels = [[item, Policy.SINGLE] for item in passing]
        narrow = lattice.narrow_widths
        if len(narrow) < 2 or not passing:
            return [(item, policy) for item, policy in levels]

        guide = self._guide
        batch_size = max(1, self.options.workers)

        for rung in range(1, len(narrow)):
            width = narrow[rung]
            prev_policy = narrow[rung - 1].policy
            policy = width.policy
            phase = f"lattice:{width.name}"
            queue = deque(e for e in levels if e[1] is prev_policy)
            while queue:
                if self.evaluator.evaluations >= self.options.max_configs:
                    return [(item, p) for item, p in levels]

                def split(entry) -> None:
                    _action, pieces = self._split(entry[0])
                    if pieces is None:
                        return  # keeps the width it verified at
                    pos = levels.index(entry)
                    replacements = [[piece, prev_policy] for piece in pieces]
                    levels[pos : pos + 1] = replacements
                    queue.extend(replacements)

                batch: list = []
                while queue and len(batch) < batch_size:
                    entry = queue.popleft()
                    if guide is not None and guide.predict_unfit(
                        self._addrs(entry[0]), width
                    ):
                        # Width seeding: the shadow run saw magnitudes
                        # this width cannot represent, so skip the
                        # evaluation and treat it as a failure.
                        self._prune(history, entry[0], phase, width=width.name)
                        split(entry)
                        continue
                    batch.append(entry)
                if not batch:
                    continue
                configs = []
                for entry in batch:
                    config = self.base_config.copy()
                    config.flags.update(entry[0].flags(policy))
                    configs.append(config)
                batch_start = time.perf_counter()
                outcomes = self._evaluate_ordered(
                    [entry[0] for entry in batch], configs
                )
                per_eval = (time.perf_counter() - batch_start) / len(batch)
                for entry, outcome in zip(batch, outcomes):
                    item = entry[0]
                    if self._record(history, item.label(), item.nodes[0].level,
                                    outcome, per_eval, phase):
                        entry[1] = policy
                    else:
                        split(entry)
        return [(item, p) for item, p in levels]

    # -- main loop --------------------------------------------------------------------

    def _evaluate_ordered(self, items: list[_Item], configs: list[Config]) -> list:
        """Evaluate a batch, submitting configs in program order.

        Sibling structures flip adjacent policy slices, so sorting the
        *submission* order by node id maximizes template/closure prefix
        sharing inside the incremental caches.  Outcomes are mapped back
        to item order before any search decision is made, so the descent
        trajectory — and therefore the whole search — is unchanged.
        """
        if len(items) < 2:
            return self.evaluator.evaluate_batch(configs)
        order = sorted(
            range(len(items)), key=lambda i: items[i].nodes[0].node_id
        )
        ordered = self.evaluator.evaluate_batch([configs[i] for i in order])
        outcomes: list = [None] * len(items)
        for pos, i in enumerate(order):
            outcomes[i] = ordered[pos]
        return outcomes

    def run(self) -> SearchResult:
        with contextlib.ExitStack() as stack:
            if self._owns_executor:
                stack.enter_context(self.evaluator)
            try:
                result = self._run()
            except BaseException:
                # A Ctrl-C (or any crash) mid-batch: the journal already
                # holds the last batch boundary and the store every
                # outcome decided since, so just record the status — the
                # ExitStack still reaps worker pools on the way out.
                if self._campaign is not None:
                    self._campaign.mark_interrupted()
                raise
            if self._campaign is not None:
                self._campaign.mark_complete(result.row())
            return result

    def _baseline_census(self) -> None:
        """Run the uninstrumented workload once with telemetry attached so
        the trace opens with a ``vm.opcodes`` census of the original
        program (the profile the prioritization heuristic ranks by).
        The workload's own VM parameters make it the baseline's run."""
        from repro.vm.errors import VmTrap
        from repro.vm.machine import VM

        workload = self.workload
        vm = VM(
            workload.program,
            telemetry=self.telemetry,
            **getattr(workload, "vm_params", dict)(),
        )
        try:
            vm.run()
        except VmTrap:
            pass  # trap event already emitted; census below still valid
        vm.publish()

    def _setup_guide(self) -> None:
        """Build the analysis guide (running the shadow analysis if no
        report was supplied).  Imported lazily so searches with
        ``analysis=False`` never touch the subsystem."""
        from repro.analysis import SearchGuide, analyze

        if self._report is None:
            self._report = analyze(self.workload, telemetry=self.telemetry)
        self._guide = SearchGuide(self._report, self.workload)

    def _maybe_setup_guide(self, workload_name: str) -> None:
        """Honour ``options.analysis``: unconditionally build the guide
        for ``True``; for ``"auto"`` ask the economics registry whether
        the shadow run is predicted to pay for itself, and record the
        verdict either way.  The guide build is timed so the search can
        report what the guidance actually cost."""
        tel = self.telemetry
        if self.options.analysis == "auto":
            from repro.analysis import economics

            decision = economics.should_analyze(workload_name)
            if tel.enabled:
                tel.emit(
                    "search.guidance",
                    workload=workload_name,
                    analyze=decision.analyze,
                    reason=decision.reason,
                    predicted_saving_s=round(decision.predicted_saving_s, 4),
                    predicted_cost_s=round(decision.predicted_cost_s, 4),
                )
            if not decision.analyze:
                return
        guide_start = time.perf_counter()
        self._setup_guide()
        self._analysis_wall = time.perf_counter() - guide_start

    def _record_guidance_economics(self, workload_name: str, result) -> None:
        """After a guided run, store what the guidance cost and saved so
        later ``analysis="auto"`` searches of this workload can decide
        from measurement instead of hope."""
        from repro.analysis import economics

        evaluated = result.configs_tested
        if evaluated <= 0:
            return
        eval_wall = max(0.0, result.wall_seconds - self._analysis_wall)
        economics.record(
            workload_name,
            self._analysis_wall,
            eval_wall / evaluated,
            self._pruned,
        )

    # -- campaign journal (checkpoint/resume) -------------------------------------

    def _item_key(self, item: _Item, seq: int):
        """The priority-heap key of *item* pushed at *seq*.

        :meth:`_push` and :meth:`_restore` share it, so a resumed run
        has the exact ordering a fresh run would have had: weights and
        analysis ranks are recomputed (both are deterministic functions
        of the profile and the report), only the sequence number is
        journaled.  Predicted-replaceable items rank ahead of profile
        counts (analysis seeds prioritization).
        """
        guide = self._guide
        if guide is not None:
            return (
                -guide.replaceable_rank(self._addrs(item)),
                -self._weight(item),
                seq,
                item,
            )
        return (-self._weight(item), seq, item)

    def _snapshot(self, history: list, passing: list) -> dict:
        """One self-contained, JSON-serializable frontier snapshot.

        Everything a resumed engine needs that is not deterministically
        recomputable: the queue (node ids + their priority sequence
        numbers), the passing set, the evaluation history, and the
        counters.  Tree structure, weights, and analysis verdicts are
        *not* journaled — they are rebuilt from the workload, which is
        what keeps snapshots small and version-tolerant.
        """
        if self.options.prioritize:
            # Heap entries sorted by key so the journal line is
            # deterministic; heapify on restore rebuilds the same heap.
            queue = [
                [key[-2], key[-1].is_group, [n.node_id for n in key[-1].nodes]]
                for key in sorted(self._heap, key=lambda k: k[:-1])
            ]
        else:
            queue = [
                [None, item.is_group, [n.node_id for n in item.nodes]]
                for item in self._fifo
            ]
        return {
            "batch": self._batches,
            "seq": self._seq,
            "evaluations": self.evaluator.evaluations,
            "decided": sorted(self.evaluator.decided),
            "pruned": self._pruned,
            "queue": queue,
            "passing": [
                [item.is_group, [n.node_id for n in item.nodes]]
                for item in passing
            ],
            "history": [
                [r.label, r.passed, r.cycles, r.trap, r.wall_s, r.phase, r.reason]
                for r in history
            ],
        }

    def _restore(self, snap: dict) -> tuple[list, list]:
        """Rebuild engine state from a journal snapshot; returns the
        restored (history, passing) lists.  Must run after the profile
        and analysis guide are set up — heap keys are recomputed."""
        by_id = self.tree.by_id
        self._seq = snap["seq"]
        self._pruned = snap["pruned"]
        self._batches = snap["batch"]
        # Evaluations already decided before the interruption count
        # against max_configs and configs_tested exactly as they did
        # then; the store replays them without re-executing, and the
        # decided set keeps replay counting identical to an
        # uninterrupted run.
        self.evaluator.evaluations = snap["evaluations"]
        self.evaluator.decided = set(snap.get("decided", ()))
        for seq, is_group, node_ids in snap["queue"]:
            item = _Item([by_id[i] for i in node_ids], is_group)
            if self.options.prioritize:
                self._heap.append(self._item_key(item, seq))
            else:
                self._fifo.append(item)
        heapq.heapify(self._heap)
        passing = [
            _Item([by_id[i] for i in node_ids], is_group)
            for is_group, node_ids in snap["passing"]
        ]
        history = [
            EvalRecord(
                label, passed, cycles, trap,
                wall_s=wall_s, phase=phase, reason=reason,
            )
            for label, passed, cycles, trap, wall_s, phase, reason
            in snap["history"]
        ]
        self._resumed = True
        return history, passing

    def _run(self) -> SearchResult:
        tel = self.telemetry
        start = time.perf_counter()
        self._profile = self.workload.profile() if self.options.prioritize else {}
        workload_name = getattr(self.workload, "name", self.tree.program_name)
        if self.options.analysis:
            self._maybe_setup_guide(workload_name)
        if tel.enabled:
            tel.emit(
                "search.begin",
                workload=workload_name,
                candidates=self.tree.candidate_count,
                stop_level=self.options.stop_level,
                partition=self.options.partition,
                prioritize=self.options.prioritize,
                refine=self.options.refine,
                workers=self.options.workers,
            )
            self._baseline_census()

        campaign = self._campaign
        snap = campaign.latest_checkpoint() if campaign is not None else None
        if snap is not None:
            history, passing = self._restore(snap)
            if tel.enabled:
                tel.emit(
                    "campaign.resume",
                    batch=self._batches,
                    tested=self.evaluator.evaluations,
                )
        else:
            for root in self.tree.roots:
                self._push(_Item([root], False))
            history = []
            passing = []
        batch_size = max(1, self.options.workers)
        guide = self._guide

        while True:
            if self.evaluator.evaluations >= self.options.max_configs:
                break
            items: list[_Item] = []
            while len(items) < batch_size:
                item = self._pop()
                if item is None:
                    break
                if guide is not None and guide.predict_fail(self._addrs(item)):
                    # Analysis prune: the shadow run already showed this
                    # item's error exceeding the verification bound, so
                    # skip the evaluation and treat it as a failure
                    # (recorded + descended exactly like one).
                    self._prune(history, item, "bfs")
                    self._descend(item)
                    continue
                items.append(item)
            if not items:
                break
            configs = []
            for item in items:
                config = self.base_config.copy()
                config.flags.update(item.flags())
                configs.append(config)
            batch_start = time.perf_counter()
            outcomes = self._evaluate_ordered(items, configs)
            per_eval = (time.perf_counter() - batch_start) / len(items)
            for item, outcome in zip(items, outcomes):
                if self._record(history, item.label(), item.nodes[0].level,
                                outcome, per_eval, "bfs"):
                    passing.append(item)
                else:
                    self._descend(item)
            if tel.enabled:
                tel.emit(
                    "search.queue",
                    depth=len(self._heap) + len(self._fifo),
                    tested=self.evaluator.evaluations,
                )
            self._batches += 1
            if campaign is not None:
                campaign.checkpoint(self._snapshot(history, passing))
                if tel.enabled:
                    tel.emit(
                        "campaign.checkpoint",
                        batch=self._batches,
                        tested=self.evaluator.evaluations,
                    )

        # Lattice descent: re-test passing items one width narrower at a
        # time.  The binary lattice has no rungs below f32 — zero extra
        # evaluations, and `levels` degenerates to `passing` at SINGLE.
        levels = self._lattice_descend(passing, history)

        # Compose the final configuration: union of everything that
        # passed, each item at the narrowest width it settled on.
        final = self.base_config.copy()
        for item, policy in levels:
            final.flags.update(item.flags(policy))

        final_verified = False
        if passing:
            eval_start = time.perf_counter()
            outcome = self.evaluator.evaluate(final)
            wall = time.perf_counter() - eval_start
            final_verified = self._record(
                history, "FINAL(union)", "union", outcome, wall, "final"
            )

        profile = self.workload.profile()
        result = SearchResult(
            workload=workload_name,
            candidates=self.tree.candidate_count,
            configs_tested=self.evaluator.evaluations,
            final_config=final,
            final_verified=final_verified,
            static_pct=final.static_replaced_fraction(),
            dynamic_pct=final.dynamic_replaced_fraction(profile),
            history=history,
            wall_seconds=time.perf_counter() - start,
            analysis_used=self._guide is not None,
            analysis_pruned=self._pruned,
            resumed=self._resumed,
            store_replays=self.evaluator.store_hits,
        )

        if self.options.refine and passing and not final_verified:
            self._refine(result, passing, history, profile)
            result.configs_tested = self.evaluator.evaluations
            result.store_replays = self.evaluator.store_hits
            result.wall_seconds = time.perf_counter() - start

        if self._guide is not None:
            self._record_guidance_economics(workload_name, result)

        if tel.enabled:
            tel.emit(
                "search.end",
                workload=workload_name,
                tested=result.configs_tested,
                final="pass" if result.final_verified else "fail",
                static_pct=round(result.static_pct * 100.0, 1),
                dynamic_pct=round(result.dynamic_pct * 100.0, 1),
                wall_s=round(result.wall_seconds, 6),
                pruned=self._pruned,
            )
        return result

    # -- second search phase (composition refinement) ----------------------------

    def _refine(
        self,
        result: SearchResult,
        passing: list,
        history: list,
        profile: dict,
    ) -> None:
        """Greedy composition search: drop the hottest passing items from
        the union until the composition verifies (or the budget runs out).

        Rationale: precision decisions interact, and the interaction is
        almost always mediated by the most frequently executed replaced
        code — dropping cold items rarely rescues a failing union.
        """
        self._profile = profile  # _weight uses it
        remaining = sorted(passing, key=self._weight)  # coldest first
        budget = [self.options.refine_budget]
        dropped: list = []

        tel = self.telemetry

        def compose(items):
            candidate = self.base_config.copy()
            for item in items:
                candidate.flags.update(item.flags())
            label = f"REFINE({len(items)} items)"
            eval_start = time.perf_counter()
            outcome = self.evaluator.evaluate(candidate)
            wall = time.perf_counter() - eval_start
            budget[0] -= 1
            passed = self._record(
                history, label, "union", outcome, wall, "refine"
            )
            return passed, candidate

        kept = None
        while remaining and budget[0] > 0:
            passed, candidate = compose(remaining)
            if passed:
                kept = candidate
                break
            dropped.append(remaining.pop())  # drop the hottest remaining

        if kept is None:
            result.refined_config = self.base_config.copy()
            result.refined_verified = False
            result.refine_drops = len(dropped)
            if tel.enabled:
                tel.emit("search.refine", drops=len(dropped), verified=False)
            return

        # Re-add pass: some dropped items may compose fine once the true
        # offender is out; try them back in, coldest first.
        for item in sorted(dropped, key=self._weight):
            if budget[0] <= 0:
                break
            passed, candidate = compose(remaining + [item])
            if passed:
                remaining.append(item)
                kept = candidate

        result.refined_config = kept
        result.refined_verified = True
        result.refined_static_pct = kept.static_replaced_fraction()
        result.refined_dynamic_pct = kept.dynamic_replaced_fraction(profile)
        result.refine_drops = len(passing) - len(remaining)
        if tel.enabled:
            tel.emit(
                "search.refine", drops=result.refine_drops, verified=True
            )
