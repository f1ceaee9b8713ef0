"""Exact dispatch counts of instrumented builds on the fused path.

A *dispatch* is one call from the VM's loop: a fused run's entry or one
single-stepped reference closure.  Fused runs continue through the
Figure 6 checks' forward branches (see ``repro.vm.fuse``), so one run
covers a whole instrumented block; these counts pin that fold.  They
repeat exactly, and an edit that silently stops folding a diamond raises
them.

A plain (non-counting) VM is probed after its load: its fused dispatch
array and its closure array are swapped for lists that count each
lookup the loop calls through.  Counting at the lookup rather than
wrapping each closure keeps the count exact when a lazy stand-in writes
its compiled closure over its own slot.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.vm.machine as vm_machine
from repro.config import Config, build_tree
from repro.instrument import InstrumentCache, instrument
from repro.vm import VM
from repro.workloads import make_nas


class _Entries(list):
    """A fused dispatch array counting the run entries looked up."""

    calls = 0

    def __getitem__(self, index):
        entry = list.__getitem__(self, index)
        if entry is not None:
            self.calls += 1
        return entry


class _Steps(list):
    """A closure array counting the single steps looked up."""

    calls = 0

    def __getitem__(self, index):
        self.calls += 1
        return list.__getitem__(self, index)


def _dispatches(program, params) -> tuple:
    """(fused entries, single steps, steps) of one plain run."""
    vm = VM(program, **params)
    assert not vm._counting and vm._fcode is not None
    vm._fcode = entries = _Entries(vm._fcode)
    vm._code = steps = _Steps(vm._code)
    vm.run()
    return entries.calls, steps.calls, vm.steps


#: (bench, plain) -> {load: (fused entries, single steps, steps)} of the
#: all-single class T build, loaded whole (tiling stripped) and from
#: its templates.  Without the fold every check's branch ended a run:
#: cg.T took 2,645 fused entries lean and 3,101 plain, mg.T 3,423 and
#: 4,049, whichever way it loaded.
PINNED = {
    ("cg", False): {"whole": (1293, 2, 18167), "templates": (1412, 2, 18167)},
    ("cg", True): {"whole": (1293, 2, 21731), "templates": (1412, 2, 21731)},
    ("mg", False): {"whole": (1439, 2, 23508), "templates": (1453, 2, 23508)},
    ("mg", True): {"whole": (1439, 2, 28158), "templates": (1453, 2, 28158)},
}


@pytest.mark.parametrize("bench,plain", sorted(PINNED))
def test_all_single_builds_dispatch_as_pinned(monkeypatch, bench, plain):
    monkeypatch.setattr(vm_machine, "_NO_FUSE", False)
    workload = make_nas(bench, "T")
    program = workload.program
    built = instrument(
        program,
        Config.all_single(build_tree(program)),
        cache=InstrumentCache(program),
        plain=plain,
    )
    params = workload.vm_params()
    whole = dataclasses.replace(built.program, segments=None)
    got = {
        "whole": _dispatches(whole, params),
        "templates": _dispatches(built.program, params),
    }
    assert got == PINNED[bench, plain]
