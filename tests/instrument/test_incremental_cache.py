"""Differential tests for the incremental instrumentation cache.

The cache is only allowed to be faster — never different.  For every
NAS workload, under both ``optimize_checks`` settings, the program a
cache-backed ``instrument()`` assembles must be byte-identical to the
cold rewriter's output, and executing it must reproduce outputs, cycle
counts, and step counts bit-for-bit.
"""

import pytest

from repro.config import Config, Policy, build_tree
from repro.config.model import LEVEL_FUNCTION
from repro.instrument import InstrumentCache, InstrumentError, instrument
from repro.isa import decode_instruction
from repro.isa.opcodes import NARROW_FAMILIES
from repro.vm import run_program
from repro.workloads import make_nas
from tests.conftest import compile_src

NAS = ["cg", "bt", "ep", "ft", "lu", "mg", "sp"]


def _configs(tree):
    """All-double, all-single, and a mixed function-level config."""
    yield Config.all_double(tree)
    yield Config.all_single(tree)
    mixed = Config.all_double(tree)
    for k, node in enumerate(tree.nodes_at(LEVEL_FUNCTION)):
        if k % 2 == 0:
            mixed = mixed.set(node.node_id, Policy.SINGLE)
    yield mixed


@pytest.mark.parametrize("optimize_checks", [False, True])
@pytest.mark.parametrize("bench", NAS)
def test_cached_instrument_is_byte_identical(bench, optimize_checks):
    workload = make_nas(bench, "T")
    program = workload.program
    tree = build_tree(program)
    cache = InstrumentCache(program)
    for config in _configs(tree):
        cold = instrument(program, config, optimize_checks=optimize_checks)
        warm = instrument(
            program, config, optimize_checks=optimize_checks, cache=cache
        )
        assert warm.program.text == cold.program.text
        assert warm.program.entry == cold.program.entry
        assert warm.program.data_image == cold.program.data_image
        assert warm.program.debug_lines == cold.program.debug_lines
        assert warm.stats.replaced_single == cold.stats.replaced_single
        assert warm.stats.checks_skipped == cold.stats.checks_skipped

        ran_cold = workload.run(cold.program)
        ran_warm = workload.run(warm.program)
        assert ran_warm.outputs == ran_cold.outputs
        assert ran_warm.cycles == ran_cold.cycles
        assert ran_warm.steps == ran_cold.steps


def test_repeat_instrument_hits_every_block():
    workload = make_nas("cg", "T")
    tree = build_tree(workload.program)
    cache = InstrumentCache(workload.program)
    config = Config.all_single(tree)

    instrument(workload.program, config, cache=cache)
    misses_after_first = cache.misses
    assert misses_after_first > 0 and cache.hits == 0

    instrument(workload.program, config, cache=cache)
    assert cache.misses == misses_after_first  # nothing re-snippeted
    assert cache.hits == misses_after_first


def test_single_flag_change_rebuilds_one_block():
    workload = make_nas("cg", "T")
    tree = build_tree(workload.program)
    cache = InstrumentCache(workload.program)

    # Two candidate instructions in different basic blocks; both configs
    # snippet every block (flag resolution is outermost-wins, so the
    # base flag must sit on an instruction, not the root).
    insns = list(tree.instructions())
    first = insns[0]
    other = next(n for n in insns if n.parent is not first.parent)

    base = Config.all_double(tree).set(first.node_id, Policy.SINGLE)
    instrument(workload.program, base, cache=cache)
    misses_before = cache.misses

    changed = base.copy().set(other.node_id, Policy.SINGLE)
    instrument(workload.program, changed, cache=cache)
    # Only the block containing the newly flipped instruction rebuilds.
    assert cache.misses == misses_before + 1


def test_cache_rejects_foreign_program():
    cache = InstrumentCache(make_nas("cg", "T").program)
    other = compile_src("fn main() { out(1.0); }")
    tree = build_tree(other)
    with pytest.raises(InstrumentError):
        instrument(other, Config.all_double(tree), cache=cache)


def test_segments_tile_the_text_section():
    workload = make_nas("mg", "T")
    tree = build_tree(workload.program)
    cache = InstrumentCache(workload.program)
    result = instrument(workload.program, Config.all_single(tree), cache=cache)
    assert result.segments is not None
    expect = 0
    for seg_bytes, _instrs, base in result.segments:
        assert base == expect
        expect += len(seg_bytes)
    assert expect == len(result.program.text)


def _lattice_config(tree, program):
    """All four lattice rungs dealt round-robin over the instructions; a
    site with no 16-bit equivalent (a packed op) stays at f32."""
    opcodes = {instr.addr: instr.opcode for instr in program.decode_all()}
    rungs = (Policy.DOUBLE, Policy.SINGLE, Policy.BF16, Policy.HALF)
    widths = {Policy.BF16: "bf16", Policy.HALF: "f16"}
    config = Config.all_double(tree)
    for k, node in enumerate(tree.instructions()):
        policy = rungs[k % 4]
        family = widths.get(policy)
        if family and opcodes[node.addr] not in NARROW_FAMILIES[family][0]:
            policy = Policy.SINGLE
        config.set(node.node_id, policy)
    return config


def _decode_all(code):
    out, offset = [], 0
    while offset < len(code):
        instr, size = decode_instruction(code, offset)
        out.append(instr)
        offset += size
    return tuple(out)


@pytest.mark.parametrize("bench", NAS)
def test_template_instructions_equal_a_decode_of_their_bytes(bench):
    # The VM loads segments from these instructions instead of decoding
    # the template bytes, so they must be exactly what decode returns.
    program = make_nas(bench, "T").program
    tree = build_tree(program)
    cache = InstrumentCache(program)
    builds = [(config, "auto") for config in _configs(tree)]
    builds.append((Config.all_double(tree), "all"))
    builds.append((_lattice_config(tree, program), "auto"))
    for config, mode in builds:
        built = instrument(program, config, mode=mode, cache=cache)
        for code, instrs, _base in built.segments:
            assert instrs == _decode_all(code)
    assert cache.misses > 0


def test_cached_program_runs_without_cfg():
    # Cache-assembled programs defer CFG construction; running them (and
    # rebuilding the CFG on demand) must both work.
    workload = make_nas("lu", "T")
    tree = build_tree(workload.program)
    cache = InstrumentCache(workload.program)
    result = instrument(workload.program, Config.all_single(tree), cache=cache)
    assert all(not fn.blocks for fn in result.program.functions if fn.entry < fn.end)
    run_program(result.program)
    result.program.ensure_cfg()
    assert any(fn.blocks for fn in result.program.functions)


def test_replay_cache_is_byte_identical_and_stat_exact():
    # The rewriter memoizes each instruction site's expansion and replays
    # it on later rewrites of the same program (rewriter._REPLAY).  A
    # replayed rewrite must be indistinguishable from a fresh one: same
    # bytes, same debug info, same statistics to the last counter.
    import dataclasses

    from repro.instrument import rewriter

    workload = make_nas("mg", "T")
    program = workload.program
    tree = build_tree(program)
    rewriter._REPLAY.clear()
    for config in _configs(tree):
        fresh = instrument(program, config)     # populates the site cache
        replayed = instrument(program, config)  # replays every site
        assert replayed.program.text == fresh.program.text
        assert replayed.program.entry == fresh.program.entry
        assert replayed.program.debug_lines == fresh.program.debug_lines
        assert dataclasses.asdict(replayed.stats) == dataclasses.asdict(
            fresh.stats
        )


def test_replay_cache_evicts_fifo_and_pins_programs():
    from repro.instrument import rewriter

    rewriter._REPLAY.clear()
    programs = [make_nas(bench, "T").program for bench in NAS] + [
        make_nas(bench, "S").program for bench in ("cg", "ep")
    ]
    for program in programs:
        instrument(program, Config.all_double(build_tree(program)))
    assert len(rewriter._REPLAY) <= rewriter._REPLAY_MAX
    # Each surviving entry holds a strong reference to its program, so
    # the id() key cannot be recycled by a newly allocated program.
    for key, (pinned, _sites) in rewriter._REPLAY.items():
        assert id(pinned) == key
