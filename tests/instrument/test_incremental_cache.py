"""Differential tests for the incremental instrumentation cache.

The cache is only allowed to be faster — never different.  For every
NAS workload, under every mode and both the lean and the plain form,
the program a cache-backed ``instrument()``
assembles must equal, field for field, the assembler's link of the same
splice (:mod:`tests.instrument.layout_oracle`), with identical
statistics, and executing it must reproduce outputs, cycle counts, and
step counts bit-for-bit.
"""

import dataclasses

import pytest

from repro.config import Config, Policy, build_tree
from repro.config.model import LEVEL_FUNCTION
from repro.instrument import InstrumentCache, InstrumentError, engine, instrument
from repro.instrument import cache as cache_module
from repro.isa import decode_instruction
from repro.isa.opcodes import NARROW_FAMILIES
from repro.vm import run_program
from repro.workloads import make_nas
from tests.conftest import compile_src
from tests.instrument import layout_oracle

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


@pytest.mark.parametrize("plain", [False, True])
@pytest.mark.parametrize("bench", NAS)
def test_cached_instrument_is_byte_identical(bench, plain):
    workload = make_nas(bench, "T")
    program = workload.program
    tree = build_tree(program)
    cache = InstrumentCache(program)
    configs = list(_configs(tree)) + [_lattice_config(tree, program)]
    for k, config in enumerate(configs):
        for mode in ("auto", "all", "none"):
            opts = dict(mode=mode, plain=plain)
            where = (k, opts)
            oracle, stats = layout_oracle.rewrite(program, config, **opts)
            built = instrument(program, config, cache=cache, **opts)
            assert layout_oracle.fields(built.program) == (
                layout_oracle.fields(oracle)
            ), where
            assert dataclasses.asdict(built.stats) == dataclasses.asdict(
                stats
            ), where

            ran_oracle = workload.run(oracle)
            ran = workload.run(built.program)
            assert ran.outputs == ran_oracle.outputs, where
            assert ran.cycles == ran_oracle.cycles, where
            assert ran.steps == ran_oracle.steps, where


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
    assert result.program.segments is not None
    expect = 0
    for seg_bytes, _instrs, base in result.program.segments:
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
        for code, instrs, _base in built.program.segments:
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


def test_cacheless_calls_share_a_bounded_fifo_of_caches(monkeypatch):
    # instrument() without a cache takes one from a module FIFO keyed by
    # program identity.  Each entry's cache holds its program, so the
    # id() key cannot be recycled by a newly allocated program.
    monkeypatch.setattr(engine, "_CACHES", {})
    programs = [make_nas(bench, "T").program for bench in NAS] + [
        make_nas(bench, "S").program for bench in ("cg", "ep")
    ]
    assert len(programs) > engine._CACHES_MAX
    for program in programs:
        instrument(program, Config.all_double(build_tree(program)))
        assert engine._CACHES[id(program)].program is program
    assert len(engine._CACHES) == engine._CACHES_MAX
    for key, cache in engine._CACHES.items():
        assert id(cache.program) == key
    assert id(programs[0]) not in engine._CACHES  # first in, first out


def test_a_repeat_cacheless_call_builds_no_template(monkeypatch):
    monkeypatch.setattr(engine, "_CACHES", {})
    program = make_nas("mg", "T").program
    config = Config.all_single(build_tree(program))
    first = instrument(program, config)
    cache = engine._CACHES[id(program)]
    assert cache.misses > 0

    def no_build(*_args):
        raise AssertionError("a repeat call built a block template")

    monkeypatch.setattr(cache_module, "build_block_template", no_build)
    again = instrument(program, config)
    assert again.program == first.program
    assert again.program.segments == first.program.segments
    assert dataclasses.asdict(again.stats) == dataclasses.asdict(first.stats)
    assert cache.hits == cache.misses
