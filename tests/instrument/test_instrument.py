"""Instrumentation engine: snippets, rewriting, semantics preservation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Config, Policy, build_tree
from repro.fpbits.ieee import bits_to_double, bits_to_single
from repro.fpbits.replace import is_replaced, replaced_single_bits
from repro.instrument import InstrumentError, instrument
from repro.vm import run_program
from repro.vm.errors import VmTrap
from tests.conftest import compile_src

SRC = """
module kern;
var data: real[16];
fn fill() {
    for i in 0 .. 16 {
        data[i] = real(i) * 0.3 + 1.0;
    }
}
fn work() -> real {
    var s: real = 0.0;
    var p: real = 1.0;
    for i in 0 .. 16 {
        s = s + data[i] * data[i];
        if i % 3 == 0 {
            p = p * sqrt(data[i]);
        }
    }
    return s / p;
}
fn main() {
    fill();
    out(work());
}
"""


@pytest.fixture
def program():
    return compile_src(SRC)


@pytest.fixture
def tree(program):
    return build_tree(program)


class TestModes:
    def test_none_mode_roundtrips_layout(self, program, tree):
        # Rewriting with no snippets must preserve behaviour exactly even
        # though every address changes.
        result = instrument(program, Config.all_double(tree), mode="none")
        assert not result.snippeted
        assert run_program(result.program).outputs == run_program(program).outputs

    def test_auto_mode_skips_snippets_when_all_double(self, program, tree):
        result = instrument(program, Config.all_double(tree), mode="auto")
        assert not result.snippeted

    def test_auto_mode_snippets_when_any_single(self, program, tree):
        config = Config.all_double(tree)
        config.set(next(tree.instructions()).node_id, Policy.SINGLE)
        result = instrument(program, config, mode="auto")
        assert result.snippeted
        assert result.stats.replaced_single == 1
        assert result.stats.wrapped_double == tree.candidate_count - 1

    def test_all_mode_is_bit_identical(self, program, tree):
        result = instrument(program, Config.all_double(tree), mode="all")
        assert run_program(result.program).outputs == run_program(program).outputs
        assert result.growth > 1.0

    def test_bad_mode_rejected(self, program, tree):
        with pytest.raises(InstrumentError):
            instrument(program, Config.all_double(tree), mode="bogus")


class TestSingleReplacement:
    def test_all_single_flags_outputs(self, program, tree):
        result = instrument(program, Config.all_single(tree))
        run = run_program(result.program)
        (kind, bits), = run.outputs
        assert kind == "d" and is_replaced(bits)

    def test_all_single_matches_f32_build(self, tree):
        # The paper's core correctness claim, on this kernel.
        program = compile_src(SRC)
        program32 = compile_src(SRC, real_type="f32")
        instrumented = instrument(program, Config.all_single(build_tree(program)))
        got = run_program(instrumented.program).outputs
        want = run_program(program32).outputs
        assert len(got) == len(want)
        for (gk, gb), (wk, wb) in zip(got, want):
            assert gk == "d" and wk == "s"
            assert replaced_single_bits(gb) == wb

    def test_single_result_differs_from_double(self, program, tree):
        base = run_program(program).values()[0]
        mixed = run_program(instrument(program, Config.all_single(tree)).program)
        got = mixed.values()[0]
        assert got != base
        assert abs(got - base) / abs(base) < 1e-5

    def test_function_level_replacement(self, program, tree):
        from repro.config.model import LEVEL_FUNCTION

        fill_fn = next(
            n for n in tree.nodes_at(LEVEL_FUNCTION) if "fill" in n.label
        )
        config = Config(tree).set(fill_fn.node_id, Policy.SINGLE)
        result = run_program(instrument(program, config).program)
        base = run_program(program).values()[0]
        got = result.values()[0]
        assert got != base  # fill rounded to single
        assert abs(got - base) / abs(base) < 1e-5


class TestIgnore:
    def test_ignored_instruction_left_verbatim(self, program, tree):
        # IGNORE everything => snippets only if some single exists; an
        # all-ignore config with one single still must not touch the
        # ignored instructions.
        nodes = list(tree.instructions())
        config = Config(tree)
        config.set(nodes[0].node_id, Policy.SINGLE)
        for node in nodes[1:]:
            config.set(node.node_id, Policy.IGNORE)
        result = instrument(program, config)
        assert result.stats.ignored == len(nodes) - 1

    def test_ignored_consumer_of_flagged_value_sees_nan(self):
        src = """
        fn main() {
            var a: real = 1.5;
            var b: real = a * 2.0;
            out(b + 1.0);
        }
        """
        program = compile_src(src)
        tree = build_tree(program)
        nodes = list(tree.instructions())
        config = Config(tree)
        config.set(nodes[0].node_id, Policy.SINGLE)  # the multiply: flags b
        config.set(nodes[1].node_id, Policy.IGNORE)  # the add: raw addsd
        run = run_program(instrument(program, config).program)
        value = run.values()[0]
        assert value != value  # NaN reaches the output: loud failure


class TestMixedConfigs:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_configs_never_nan_when_guarded(self, data):
        """Any single/double mix over candidates must produce a clean
        (non-NaN, close-to-baseline) result: the guards upcast whatever
        the replacements flag."""
        program = compile_src(SRC)
        tree = build_tree(program)
        base = run_program(program).values()[0]
        config = Config(tree)
        for node in tree.instructions():
            if data.draw(st.booleans()):
                config.set(node.node_id, Policy.SINGLE)
        result = run_program(instrument(program, config).program)
        got = result.values()[0]
        assert got == got, "guarded mixed config produced NaN"
        assert abs(got - base) / abs(base) < 1e-4

    def test_growth_reported(self, program, tree):
        config = Config.all_single(tree)
        result = instrument(program, config)
        assert result.growth == len(result.program.text) / len(program.text)


class TestDataflowOptimization:
    def test_optimized_program_identical_outputs(self, program, tree):
        config = Config(tree)
        for index, node in enumerate(tree.instructions()):
            if index % 2 == 0:
                config.set(node.node_id, Policy.SINGLE)
        plain = instrument(program, config, plain=True)
        optimized = instrument(program, config)
        run_a = run_program(plain.program)
        run_b = run_program(optimized.program)
        assert run_a.outputs == run_b.outputs
        assert run_b.cycles <= run_a.cycles

    def test_checks_actually_skipped(self, program, tree):
        # all-double in 'all' mode: consecutive guards on the same register
        # within a block are decided by the first.
        plain = instrument(program, Config.all_double(tree), mode="all", plain=True)
        assert plain.stats.checks_skipped == 0
        optimized = instrument(program, Config.all_double(tree), mode="all")
        assert optimized.stats.checks_skipped > 0


class TestTranscendentalsAndConversions:
    def test_transcendental_replacement(self):
        src = "fn main() { out(sin(1.0) + exp(0.5)); }"
        program = compile_src(src)
        tree = build_tree(program)
        base = run_program(program).values()[0]
        mixed = run_program(instrument(program, Config.all_single(tree)).program)
        got = mixed.values()[0]
        import math

        want32 = float(__import__("numpy").float32(math.sin(1.0)) + __import__("numpy").float32(math.exp(0.5)))
        assert abs(got - want32) < 1e-6
        assert got != base

    def test_int_conversion_chain(self):
        src = """
        fn main() {
            var x: real = 7.9;
            var k: i64 = i64(x * 2.0);
            out(k);
            out(real(k) / 4.0);
        }
        """
        program = compile_src(src)
        tree = build_tree(program)
        run = run_program(instrument(program, Config.all_single(tree)).program)
        assert run.values() == [15, 3.75]


class TestCrashSemantics:
    def test_corrupted_index_traps_not_silent(self):
        # If a flagged value flows into address arithmetic via an ignored
        # conversion, the VM traps (or produces the indefinite), which the
        # evaluator counts as failed verification.
        src = """
        var a: real[4] = [1.0, 2.0, 3.0, 4.0];
        fn main() {
            var x: real = 3.0;
            var y: real = x * 1.0;
            var k: i64 = i64(y);
            out(a[k]);
        }
        """
        program = compile_src(src)
        tree = build_tree(program)
        nodes = list(tree.instructions())
        config = Config(tree)
        # single-replace the multiply, ignore the conversion: it reads the
        # flagged slot as a NaN double -> integer indefinite -> huge index.
        mul = next(n for n in nodes if "mulsd" in n.text)
        cvt = next(n for n in nodes if "cvttsd2si" in n.text)
        config.set(mul.node_id, Policy.SINGLE)
        config.set(cvt.node_id, Policy.IGNORE)
        with pytest.raises(VmTrap):
            run_program(instrument(program, config).program)


class TestStreamlining:
    def test_streamlined_results_identical(self, program, tree):
        config = Config.all_single(tree)
        plain = run_program(instrument(program, config, plain=True).program)
        lean = run_program(instrument(program, config).program)
        assert plain.outputs == lean.outputs

    def test_streamlined_is_cheaper(self, program, tree):
        config = Config.all_double(tree)
        plain = instrument(program, config, mode="all", plain=True)
        lean = instrument(program, config, mode="all")
        assert plain.stats.saves_elided == 0
        assert lean.stats.saves_elided > 0
        assert run_program(lean.program).cycles < run_program(plain.program).cycles

    def test_save_restore_kept_when_scratch_used(self):
        from repro.asm import assemble_text

        hand_written = assemble_text(
            """
.func _start
    mov %r12, $1
    mov %r1, $d:1.0
    movqxr %x0, %r1
    addsd %x0, %x0
    outsd %x0
    outi %r12
    halt
.endfunc
"""
        )
        config = Config.all_single(build_tree(hand_written))
        lean = instrument(hand_written, config)
        plain = instrument(hand_written, config, plain=True)
        # the program owns r12, so every snippet still saves and restores it
        assert lean.stats.saves_elided == 0
        outputs = run_program(lean.program).outputs
        assert outputs == run_program(plain.program).outputs
        assert outputs[-1] == ("i", 1)
