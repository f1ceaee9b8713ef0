"""Lattice-aware search: descent below f32, binary-lattice identity.

The central differential: a search over the explicit two-level lattice
(``"f64,f32"``, the paper's space) is *byte-identical* to the default
pre-lattice search — same configs tested, same history, same serialized
final configuration.  Deeper lattices add ``lattice:<width>`` phases
that only ever narrow sites the binary search already replaced.
"""

from __future__ import annotations

import pytest

from repro.config import Policy, dump_config
from repro.config.model import LEVEL_FUNCTION
from repro.search import SearchEngine, SearchOptions
from repro.vm import outputs_close, run_program
from repro.workloads import make_workload
from tests.conftest import compile_src

# `stable` is exact at every lattice width (1.5 and 2.0 are binary16-
# representable, and the loop returns to 1.0); `tiny` underflows
# binary16 (1e-6 < 2^-14) but fits binary32 and bfloat16; `big` works
# in powers of two — exact even at bfloat16's 8-bit significand — but
# its magnitudes overflow binary16's 65504 ceiling, so the analysis can
# *predict* the f16 failure from the observed ranges; `fragile` needs
# double.
SRC = """
module rungs;
fn stable(n: i64) -> real {
    var p: real = 1.0;
    for i in 0 .. n {
        p = p * 1.5;
        p = p / 1.5;
    }
    return p + 2.0;
}
fn tiny() -> real {
    var t: real = 0.000001;
    return t * 2.0;
}
fn big() -> real {
    var b: real = 131072.0;
    return b * 2.0;
}
fn fragile(n: i64) -> real {
    var s: real = 100000000.0;
    for i in 0 .. n {
        s = s + 0.25;
    }
    return s;
}
fn main() {
    out(stable(8));
    out(tiny());
    out(big());
    out(fragile(100));
}
"""


class _Workload:
    name = "rungs"

    def __init__(self, rel_tol=1e-9):
        self.program = compile_src(SRC)
        self.rel_tol = rel_tol
        self._baseline = run_program(self.program)
        self._profile = None

    def run(self, program=None):
        return run_program(
            program if program is not None else self.program,
            max_steps=2_000_000,
        )

    def verify(self, result):
        return outputs_close(
            result.values(), self._baseline.values(), rel_tol=self.rel_tol
        )

    def profile(self):
        if self._profile is None:
            self._profile = run_program(self.program, profile=True).exec_counts
        return self._profile

    def vm_params(self):
        return {"max_steps": 2_000_000}


class TestOptionsValidation:
    def test_default_is_the_binary_lattice(self):
        assert SearchOptions().lattice == "f64,f32"

    def test_bad_spec_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SearchOptions(lattice="f64,f32,fp8")
        with pytest.raises(ValueError):
            SearchOptions(lattice="f64,f32,f16,bf16")


class TestBinaryLatticeIdentity:
    def test_explicit_binary_lattice_is_byte_identical(self):
        base = SearchEngine(_Workload()).run()
        binary = SearchEngine(
            _Workload(), SearchOptions(lattice="f64,f32")
        ).run()
        assert binary.configs_tested == base.configs_tested
        assert binary.final_config.flags == base.final_config.flags
        assert [
            (r.label, r.passed, r.cycles, r.phase, r.reason)
            for r in binary.history
        ] == [
            (r.label, r.passed, r.cycles, r.phase, r.reason)
            for r in base.history
        ]
        assert dump_config(binary.final_config) == dump_config(
            base.final_config
        )

    def test_binary_history_has_no_lattice_phase(self):
        result = SearchEngine(
            _Workload(), SearchOptions(lattice="f64,f32")
        ).run()
        assert not any(r.phase.startswith("lattice:") for r in result.history)


class TestLatticeDescent:
    def test_full_lattice_narrows_below_f32(self):
        result = SearchEngine(
            _Workload(), SearchOptions(lattice="f64,f32,bf16,f16")
        ).run()
        assert result.final_verified
        policies = result.final_config.instruction_policies()
        narrow = {p for p in policies.values() if p.is_narrow}
        # stable() is exact at binary16; something must land there.
        assert Policy.HALF in narrow

    def test_descent_only_narrows_what_f32_replaced(self):
        base = SearchEngine(_Workload()).run()
        deep = SearchEngine(
            _Workload(), SearchOptions(lattice="f64,f32,bf16,f16")
        ).run()
        base_p = base.final_config.instruction_policies()
        deep_p = deep.final_config.instruction_policies()
        assert set(base_p) == set(deep_p)
        for addr, policy in deep_p.items():
            if policy.is_narrow:
                # every narrowed site was f32 in the binary search...
                assert base_p[addr] is Policy.SINGLE
            else:
                # ...and every non-narrow verdict is unchanged.
                assert base_p[addr] is policy

    def test_lattice_phases_recorded_in_history(self):
        result = SearchEngine(
            _Workload(), SearchOptions(lattice="f64,f32,bf16,f16")
        ).run()
        phases = {r.phase for r in result.history}
        assert "lattice:bf16" in phases
        assert "lattice:f16" in phases
        # Descent happens after the main loop, before the final union.
        order = [r.phase for r in result.history]
        assert order.index("lattice:bf16") > max(
            i for i, p in enumerate(order) if p == "bfs"
        )

    def test_underflowing_site_stays_above_f16(self):
        result = SearchEngine(
            _Workload(), SearchOptions(lattice="f64,f32,bf16,f16")
        ).run()
        tree = result.final_config.tree
        tiny_fn = next(
            n for n in tree.nodes_at(LEVEL_FUNCTION) if "tiny" in n.label
        )
        policies = result.final_config.instruction_policies()
        for insn in tiny_fn.instructions():
            # 1e-6 underflows binary16; bf16/f32 keep it normal.
            assert policies[insn.addr] is not Policy.HALF

    def test_max_configs_budget_respected_through_descent(self):
        result = SearchEngine(
            _Workload(),
            SearchOptions(lattice="f64,f32,bf16,f16", max_configs=3),
        ).run()
        assert result.configs_tested <= 4  # budget + possibly the union

    def test_three_level_lattice_stops_at_bf16(self):
        result = SearchEngine(
            _Workload(), SearchOptions(lattice="f64,f32,bf16")
        ).run()
        policies = result.final_config.instruction_policies()
        assert Policy.HALF not in policies.values()
        assert result.final_verified


class TestWidthSeeding:
    def _pair(self, workload_factory):
        options = dict(lattice="f64,f32,bf16,f16")
        base = SearchEngine(
            workload_factory(), SearchOptions(analysis=False, **options)
        ).run()
        seeded = SearchEngine(
            workload_factory(), SearchOptions(analysis=True, **options)
        ).run()
        return base, seeded

    def test_range_prediction_prunes_the_f16_rung(self):
        # big() passes at bf16 but its observed magnitudes exceed
        # binary16's max finite — the predictor skips the evaluation.
        base, seeded = self._pair(_Workload)
        lattice_prunes = [
            r for r in seeded.history
            if r.reason == "pruned" and r.phase.startswith("lattice:")
        ]
        assert lattice_prunes
        assert all(r.phase == "lattice:f16" for r in lattice_prunes)
        assert seeded.configs_tested < base.configs_tested
        # Pruned or evaluated, the descent lands on the same verdicts.
        assert (seeded.final_config.instruction_policies()
                == base.final_config.instruction_policies())

    def test_seeding_reduces_totals_on_cg(self):
        base, seeded = self._pair(lambda: make_workload("cg", "T"))
        assert seeded.configs_tested < base.configs_tested
        assert (seeded.final_config.instruction_policies()
                == base.final_config.instruction_policies())
