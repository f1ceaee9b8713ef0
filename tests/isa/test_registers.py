"""Register-file conventions."""

import pytest

from repro.isa import registers


class TestNames:
    def test_gpr_names(self):
        assert registers.gpr_name(0) == "r0"
        assert registers.gpr_name(15) == "r15"
        with pytest.raises(ValueError):
            registers.gpr_name(16)
        with pytest.raises(ValueError):
            registers.gpr_name(-1)

    def test_xmm_names(self):
        assert registers.xmm_name(7) == "x7"
        with pytest.raises(ValueError):
            registers.xmm_name(99)

    def test_aliases(self):
        assert registers.GPR_BY_NAME["sp"] == registers.STACK_POINTER == 15
        assert registers.GPR_BY_NAME["fp"] == registers.FRAME_POINTER == 14


class TestReservations:
    def test_snippet_registers_disjoint_from_compiler_temps(self):
        assert not set(registers.SNIPPET_GPRS) & set(registers.COMPILER_GPR_TEMPS)
        assert not set(registers.SNIPPET_XMMS) & set(registers.COMPILER_XMM_TEMPS)
        assert registers.COMPILER_SCRATCH_GPR not in registers.SNIPPET_GPRS

    def test_frame_and_stack_not_temps(self):
        assert registers.FRAME_POINTER not in registers.COMPILER_GPR_TEMPS
        assert registers.STACK_POINTER not in registers.COMPILER_GPR_TEMPS

    def test_compiled_code_respects_reservations(self):
        """No compiler output may ever touch the snippet registers — the
        invariant that makes streamlined instrumentation legal."""
        from repro.instrument.cache import _scratch_registers_unused
        from repro.workloads import make_nas, make_workload

        for name in ("ep", "cg", "ft", "mg", "bt", "lu", "sp"):
            assert _scratch_registers_unused(make_nas(name, "S").program), name
        assert _scratch_registers_unused(make_workload("superlu", "S").program)
        assert _scratch_registers_unused(make_workload("amg", "S").program)
