"""The virtual machine: executes Programs at the bit level.

Registers and memory cells hold raw 64-bit patterns; floating-point
semantics are applied only inside opcode handlers via :mod:`repro.fpbits`.
This is what makes the paper's in-place replacement scheme work unchanged:
a "replaced" value is just a pattern with ``0x7FF4DEAD`` in its high word,
and it flows through moves, pushes, memory and MPI buffers exactly as it
would through x86 registers and RAM.

The VM also implements the machine model that stands in for the paper's
Xeon timings: every instruction has a cycle cost (double FLOPs cost more
than single FLOPs, memory accesses are priced by bytes moved), so
"overhead" and "speedup" are deterministic, reproducible ratios.
"""

from repro.vm.errors import VmTrap, VmTimeout, CollectiveYield
from repro.vm.machine import (
    VM,
    ExecResult,
    Machine,
    run_program,
)
from repro.vm.outputs import decode_outputs, outputs_close

__all__ = [
    "VM",
    "ExecResult",
    "Machine",
    "run_program",
    "VmTrap",
    "VmTimeout",
    "CollectiveYield",
    "decode_outputs",
    "outputs_close",
]
