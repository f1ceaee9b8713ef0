"""Register file definitions for the virtual ISA.

The machine is modeled on x86-64 with SSE2:

* 16 general-purpose 64-bit registers ``R0`` .. ``R15``;
* 16 XMM registers ``X0`` .. ``X15``, each with two 64-bit lanes (so a
  packed-double operation works on two values, exactly the constraint the
  paper cites for 128-bit XMM registers).

Conventions (enforced by the compiler and the instrumentation engine, not
by the hardware):

=========  =================================================================
Register   Role
=========  =================================================================
R0         integer return value / first scratch
R1..R10    integer expression temporaries
R11        compiler scratch (address computation)
R12, R13   **reserved for instrumentation snippets** (the paper's rax/rbx)
R14        frame pointer
R15        stack pointer
X0         floating-point return value / first temporary
X1..X11    floating-point expression temporaries
X12, X13   compiler scratch
X14, X15   **reserved for instrumentation snippets** (memory-operand copies)
=========  =================================================================

Snippets additionally push/pop everything they touch, so the reservation
is belt-and-braces: even code that used R12/R13/X14/X15 would survive
instrumentation.
"""

from __future__ import annotations

NUM_GPRS = 16
NUM_XMMS = 16

# Symbolic names used by the assembler / disassembler.
GPR_NAMES = tuple(f"r{i}" for i in range(NUM_GPRS))
XMM_NAMES = tuple(f"x{i}" for i in range(NUM_XMMS))

GPR_BY_NAME = {name: i for i, name in enumerate(GPR_NAMES)}
XMM_BY_NAME = {name: i for i, name in enumerate(XMM_NAMES)}

# Aliases reflecting the conventions above.
GPR_BY_NAME["sp"] = 15
GPR_BY_NAME["fp"] = 14

FRAME_POINTER = 14
STACK_POINTER = 15

#: Registers that instrumentation snippets may use as scratch.
SNIPPET_GPRS = (12, 13)
SNIPPET_XMMS = (14, 15)

#: Highest GPR / XMM index the compiler may allocate as a temporary.
COMPILER_GPR_TEMPS = tuple(range(1, 11))
COMPILER_XMM_TEMPS = tuple(range(0, 12))
COMPILER_SCRATCH_GPR = 11


def gpr_name(index: int) -> str:
    if not 0 <= index < NUM_GPRS:
        raise ValueError(f"bad GPR index {index}")
    return GPR_NAMES[index]


def xmm_name(index: int) -> str:
    if not 0 <= index < NUM_XMMS:
        raise ValueError(f"bad XMM index {index}")
    return XMM_NAMES[index]
