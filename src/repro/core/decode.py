"""Program decode for the TG interpreter.

Touching a :class:`~repro.core.isa.TGInstruction` NamedTuple per executed
instruction costs attribute loads, a :class:`~repro.core.isa.TGOp` enum
compare per dispatch arm, and a fresh ``Cond(...)`` construction per
branch.  For millisecond-scale traces a TG executes each instruction
once, but synthetic workloads and polling loops re-execute hot bodies
millions of times, so the per-instruction constant work adds up.

:func:`decode_program` lowers a validated program once, up front, into
parallel plain-``int`` field lists — the straight-line decode a hardware
TG's fetch stage performs.  Branch conditions are resolved to bound
comparison callables so ``If`` costs one indexed call, not an enum
round-trip.  :meth:`TGMaster._run <repro.core.tg_master.TGMaster._run>`
interprets the lowered columns.
"""

from typing import Callable, List, NamedTuple, Sequence

import operator

from repro.core.isa import TGOp
from repro.core.program import TGProgram

#: Branch-condition byte -> comparison callable, indexed by Cond value.
COND_FUNCS: Sequence[Callable[[int, int], bool]] = (
    operator.eq,   # Cond.EQ
    operator.ne,   # Cond.NE
    operator.lt,   # Cond.LT
    operator.ge,   # Cond.GE
    operator.gt,   # Cond.GT
    operator.le,   # Cond.LE
)


class DecodedProgram(NamedTuple):
    """A TG program lowered to parallel plain-int field columns."""

    ops: List[int]      #: opcode byte per instruction (int, not TGOp)
    a: List[int]
    b: List[int]
    conds: List        #: comparison callable for IF rows, else None
    imm: List[int]
    pool: List[int]

    def __len__(self) -> int:
        return len(self.ops)


def decode_program(program: TGProgram) -> DecodedProgram:
    """Lower a validated program for the interpreter.

    ``program.validate()`` range-checks IF conditions, so ``COND_FUNCS``
    indexing is safe here.
    """
    instructions = program.instructions
    ops = [int(instr.op) for instr in instructions]
    if_op = int(TGOp.IF)
    conds = [COND_FUNCS[instr.cond] if op == if_op else None
             for op, instr in zip(ops, instructions)]
    return DecodedProgram(ops,
                          [instr.a for instr in instructions],
                          [instr.b for instr in instructions],
                          conds,
                          [instr.imm for instr in instructions],
                          list(program.pool))
