"""TG instruction set (paper Table 1) and binary encoding.

The instruction set is deliberately tiny — the whole point of the TG is a
"drastic simplification in the amount of logic needed to generate
communication transactions" (Section 6):

=============================== ==========================================
OCP instructions                behaviour
=============================== ==========================================
``Read(addr)``                  blocking read; result lands in ``rdreg``
``Write(addr, data)``           posted write (resumes at command accept)
``BurstRead(addr, count)``      blocking burst read; last beat in ``rdreg``
``BurstWrite(addr, count, pool)`` posted burst write; data from the pool
=============================== ==========================================

=============================== ==========================================
other instructions              behaviour
=============================== ==========================================
``SetRegister(reg, value)``     load-immediate, 1 cycle
``Idle(count)``                 wait ``count`` cycles
``If(a, op, b, target)``        branch to ``target`` when true, 1 cycle
``Jump(target)``                branch always, 1 cycle
``Halt``                        stop; records completion time
=============================== ==========================================

Timing model: ``SetRegister``/``If``/``Jump`` cost one TG cycle each;
``Idle(n)`` costs *n*; OCP instructions issue the moment they execute and
block until their unblock point (response for reads, accept for writes).
The trace translator relies on exactly this cost model when it converts
timestamp gaps into instruction sequences.

Binary format: every instruction is two 32-bit words::

    word 0:  opcode(8) | a(8) | b(8) | cond(8)
    word 1:  imm32

Field use per opcode is documented in ``_FIELDS`` below.  Burst-write data
lives in a *data pool* appended after the code; the instruction's ``imm``
is the pool word offset.
"""

import enum
from typing import NamedTuple

from repro.ocp.types import WORD_MASK

#: TG register file size.
TG_NUM_REGS = 16
#: Special registers (paper Figure 3(b) uses the same names).
RDREG = 0      #: destination of read data
TEMPREG = 1    #: comparison operand for polling loops
ADDRREG = 2    #: current transaction address
DATAREG = 3    #: current write data

_REG_NAMES = {RDREG: "rdreg", TEMPREG: "tempreg", ADDRREG: "addr",
              DATAREG: "data"}


class TGError(Exception):
    """Malformed TG program, encoding, or execution fault."""


def reg_name(index: int) -> str:
    """Symbolic name of a TG register (``r<n>`` for generic ones)."""
    return _REG_NAMES.get(index, f"r{index}")


def reg_index(name: str) -> int:
    """Inverse of :func:`reg_name`."""
    for index, reg in _REG_NAMES.items():
        if reg == name:
            return index
    if name.startswith("r") and name[1:].isdigit():
        index = int(name[1:])
        if 0 <= index < TG_NUM_REGS:
            return index
    raise TGError(f"unknown TG register {name!r}")


class TGOp(enum.IntEnum):
    """TG opcodes (the integer is the binary opcode byte).

    ``READ_NB`` and ``FENCE`` implement the paper's future-work item
    "support for processors allowing out-of-order transactions": a
    non-blocking read issues and retires in the background (its data is
    discarded — it models prefetch/miss-under-miss traffic), and a fence
    blocks until every outstanding non-blocking transaction completed.
    """

    READ = 1
    WRITE = 2
    BURST_READ = 3
    BURST_WRITE = 4
    SET_REGISTER = 5
    IDLE = 6
    IF = 7
    JUMP = 8
    HALT = 9
    READ_NB = 10
    FENCE = 11


class Cond(enum.IntEnum):
    """Comparison operators for ``If`` (encoded in the cond byte)."""

    EQ = 0
    NE = 1
    LT = 2
    GE = 3
    GT = 4
    LE = 5

    @property
    def symbol(self) -> str:
        return {"EQ": "==", "NE": "!=", "LT": "<", "GE": ">=",
                "GT": ">", "LE": "<="}[self.name]

    @staticmethod
    def from_symbol(symbol: str) -> "Cond":
        for cond in Cond:
            if cond.symbol == symbol:
                return cond
        raise TGError(f"unknown condition {symbol!r}")

    def evaluate(self, a: int, b: int) -> bool:
        if self == Cond.EQ:
            return a == b
        if self == Cond.NE:
            return a != b
        if self == Cond.LT:
            return a < b
        if self == Cond.GE:
            return a >= b
        if self == Cond.GT:
            return a > b
        return a <= b


#: :meth:`TGInstruction.validate`'s opcode groups (plain ints match too).
_ADDRESSED_OPS = frozenset((TGOp.READ, TGOp.WRITE, TGOp.BURST_READ,
                            TGOp.BURST_WRITE, TGOp.READ_NB))
_BURST_OPS = frozenset((TGOp.BURST_READ, TGOp.BURST_WRITE))
_BRANCH_OPS = frozenset((TGOp.IF, TGOp.JUMP))
_CONDS = frozenset(Cond)


def _bad_register(op, what: str, value) -> TGError:
    return TGError(f"{op.name}: {what} register {value} out of range")


class TGInstruction(NamedTuple):
    """One decoded TG instruction.

    Field use by opcode:

    ================ ===== ====== ====== ==========================
    opcode           a     b      cond   imm
    ================ ===== ====== ====== ==========================
    READ             areg  --     --     --
    WRITE            areg  dreg   --     --
    BURST_READ       areg  count  --     --
    BURST_WRITE      areg  count  --     pool word offset
    SET_REGISTER     reg   --     --     value
    IDLE             --    --     --     cycles
    IF               reg_a reg_b  cond   target (instruction index)
    JUMP             --    --     --     target (instruction index)
    HALT             --    --     --     --
    ================ ===== ====== ====== ==========================
    """

    op: TGOp
    a: int = 0
    b: int = 0
    cond: int = 0
    imm: int = 0

    def validate(self, n_instructions: int, pool_size: int) -> None:
        """Raise :class:`TGError` when fields are out of range."""
        op, a, b, cond, imm = self
        if op in _ADDRESSED_OPS:
            if not 0 <= a < TG_NUM_REGS:
                raise _bad_register(op, "address", a)
            if op == TGOp.WRITE:
                if not 0 <= b < TG_NUM_REGS:
                    raise _bad_register(op, "data", b)
            elif op in _BURST_OPS:
                if not 2 <= b <= 255:
                    raise TGError(f"{op.name}: burst count {b} "
                                  f"outside [2, 255]")
                if op == TGOp.BURST_WRITE and (imm < 0 or imm + b > pool_size):
                    raise TGError(f"BURST_WRITE pool range [{imm}, "
                                  f"{imm + b}) outside pool of "
                                  f"{pool_size} words")
        elif op == TGOp.SET_REGISTER:
            if not 0 <= a < TG_NUM_REGS:
                raise _bad_register(op, "destination", a)
            if not 0 <= imm <= WORD_MASK:
                raise TGError(f"SET_REGISTER value 0x{imm:x} not 32-bit")
        elif op == TGOp.IDLE:
            if imm < 0:
                raise TGError(f"IDLE cycles must be >= 0, got {imm}")
        elif op in _BRANCH_OPS:
            if op == TGOp.IF:
                if not 0 <= a < TG_NUM_REGS:
                    raise _bad_register(op, "left", a)
                if not 0 <= b < TG_NUM_REGS:
                    raise _bad_register(op, "right", b)
                if cond not in _CONDS:
                    raise TGError(f"IF: bad condition {cond}")
            if not 0 <= imm < n_instructions:
                raise TGError(f"{op.name} target {imm} outside "
                              f"program of {n_instructions} instructions")

    def __repr__(self) -> str:
        op = self.op
        if op == TGOp.READ_NB:
            return f"ReadNB({reg_name(self.a)})"
        if op == TGOp.FENCE:
            return "Fence"
        if op == TGOp.READ:
            return f"Read({reg_name(self.a)})"
        if op == TGOp.WRITE:
            return f"Write({reg_name(self.a)}, {reg_name(self.b)})"
        if op == TGOp.BURST_READ:
            return f"BurstRead({reg_name(self.a)}, {self.b})"
        if op == TGOp.BURST_WRITE:
            return f"BurstWrite({reg_name(self.a)}, {self.b}, pool+{self.imm})"
        if op == TGOp.SET_REGISTER:
            return f"SetRegister({reg_name(self.a)}, 0x{self.imm:08x})"
        if op == TGOp.IDLE:
            return f"Idle({self.imm})"
        if op == TGOp.IF:
            return (f"If({reg_name(self.a)} {Cond(self.cond).symbol} "
                    f"{reg_name(self.b)}) -> {self.imm}")
        if op == TGOp.JUMP:
            return f"Jump({self.imm})"
        return "Halt"


def encode_instruction(instr: TGInstruction) -> tuple:
    """Encode to the two binary words ``(word0, word1)``."""
    for value, what in ((instr.a, "a"), (instr.b, "b"), (instr.cond, "cond")):
        if not 0 <= value <= 0xFF:
            raise TGError(f"{instr.op.name}: field {what}={value} not a byte")
    if not 0 <= instr.imm <= WORD_MASK:
        raise TGError(f"{instr.op.name}: imm 0x{instr.imm:x} not 32-bit")
    word0 = (int(instr.op) << 24) | (instr.a << 16) | (instr.b << 8) | instr.cond
    return word0, instr.imm


def decode_instruction(word0: int, word1: int) -> TGInstruction:
    """Decode two binary words back into a :class:`TGInstruction`."""
    code = (word0 >> 24) & 0xFF
    try:
        op = TGOp(code)
    except ValueError:
        raise TGError(f"unknown TG opcode {code}") from None
    return TGInstruction(op,
                         a=(word0 >> 16) & 0xFF,
                         b=(word0 >> 8) & 0xFF,
                         cond=word0 & 0xFF,
                         imm=word1 & WORD_MASK)
