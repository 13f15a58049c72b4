"""TG ISA tests: encoding round-trips and validation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.isa import (
    Cond,
    TGError,
    TGInstruction,
    TGOp,
    TG_NUM_REGS,
    decode_instruction,
    encode_instruction,
    reg_index,
    reg_name,
)
from repro.ocp.types import WORD_MASK


class TestRegisters:
    def test_special_names(self):
        assert reg_name(0) == "rdreg"
        assert reg_name(1) == "tempreg"
        assert reg_name(2) == "addr"
        assert reg_name(3) == "data"
        assert reg_name(7) == "r7"

    def test_reg_index_inverse(self):
        for index in range(16):
            assert reg_index(reg_name(index)) == index

    def test_bad_name(self):
        with pytest.raises(TGError):
            reg_index("bogus")
        with pytest.raises(TGError):
            reg_index("r16")


class TestCond:
    def test_symbols_roundtrip(self):
        for cond in Cond:
            assert Cond.from_symbol(cond.symbol) == cond

    def test_unknown_symbol(self):
        with pytest.raises(TGError):
            Cond.from_symbol("<>")

    @pytest.mark.parametrize("cond,a,b,expected", [
        (Cond.EQ, 5, 5, True), (Cond.EQ, 5, 6, False),
        (Cond.NE, 5, 6, True), (Cond.NE, 5, 5, False),
        (Cond.LT, 4, 5, True), (Cond.LT, 5, 5, False),
        (Cond.GE, 5, 5, True), (Cond.GE, 4, 5, False),
        (Cond.GT, 6, 5, True), (Cond.GT, 5, 5, False),
        (Cond.LE, 5, 5, True), (Cond.LE, 6, 5, False),
    ])
    def test_evaluate(self, cond, a, b, expected):
        assert cond.evaluate(a, b) is expected


#: Registers in range, plus both register bounds.
_REG = st.one_of(st.integers(0, 15), st.sampled_from([-1, 16, 300]))
#: ``b`` is a register or a burst count: cover both sets of bounds.
_REG_OR_COUNT = st.one_of(_REG, st.sampled_from([1, 2, 254, 255, 256]))
#: Small immediates, plus both sides of the 0 and 32-bit bounds.
_IMM = st.one_of(st.integers(-2, 10),
                 st.sampled_from([-1, 0, WORD_MASK, WORD_MASK + 1]))


def _outcome(check, *args):
    """``"ok"``, or the type and message of what ``check`` raised.  A
    plain-int opcode has no ``.name``, so where a message needs one both
    versions raise ``AttributeError``."""
    try:
        check(*args)
    except (TGError, AttributeError) as error:
        return type(error), str(error)
    return "ok"


def _reference_validate(self, n_instructions, pool_size):
    """The loop version of ``TGInstruction.validate``, kept as the
    reference the fast one must match."""
    def check_reg(value, what):
        if not 0 <= value < TG_NUM_REGS:
            raise TGError(f"{self.op.name}: {what} register {value} "
                          f"out of range")

    if self.op in (TGOp.READ, TGOp.WRITE, TGOp.BURST_READ,
                   TGOp.BURST_WRITE, TGOp.READ_NB):
        check_reg(self.a, "address")
    if self.op == TGOp.WRITE:
        check_reg(self.b, "data")
    if self.op in (TGOp.BURST_READ, TGOp.BURST_WRITE):
        if not 2 <= self.b <= 255:
            raise TGError(f"{self.op.name}: burst count {self.b} "
                          f"outside [2, 255]")
    if self.op == TGOp.BURST_WRITE:
        if self.imm < 0 or self.imm + self.b > pool_size:
            raise TGError(f"BURST_WRITE pool range [{self.imm}, "
                          f"{self.imm + self.b}) outside pool of "
                          f"{pool_size} words")
    if self.op == TGOp.SET_REGISTER:
        check_reg(self.a, "destination")
        if not 0 <= self.imm <= WORD_MASK:
            raise TGError(f"SET_REGISTER value 0x{self.imm:x} not 32-bit")
    if self.op == TGOp.IDLE and self.imm < 0:
        raise TGError(f"IDLE cycles must be >= 0, got {self.imm}")
    if self.op == TGOp.IF:
        check_reg(self.a, "left")
        check_reg(self.b, "right")
        if self.cond not in [int(c) for c in Cond]:
            raise TGError(f"IF: bad condition {self.cond}")
    if self.op in (TGOp.IF, TGOp.JUMP):
        if not 0 <= self.imm < n_instructions:
            raise TGError(f"{self.op.name} target {self.imm} outside "
                          f"program of {n_instructions} instructions")


class TestValidation:
    def test_read_register_range(self):
        with pytest.raises(TGError):
            TGInstruction(TGOp.READ, a=16).validate(1, 0)

    def test_burst_count_range(self):
        with pytest.raises(TGError):
            TGInstruction(TGOp.BURST_READ, a=2, b=1).validate(1, 0)
        with pytest.raises(TGError):
            TGInstruction(TGOp.BURST_READ, a=2, b=256).validate(1, 0)

    def test_burst_write_pool_bounds(self):
        instr = TGInstruction(TGOp.BURST_WRITE, a=2, b=4, imm=2)
        with pytest.raises(TGError):
            instr.validate(1, 4)  # needs pool[2:6], pool has 4
        instr.validate(1, 6)

    def test_branch_target_bounds(self):
        with pytest.raises(TGError):
            TGInstruction(TGOp.JUMP, imm=5).validate(5, 0)
        TGInstruction(TGOp.JUMP, imm=4).validate(5, 0)

    def test_if_condition_code(self):
        with pytest.raises(TGError):
            TGInstruction(TGOp.IF, a=0, b=1, cond=99, imm=0).validate(1, 0)

    def test_set_register_value_32bit(self):
        with pytest.raises(TGError):
            TGInstruction(TGOp.SET_REGISTER, a=0,
                          imm=1 << 32).validate(1, 0)

    @pytest.mark.parametrize("op", list(TGOp), ids=[op.name for op in TGOp])
    @settings(max_examples=100, deadline=None)
    @given(as_int=st.booleans(), a=_REG, b=_REG_OR_COUNT,
           cond=st.integers(-2, 8), imm=_IMM, data=st.data())
    def test_validate_matches_reference(self, op, as_int, a, b, cond, imm,
                                        data):
        """The fast validate keeps every check, message and precedence
        of the loop version, for TGOp members and plain ints alike."""
        # small sizes, or ones right at the branch-target and pool bounds
        n_instructions = data.draw(st.one_of(
            st.integers(0, 8), st.sampled_from([imm, imm + 1])))
        pool_size = data.draw(st.one_of(
            st.integers(0, 8), st.sampled_from([imm + b - 1, imm + b])))
        instr = TGInstruction(int(op) if as_int else op, a, b, cond, imm)
        assert (_outcome(instr.validate, n_instructions, pool_size)
                == _outcome(_reference_validate, instr, n_instructions,
                            pool_size))


def _tg_instruction_strategy():
    regs = st.integers(0, 15)
    imm32 = st.integers(0, 0xFFFF_FFFF)
    count = st.integers(2, 255)
    return st.one_of(
        st.builds(lambda a: TGInstruction(TGOp.READ, a=a), regs),
        st.builds(lambda a, b: TGInstruction(TGOp.WRITE, a=a, b=b),
                  regs, regs),
        st.builds(lambda a, c: TGInstruction(TGOp.BURST_READ, a=a, b=c),
                  regs, count),
        st.builds(lambda a, c, i: TGInstruction(TGOp.BURST_WRITE, a=a, b=c,
                                                imm=i),
                  regs, count, imm32),
        st.builds(lambda a, i: TGInstruction(TGOp.SET_REGISTER, a=a, imm=i),
                  regs, imm32),
        st.builds(lambda i: TGInstruction(TGOp.IDLE, imm=i), imm32),
        st.builds(lambda a, b, c, i: TGInstruction(TGOp.IF, a=a, b=b,
                                                   cond=int(c), imm=i),
                  regs, regs, st.sampled_from(list(Cond)), imm32),
        st.builds(lambda i: TGInstruction(TGOp.JUMP, imm=i), imm32),
        st.just(TGInstruction(TGOp.HALT)),
    )


class TestEncoding:
    @given(_tg_instruction_strategy())
    def test_roundtrip(self, instr):
        word0, word1 = encode_instruction(instr)
        assert decode_instruction(word0, word1) == instr

    def test_field_overflow_rejected(self):
        with pytest.raises(TGError):
            encode_instruction(TGInstruction(TGOp.READ, a=256))

    def test_unknown_opcode_rejected(self):
        with pytest.raises(TGError):
            decode_instruction(0xFF << 24, 0)

    def test_repr_smoke(self):
        assert "Read(addr)" == repr(TGInstruction(TGOp.READ, a=2))
        assert "Halt" == repr(TGInstruction(TGOp.HALT))
        assert "!=" in repr(TGInstruction(TGOp.IF, a=0, b=1,
                                          cond=int(Cond.NE), imm=3))
