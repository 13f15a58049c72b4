"""TG program container and the symbolic ``.tgp`` format.

The ``.tgp`` text mirrors paper Figure 3(b)::

    ; Master Core
    MASTER[0,0]
    MODE reactive
    REGISTER rdreg 0 ; holds value of RD
    REGISTER tempreg 0
    REGISTER addr 0
    REGISTER data 0
    BEGIN
        Idle(11)
        SetRegister(addr, 0x00000104)
        Read(addr)
    Semchk_1:
        Read(addr)
        Idle(3)
        If(rdreg != tempreg) Semchk_1
        Halt
    END

Branch targets are labels in the text and instruction indices in the
in-memory form.  Burst-write data is carried in a data pool declared with
``POOL`` lines before ``BEGIN``.
"""

import re
from typing import Dict, List, Optional

from repro.core.isa import (
    Cond,
    TGError,
    TGInstruction,
    TGOp,
    reg_index,
    reg_name,
)
from repro.core.modes import ReplayMode


class TGProgram:
    """An executable TG program.

    Attributes:
        core_id / thread_id: Identify the master socket this program
            emulates (the ``MASTER[<coreID>,<thrdID>]`` header).
        instructions: The code; branch targets are instruction indices.
        pool: Data words referenced by ``BurstWrite``.
        mode: The :class:`ReplayMode` the translator produced this for.
        labels: Optional pretty names for branch targets (index -> name),
            preserved when emitting ``.tgp`` text.
    """

    def __init__(self, core_id: int = 0, thread_id: int = 0,
                 instructions: Optional[List[TGInstruction]] = None,
                 pool: Optional[List[int]] = None,
                 mode: ReplayMode = ReplayMode.REACTIVE,
                 labels: Optional[Dict[int, str]] = None):
        self.core_id = core_id
        self.thread_id = thread_id
        self.instructions = instructions if instructions is not None else []
        self.pool = pool if pool is not None else []
        self.mode = mode
        self.labels = labels if labels is not None else {}

    # ----------------------------------------------------------- building

    def append(self, instr: TGInstruction) -> int:
        """Add an instruction; returns its index."""
        self.instructions.append(instr)
        return len(self.instructions) - 1

    def label_next(self, name: str) -> int:
        """Name the *next* appended instruction's index."""
        index = len(self.instructions)
        self.labels[index] = name
        return index

    def add_pool(self, words: List[int]) -> int:
        """Append words to the data pool; returns the starting offset."""
        offset = len(self.pool)
        self.pool.extend(words)
        return offset

    def validate(self) -> None:
        """Check every instruction; raises :class:`TGError` on problems."""
        if not self.instructions:
            raise TGError("empty TG program")
        if self.instructions[-1].op not in (TGOp.HALT, TGOp.JUMP):
            raise TGError("program must end with Halt (or a Jump loop)")
        n_instructions, pool_size = len(self.instructions), len(self.pool)
        for instr in self.instructions:
            instr.validate(n_instructions, pool_size)

    # ------------------------------------------------------------ equality

    def __eq__(self, other) -> bool:
        if not isinstance(other, TGProgram):
            return NotImplemented
        return (self.core_id == other.core_id
                and self.thread_id == other.thread_id
                and self.mode == other.mode
                and self.instructions == other.instructions
                and self.pool == other.pool)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return (f"<TGProgram core={self.core_id} {len(self.instructions)} "
                f"instrs, pool={len(self.pool)} words, {self.mode.value}>")

    def stats(self) -> Dict[str, object]:
        """Footprint summary — the "small silicon footprint" the paper
        wants from a hardware TG.

        Returns the instruction histogram, pool size and the instruction-
        memory image size in words/bytes (header + 2 words per
        instruction + pool).
        """
        histogram: Dict[str, int] = {}
        for instr in self.instructions:
            histogram[instr.op.name] = histogram.get(instr.op.name, 0) + 1
        image_words = 5 + 2 * len(self.instructions) + len(self.pool)
        return {
            "instructions": len(self.instructions),
            "histogram": dict(sorted(histogram.items())),
            "pool_words": len(self.pool),
            "image_words": image_words,
            "image_bytes": image_words * 4,
            "labels": len(self.labels),
            "mode": self.mode.value,
        }

    # ---------------------------------------------------------------- text

    def to_tgp(self) -> str:
        """Emit the symbolic ``.tgp`` text."""
        label_for: Dict[int, str] = dict(self.labels)
        for instr in self.instructions:
            if instr.op in (TGOp.IF, TGOp.JUMP) and instr.imm not in label_for:
                label_for[instr.imm] = f"L{instr.imm}"
        lines = [
            "; Master Core",
            f"MASTER[{self.core_id},{self.thread_id}]",
            f"MODE {self.mode.value}",
            "REGISTER rdreg 0 ; holds value of RD",
            "REGISTER tempreg 0",
            "REGISTER addr 0",
            "REGISTER data 0",
        ]
        for start in range(0, len(self.pool), 8):
            chunk = self.pool[start:start + 8]
            lines.append("POOL " + " ".join(f"0x{w:08x}" for w in chunk))
        lines.append("BEGIN")
        for index, instr in enumerate(self.instructions):
            if index in label_for:
                lines.append(f"{label_for[index]}:")
            lines.append(f"    {self._format(instr, label_for)}")
        lines.append("END")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _format(instr: TGInstruction, label_for: Dict[int, str]) -> str:
        op = instr.op
        if op == TGOp.READ_NB:
            return f"ReadNB({reg_name(instr.a)})"
        if op == TGOp.FENCE:
            return "Fence"
        if op == TGOp.READ:
            return f"Read({reg_name(instr.a)})"
        if op == TGOp.WRITE:
            return f"Write({reg_name(instr.a)}, {reg_name(instr.b)})"
        if op == TGOp.BURST_READ:
            return f"BurstRead({reg_name(instr.a)}, {instr.b})"
        if op == TGOp.BURST_WRITE:
            return (f"BurstWrite({reg_name(instr.a)}, {instr.b}, "
                    f"pool+{instr.imm})")
        if op == TGOp.SET_REGISTER:
            return f"SetRegister({reg_name(instr.a)}, 0x{instr.imm:08x})"
        if op == TGOp.IDLE:
            return f"Idle({instr.imm})"
        if op == TGOp.IF:
            return (f"If({reg_name(instr.a)} {Cond(instr.cond).symbol} "
                    f"{reg_name(instr.b)}) {label_for[instr.imm]}")
        if op == TGOp.JUMP:
            return f"Jump({label_for[instr.imm]})"
        return "Halt"


_INSTR_RES = {
    "read_nb": re.compile(r"^ReadNB\((\w+)\)$"),
    "fence": re.compile(r"^Fence$"),
    "read": re.compile(r"^Read\((\w+)\)$"),
    "write": re.compile(r"^Write\((\w+),\s*(\w+)\)$"),
    "burst_read": re.compile(r"^BurstRead\((\w+),\s*(\d+)\)$"),
    "burst_write": re.compile(r"^BurstWrite\((\w+),\s*(\d+),\s*pool\+(\d+)\)$"),
    "set_register": re.compile(r"^SetRegister\((\w+),\s*(0x[0-9a-fA-F]+|\d+)\)$"),
    "idle": re.compile(r"^Idle\((\d+)\)$"),
    "if": re.compile(r"^If\((\w+)\s*(==|!=|<=|>=|<|>)\s*(\w+)\)\s+(\S+)$"),
    "jump": re.compile(r"^Jump\((\S+)\)$"),
    "halt": re.compile(r"^Halt$"),
}
_MASTER_RE = re.compile(r"^MASTER\[(\d+),(\d+)\]$")
_LABEL_RE = re.compile(r"^([A-Za-z_][\w.]*):$")


def parse_tgp(text: str) -> TGProgram:
    """Parse ``.tgp`` text back into a :class:`TGProgram`."""
    program = TGProgram()
    in_body = False
    pending_labels: List[str] = []
    label_indices: Dict[str, int] = {}
    fixups: List[tuple] = []  # (instruction index, label)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].strip()
        if not line:
            continue
        if not in_body:
            match = _MASTER_RE.match(line)
            if match:
                program.core_id = int(match.group(1))
                program.thread_id = int(match.group(2))
                continue
            if line.startswith("MODE"):
                tokens = line.split()
                if len(tokens) != 2:
                    raise TGError(f"line {line_no}: MODE needs one value")
                try:
                    program.mode = ReplayMode.from_name(tokens[1])
                except ValueError as error:
                    raise TGError(f"line {line_no}: {error}") from None
                continue
            if line.startswith("REGISTER"):
                continue  # declarative only; registers always reset to 0
            if line.startswith("POOL"):
                try:
                    program.pool.extend(int(tok, 0)
                                        for tok in line.split()[1:])
                except ValueError:
                    raise TGError(
                        f"line {line_no}: bad POOL word in {line!r}"
                    ) from None
                continue
            if line == "BEGIN":
                in_body = True
                continue
            raise TGError(f"line {line_no}: unexpected header line {line!r}")
        if line == "END":
            break
        match = _LABEL_RE.match(line)
        if match:
            pending_labels.append(match.group(1))
            continue
        instr = _parse_instruction(line, line_no, fixups,
                                   len(program.instructions))
        for label in pending_labels:
            if label in label_indices:
                raise TGError(f"line {line_no}: duplicate label {label!r}")
            label_indices[label] = len(program.instructions)
            program.labels[len(program.instructions)] = label
        pending_labels = []
        program.append(instr)

    for index, label in fixups:
        if label not in label_indices:
            raise TGError(f"undefined label {label!r}")
        old = program.instructions[index]
        program.instructions[index] = old._replace(imm=label_indices[label])
    program.validate()
    return program


def _parse_instruction(line: str, line_no: int, fixups: List[tuple],
                       index: int) -> TGInstruction:
    match = _INSTR_RES["read_nb"].match(line)
    if match:
        return TGInstruction(TGOp.READ_NB, a=reg_index(match.group(1)))
    match = _INSTR_RES["fence"].match(line)
    if match:
        return TGInstruction(TGOp.FENCE)
    match = _INSTR_RES["read"].match(line)
    if match:
        return TGInstruction(TGOp.READ, a=reg_index(match.group(1)))
    match = _INSTR_RES["write"].match(line)
    if match:
        return TGInstruction(TGOp.WRITE, a=reg_index(match.group(1)),
                             b=reg_index(match.group(2)))
    match = _INSTR_RES["burst_read"].match(line)
    if match:
        return TGInstruction(TGOp.BURST_READ, a=reg_index(match.group(1)),
                             b=int(match.group(2)))
    match = _INSTR_RES["burst_write"].match(line)
    if match:
        return TGInstruction(TGOp.BURST_WRITE, a=reg_index(match.group(1)),
                             b=int(match.group(2)), imm=int(match.group(3)))
    match = _INSTR_RES["set_register"].match(line)
    if match:
        return TGInstruction(TGOp.SET_REGISTER, a=reg_index(match.group(1)),
                             imm=int(match.group(2), 0))
    match = _INSTR_RES["idle"].match(line)
    if match:
        return TGInstruction(TGOp.IDLE, imm=int(match.group(1)))
    match = _INSTR_RES["if"].match(line)
    if match:
        fixups.append((index, match.group(4)))
        return TGInstruction(TGOp.IF, a=reg_index(match.group(1)),
                             b=reg_index(match.group(3)),
                             cond=int(Cond.from_symbol(match.group(2))))
    match = _INSTR_RES["jump"].match(line)
    if match:
        fixups.append((index, match.group(1)))
        return TGInstruction(TGOp.JUMP)
    match = _INSTR_RES["halt"].match(line)
    if match:
        return TGInstruction(TGOp.HALT)
    raise TGError(f"line {line_no}: cannot parse instruction {line!r}")
