"""DES: pipelined block encryption/decryption over shared-memory mailboxes.

A structurally faithful word-level Feistel cipher (see DESIGN.md §5 for the
substitution note): 64-bit blocks as (L, R) word pairs, 16 rounds with a
256-entry S-box table and per-round keys, final half-swap.  Decryption is
the same code with the key schedule reversed, so D(E(x)) = x exactly.

Pipeline structure (the paper's multiprocessor synchronisation stress):

* core 0 reads plaintext blocks from its private table, processes them
  (encrypt), and pushes them into mailbox 0;
* core *i* pops mailbox *i-1*, processes (odd stages decrypt, even stages
  encrypt — so consecutive stage pairs cancel), pushes mailbox *i*;
* the last core stores results to shared memory.

Mailboxes are single-slot: a flag word (in the pollable flag window) plus
a two-word data buffer.  Producers poll for flag==0, consumers for
flag==1 — the polling traffic whose count depends on the interconnect,
i.e. exactly what a reactive TG must regenerate rather than replay.

S-box and key schedule are deterministic formulas shared by the assembly
generator and the Python golden model below.
"""

from typing import List, Tuple

from repro.apps.common import (
    DES_OUTPUT_OFF,
    MBOX_DATA_OFF,
    MBOX_FLAGS_OFF,
    app_header,
    require_positive,
)
from repro.ocp.types import WORD_MASK

DEFAULT_BLOCKS = 6

#: Number of Feistel rounds.
ROUNDS = 16


def sbox() -> List[int]:
    """The 256-entry substitution table (Knuth-hash based, deterministic)."""
    return [((i * 2654435761) + 0x9E3779B9) & WORD_MASK for i in range(256)]


def key_schedule() -> List[int]:
    """The 16 round keys (shared by every stage; odd stages reverse them)."""
    return [((r * 0x0123_4567) ^ 0xA5A5_A5A5) & WORD_MASK for r in range(ROUNDS)]


def plaintext_blocks(blocks: int = DEFAULT_BLOCKS) -> List[Tuple[int, int]]:
    """Deterministic (L, R) input blocks."""
    return [((b * 0x1111_1111 + 7) & WORD_MASK,
             (b * 0x2222_2221 + 3) & WORD_MASK) for b in range(blocks)]


def _rotl16(value: int) -> int:
    return ((value << 16) | (value >> 16)) & WORD_MASK


def feistel_f(x: int, table: List[int]) -> int:
    """Round function: two S-box lookups combined with a half-word rotate."""
    return (table[x & 0xFF] ^ _rotl16(table[(x >> 8) & 0xFF])) & WORD_MASK


def process_block(left: int, right: int, keys: List[int],
                  table: List[int]) -> Tuple[int, int]:
    """Run 16 Feistel rounds then swap halves (golden model)."""
    for key in keys:
        left, right = right, left ^ feistel_f(right ^ key, table)
    return right, left


def encrypt_block(left: int, right: int) -> Tuple[int, int]:
    return process_block(left, right, key_schedule(), sbox())

def decrypt_block(left: int, right: int) -> Tuple[int, int]:
    return process_block(left, right, list(reversed(key_schedule())), sbox())


def stage_keys(stage: int) -> List[int]:
    """Key order for pipeline stage ``stage`` (odd stages decrypt)."""
    keys = key_schedule()
    return list(reversed(keys)) if stage % 2 else keys


def expected_output(n_cores: int,
                    blocks: int = DEFAULT_BLOCKS) -> List[Tuple[int, int]]:
    """Golden pipeline output for ``n_cores`` stages."""
    table = sbox()
    out = []
    for left, right in plaintext_blocks(blocks):
        for stage in range(n_cores):
            left, right = process_block(left, right, stage_keys(stage), table)
        out.append((left, right))
    return out


def _mbox_flag(index: int) -> str:
    return f"SHARED+{MBOX_FLAGS_OFF}+{index * 4}"


def _mbox_data(index: int) -> str:
    return f"SHARED+{MBOX_DATA_OFF}+{index * 16}"


def _words_directive(words: List[int]) -> str:
    return "\n".join(f"    .word 0x{w:08x}" for w in words)


def source(core_id: int, n_cores: int, blocks: int = DEFAULT_BLOCKS) -> str:
    """Assembly for pipeline stage ``core_id`` of ``n_cores``."""
    if n_cores < 2:
        raise ValueError("the DES pipeline needs at least 2 cores")
    require_positive("blocks", blocks)
    header = app_header(core_id, n_cores)
    is_first = core_id == 0
    is_last = core_id == n_cores - 1

    if is_first:
        get_block = """\
    ; load next plaintext block from the private table (r13 = pointer)
    LDR r5, [r13]
    LDR r6, [r13, #4]
    ADDI r13, r13, 8
"""
    else:
        get_block = f"""\
    ; pop mailbox {core_id - 1}
    LI r2, {_mbox_flag(core_id - 1)}
    .align 16           ; keep the poll loop in one I-cache line
recv_poll:
    LDR r3, [r2]
    CMPI r3, 1
    BNE recv_poll
    LI r2, {_mbox_data(core_id - 1)}
    LDR r5, [r2]
    LDR r6, [r2, #4]
    LI r2, {_mbox_flag(core_id - 1)}
    MOVI r3, 0
    STR r3, [r2]
"""

    if is_last:
        put_block = """\
    ; store result block (r13 = output pointer)
    STR r5, [r13]
    STR r6, [r13, #4]
    ADDI r13, r13, 8
"""
    else:
        put_block = f"""\
    ; push mailbox {core_id}
    LI r2, {_mbox_flag(core_id)}
    .align 16           ; keep the poll loop in one I-cache line
send_poll:
    LDR r3, [r2]
    CMPI r3, 0
    BNE send_poll
    LI r2, {_mbox_data(core_id)}
    STR r5, [r2]
    STR r6, [r2, #4]
    LI r2, {_mbox_flag(core_id)}
    MOVI r3, 1
    STR r3, [r2]
"""

    if is_first:
        pointer_init = "    LI r13, plaintext"
    elif is_last:
        pointer_init = f"    LI r13, SHARED+{DES_OUTPUT_OFF}"
    else:
        pointer_init = "    ; middle stage needs no block pointer"

    data_section = ""
    if is_first:
        flat = [w for pair in plaintext_blocks(blocks) for w in pair]
        data_section = f"plaintext:\n{_words_directive(flat)}\n"

    return f"""\
{header}
.equ BLOCKS {blocks}
start:
    LI r9, keys
    LI r10, sbox
{pointer_init}
    LI r0, BLOCKS
block_loop:
{get_block}
    BL process
{put_block}
    SUBI r0, r0, 1
    CMPI r0, 0
    BNE block_loop
    HALT

; ---- process: 16 Feistel rounds + final swap --------------------------
; in/out: r5 = L, r6 = R; preserves r0, r9, r10, r13; clobbers r1-r4,
; r7, r8, r11, r12
process:
    MOV r8, lr
    MOVI r11, {ROUNDS}
    MOV r12, r9
round_loop:
    LDR r1, [r12]       ; round key
    EOR r1, r1, r6      ; x = R ^ K
    BL feistel_f
    MOV r7, r6
    EOR r6, r5, r1      ; R' = L ^ F(x)
    MOV r5, r7          ; L' = old R
    ADDI r12, r12, 4
    SUBI r11, r11, 1
    CMPI r11, 0
    BNE round_loop
    MOV r7, r5          ; final half swap
    MOV r5, r6
    MOV r6, r7
    MOV lr, r8
    RET

; ---- feistel_f: r1 = F(r1); clobbers r2-r4 ----------------------------
feistel_f:
    ANDI r2, r1, 0xFF
    LSLI r2, r2, 2
    ADD r2, r2, r10
    LDR r2, [r2]        ; SBOX[x & 0xFF]
    LSRI r3, r1, 8
    ANDI r3, r3, 0xFF
    LSLI r3, r3, 2
    ADD r3, r3, r10
    LDR r3, [r3]        ; SBOX[(x >> 8) & 0xFF]
    LSLI r4, r3, 16     ; rotl16
    LSRI r3, r3, 16
    ORR r3, r3, r4
    EOR r1, r2, r3
    RET

keys:
{_words_directive(stage_keys(core_id))}
sbox:
{_words_directive(sbox())}
{data_section}"""
