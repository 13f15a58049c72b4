"""SP matrix: single-processor matrix multiplication (Table 2, first row).

C = A × B over ``n × n`` 32-bit matrices held in private (cached) memory,
followed by a checksum pass whose result is written to shared memory.  The
workload exercises cache refills (burst reads), write-through stores and a
long compute phase — the paper's "simplest environment" for validating
accuracy and speedup.
"""

from typing import List

from repro.apps.common import SP_RESULT_OFF, app_header, require_positive
from repro.ocp.types import WORD_MASK

DEFAULT_N = 8


def matrix_a(n: int = DEFAULT_N) -> List[int]:
    """Deterministic input matrix A, row-major."""
    return [((i * 7 + j * 13 + 1) & 0x7FFF) for i in range(n) for j in range(n)]


def matrix_b(n: int = DEFAULT_N) -> List[int]:
    """Deterministic input matrix B, row-major."""
    return [((i * 5 + j * 11 + 2) & 0x7FFF) for i in range(n) for j in range(n)]


def expected_product(n: int = DEFAULT_N) -> List[int]:
    """Golden C = A × B (32-bit wrap-around), row-major."""
    a, b = matrix_a(n), matrix_b(n)
    out = []
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = (acc + a[i * n + k] * b[k * n + j]) & WORD_MASK
            out.append(acc)
    return out


def expected_checksum(n: int = DEFAULT_N) -> int:
    """Golden checksum: 32-bit sum of all C elements."""
    total = 0
    for value in expected_product(n):
        total = (total + value) & WORD_MASK
    return total


def _words_directive(words: List[int]) -> str:
    return "\n".join(f"    .word 0x{w:08x}" for w in words)


def source(core_id: int = 0, n_cores: int = 1, n: int = DEFAULT_N) -> str:
    """Assembly for the (single) core: ``core_id`` 0 of ``n_cores`` 1."""
    if core_id != 0 or n_cores != 1:
        raise ValueError("sp_matrix is a single-processor benchmark")
    require_positive("n", n)
    if n * 4 > 0xFFFF or n * n > 0xFFFF:
        raise ValueError(f"matrix size {n} too large for MOVI immediates")
    header = app_header(core_id, n_cores)
    return f"""\
{header}
.equ N {n}
start:
    LI r1, mat_a
    LI r2, mat_b
    LI r3, mat_c
    MOVI r4, 0          ; i
outer_i:
    MOVI r5, 0          ; j
outer_j:
    MOVI r8, N*4        ; row stride in bytes
    MUL r6, r4, r8
    ADD r6, r6, r1      ; aptr = &A[i][0]
    LSLI r7, r5, 2
    ADD r7, r7, r2      ; bptr = &B[0][j]
    MOVI r9, 0          ; acc
    MOVI r10, N         ; k counter
inner_k:
    LDR r11, [r6]
    LDR r12, [r7]
    MUL r11, r11, r12
    ADD r9, r9, r11
    ADDI r6, r6, 4
    ADDI r7, r7, N*4
    SUBI r10, r10, 1
    CMPI r10, 0
    BNE inner_k
    MUL r11, r4, r8     ; C[i][j] = acc
    ADD r11, r11, r3
    LSLI r12, r5, 2
    ADD r11, r11, r12
    STR r9, [r11]
    ADDI r5, r5, 1
    CMPI r5, N
    BNE outer_j
    ADDI r4, r4, 1
    CMPI r4, N
    BNE outer_i
    ; checksum over C
    LI r1, mat_c
    MOVI r9, 0
    MOVI r10, N*N
checksum:
    LDR r11, [r1]
    ADD r9, r9, r11
    ADDI r1, r1, 4
    SUBI r10, r10, 1
    CMPI r10, 0
    BNE checksum
    LI r2, SHARED+{SP_RESULT_OFF}
    STR r9, [r2]
    HALT
mat_a:
{_words_directive(matrix_a(n))}
mat_b:
{_words_directive(matrix_b(n))}
mat_c:
    .space N*N*4
"""
