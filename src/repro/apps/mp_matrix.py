"""MP matrix: multiprocessor matrix multiplication over shared memory.

The Table-2 workload that stresses synchronisation and resource contention:

1. core 0 initialises A and B in (uncached) shared memory;
2. **barrier 0** — everyone waits for the data;
3. each core computes the C rows ``core_id, core_id + n, core_id + 2n, …``
   (static strided partition, so addresses/data are interleaving-free) and
   accumulates a private checksum of its rows;
4. each core takes **semaphore 0**, stores its checksum into its own
   per-core slot, releases — realistic lock contention with constant data;
5. **barrier 1** — all partials posted;
6. core 0 sums the partial slots and stores the total.

Every matrix access is an uncached shared-memory transaction, so bus load
grows with the core count and eventually saturates the AHB — reproducing
the paper's observation that congestion first hurts accuracy slightly and
then *improves* it while eating into the TG speedup.
"""

from typing import List

from repro.apps.common import (
    MATRIX_A_OFF,
    MATRIX_B_OFF,
    MATRIX_C_OFF,
    PARTIAL_SUMS_OFF,
    TOTAL_SUM_OFF,
    app_header,
    barrier_wait,
    require_positive,
    sem_acquire,
    sem_release,
)
from repro.ocp.types import WORD_MASK

DEFAULT_N = 8

#: Initialisation formulas (must match the assembly in ``_init_block``).
A_MULT, A_ADD = 7, 3
B_MULT, B_ADD = 5, 11


def matrix_a(n: int = DEFAULT_N) -> List[int]:
    return [(index * A_MULT + A_ADD) & 0x7FFF for index in range(n * n)]


def matrix_b(n: int = DEFAULT_N) -> List[int]:
    return [(index * B_MULT + B_ADD) & 0x7FFF for index in range(n * n)]


def expected_product(n: int = DEFAULT_N) -> List[int]:
    a, b = matrix_a(n), matrix_b(n)
    out = []
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = (acc + a[i * n + k] * b[k * n + j]) & WORD_MASK
            out.append(acc)
    return out


def expected_partials(n_cores: int, n: int = DEFAULT_N) -> List[int]:
    """Golden per-core checksums under the strided row partition."""
    product = expected_product(n)
    partials = []
    for core in range(n_cores):
        total = 0
        for row in range(core, n, n_cores):
            for j in range(n):
                total = (total + product[row * n + j]) & WORD_MASK
        partials.append(total)
    return partials


def expected_total(n_cores: int, n: int = DEFAULT_N) -> int:
    total = 0
    for value in expected_partials(n_cores, n):
        total = (total + value) & WORD_MASK
    return total


def source(core_id: int, n_cores: int, n: int = DEFAULT_N) -> str:
    """Assembly for core ``core_id`` of ``n_cores``."""
    require_positive("n", n)
    header = app_header(core_id, n_cores)
    init = _init_block(n) if core_id == 0 else ""
    reduce_block = _reduce_block(n_cores) if core_id == 0 else ""
    return f"""\
{header}
.equ N {n}
.equ MAT_A SHARED+{MATRIX_A_OFF}
.equ MAT_B SHARED+{MATRIX_B_OFF}
.equ MAT_C SHARED+{MATRIX_C_OFF}
.equ PARTIALS SHARED+{PARTIAL_SUMS_OFF}
.equ TOTAL SHARED+{TOTAL_SUM_OFF}
start:
{init}
{barrier_wait("bar_start", 0, n_cores)}
    ; compute rows CORE_ID, CORE_ID+NPROC, ... of C; r0 = running checksum
    MOVI r0, 0
    MOVI r4, CORE_ID    ; current row
row_loop:
    CMPI r4, N
    BGE rows_done
    MOVI r5, 0          ; j
col_loop:
    LI r1, MAT_A
    MOVI r8, N*4
    MUL r6, r4, r8
    ADD r6, r6, r1      ; aptr = &A[row][0]
    LI r2, MAT_B
    LSLI r7, r5, 2
    ADD r7, r7, r2      ; bptr = &B[0][j]
    MOVI r9, 0          ; acc
    MOVI r10, N
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
    LI r3, MAT_C
    MUL r11, r4, r8
    ADD r11, r11, r3
    LSLI r12, r5, 2
    ADD r11, r11, r12
    STR r9, [r11]       ; C[row][j]
    ADD r0, r0, r9      ; checksum
    ADDI r5, r5, 1
    CMPI r5, N
    BNE col_loop
    ADDI r4, r4, NPROC
    B row_loop
rows_done:
{sem_acquire("sem_poll", 0)}
    LI r12, PARTIALS+CORE_ID*4
    STR r0, [r12]       ; my slot, my deterministic value
{sem_release(0)}
{barrier_wait("bar_done", 1, n_cores)}
{reduce_block}
    HALT
"""


def _init_block(n: int) -> str:
    """Core-0 prologue: fill A and B in shared memory.

    ``A[idx] = (idx*{A_MULT}+{A_ADD}) & 0x7FFF`` and similarly for B —
    formulas chosen to be cheap in armlet assembly.
    """
    return f"""\
    ; initialise A
    LI r1, MAT_A
    MOVI r2, 0          ; idx
    MOVI r3, N*N
init_a:
    MOVI r4, {A_MULT}
    MUL r4, r2, r4
    ADDI r4, r4, {A_ADD}
    LI r5, 0x7FFF
    AND r4, r4, r5
    STR r4, [r1]
    ADDI r1, r1, 4
    ADDI r2, r2, 1
    CMP r2, r3
    BNE init_a
    ; initialise B
    LI r1, MAT_B
    MOVI r2, 0
init_b:
    MOVI r4, {B_MULT}
    MUL r4, r2, r4
    ADDI r4, r4, {B_ADD}
    LI r5, 0x7FFF
    AND r4, r4, r5
    STR r4, [r1]
    ADDI r1, r1, 4
    ADDI r2, r2, 1
    CMP r2, r3
    BNE init_b
"""


def _reduce_block(n_cores: int) -> str:
    """Core-0 epilogue: sum the per-core partial slots into TOTAL."""
    return """\
    LI r1, PARTIALS
    MOVI r2, 0          ; sum
    MOVI r3, NPROC
reduce:
    LDR r4, [r1]
    ADD r2, r2, r4
    ADDI r1, r1, 4
    SUBI r3, r3, 1
    CMPI r3, 0
    BNE reduce
    LI r1, TOTAL
    STR r2, [r1]
"""
