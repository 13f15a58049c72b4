"""Shared assembly fragments: headers, barriers, semaphore helpers.

The synchronisation idioms here produce exactly the polling patterns the
paper's Section 3 discusses: a tight read/compare/branch loop against a
pollable device, ending with a read whose value satisfies the exit
condition.  The TG translator recognises these at the OCP trace level.
"""

from repro.platform.config import BAR_BASE, SEM_BASE, SHARED_BASE

#: Shared-memory layout used by the multiprocessor apps (byte offsets from
#: SHARED_BASE).  Mailbox *flags* live in their own small window so the
#: translator can mark just that window pollable.
MBOX_FLAGS_OFF = 0x1000
MBOX_DATA_OFF = 0x2000
DES_OUTPUT_OFF = 0x3000
MATRIX_A_OFF = 0x4000
MATRIX_B_OFF = 0x5000
MATRIX_C_OFF = 0x6000
PARTIAL_SUMS_OFF = 0x7000
TOTAL_SUM_OFF = 0x7100
SP_RESULT_OFF = 0x7200


def require_positive(name: str, value: int) -> None:
    """Reject a benchmark parameter below 1 with a ValueError naming it."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def app_header(core_id: int, n_cores: int) -> str:
    """Standard ``.equ`` prologue giving a program its system constants."""
    return f"""\
.equ SHARED {SHARED_BASE}
.equ SEM {SEM_BASE}
.equ BAR {BAR_BASE}
.equ CORE_ID {core_id}
.equ NPROC {n_cores}
"""


def barrier_wait(label: str, counter_index: int, n_cores: int,
                 addr_reg: str = "r12", tmp_reg: str = "r11") -> str:
    """Barrier among ``n_cores`` masters on barrier counter ``counter_index``.

    Each participant atomically adds 1 to the counter, then polls until the
    count reads ``n_cores``.  Distinct phases must use distinct counters
    (the device is never reset mid-run).
    """
    counter_addr = BAR_BASE + counter_index * 8
    return f"""\
    LI {addr_reg}, {counter_addr}
    MOVI {tmp_reg}, 1
    STR {tmp_reg}, [{addr_reg}]
    .align 16           ; keep the poll loop in one I-cache line
{label}:
    LDR {tmp_reg}, [{addr_reg}]
    CMPI {tmp_reg}, {n_cores}
    BNE {label}
"""


def sem_acquire(label: str, sem_index: int,
                addr_reg: str = "r12", tmp_reg: str = "r11") -> str:
    """Spin on hardware semaphore ``sem_index`` until acquired (reads 1)."""
    sem_addr = SEM_BASE + sem_index * 4
    return f"""\
    LI {addr_reg}, {sem_addr}
    .align 16           ; keep the poll loop in one I-cache line
{label}:
    LDR {tmp_reg}, [{addr_reg}]
    CMPI {tmp_reg}, 1
    BNE {label}
"""


def sem_release(sem_index: int,
                addr_reg: str = "r12", tmp_reg: str = "r11") -> str:
    """Release hardware semaphore ``sem_index`` (write 1)."""
    sem_addr = SEM_BASE + sem_index * 4
    return f"""\
    LI {addr_reg}, {sem_addr}
    MOVI {tmp_reg}, 1
    STR {tmp_reg}, [{addr_reg}]
"""


def pollable_ranges(n_cores: int):
    """Address ranges the translator should treat as pollable resources.

    Returns ``(base, size)`` tuples covering the semaphore bank, the
    barrier device and the mailbox-flag window in shared memory.
    """
    from repro.platform.config import (
        DEFAULT_BARRIERS,
        DEFAULT_SEMAPHORES,
    )
    return [
        (SEM_BASE, DEFAULT_SEMAPHORES * 4),
        (BAR_BASE, DEFAULT_BARRIERS * 8),
        (SHARED_BASE + MBOX_FLAGS_OFF, 0x100),
    ]
