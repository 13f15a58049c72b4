"""Cacheloop: idle loops executing entirely from the I-cache (Table 2).

After the first loop iteration fills the instruction cache, the core
generates *no* bus traffic until the final result store.  The paper uses
this benchmark to measure the raw speedup of replacing cores by TGs when
the interconnect is not the bottleneck — the speedup keeps growing with
the number of processors because the bus never saturates.
"""

from repro.apps.common import app_header, require_positive
from repro.ocp.types import WORD_MASK

DEFAULT_ITERS = 2000


def expected_result(iters: int = DEFAULT_ITERS) -> int:
    """Golden loop result (3 increments per iteration)."""
    return (3 * iters) & WORD_MASK


def source(core_id: int, n_cores: int, iters: int = DEFAULT_ITERS) -> str:
    """Assembly for core ``core_id``; all cores run the same loop."""
    require_positive("iters", iters)
    header = app_header(core_id, n_cores)
    return f"""\
{header}
start:
    MOVI r1, 0
    LI r3, {iters}
loop:
    ADDI r1, r1, 1      ; some in-cache ALU work
    ADDI r1, r1, 1
    ADDI r1, r1, 1
    EORI r2, r1, 0x55
    ORRI r2, r2, 0x3
    SUBI r3, r3, 1
    CMPI r3, 0
    BNE loop
    LI r4, result
    STR r1, [r4]
    HALT
result:
    .word 0
"""
