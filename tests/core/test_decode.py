"""The program decode feeding the TG interpreter (TGMaster._run).

``decode_program`` lowers a TG program once into parallel plain-int
columns; every column must carry exactly the source instruction's field
and every IF row the comparison its condition names, because the
interpreter reads nothing else.
"""

from hypothesis import given, strategies as st

from repro.core.decode import COND_FUNCS, decode_program
from repro.core.isa import Cond, TGInstruction, TGOp
from repro.core.program import TGProgram


def source_columns(program: TGProgram):
    """The decoded columns, read off the instruction tuples one by one."""
    instructions = program.instructions
    return ([int(i.op) for i in instructions], [i.a for i in instructions],
            [i.b for i in instructions], [i.imm for i in instructions])


def full_coverage_program() -> TGProgram:
    """One program touching every field-extraction path."""
    program = TGProgram(core_id=1, thread_id=0)
    program.add_pool([0xDEADBEEF, 0x12345678, 7, 9])
    program.append(TGInstruction(TGOp.SET_REGISTER, a=2, imm=0x8000))
    program.append(TGInstruction(TGOp.SET_REGISTER, a=3, imm=0xCAFE))
    program.append(TGInstruction(TGOp.READ, a=2))
    program.append(TGInstruction(TGOp.WRITE, a=2, b=3))
    program.append(TGInstruction(TGOp.BURST_READ, a=2, b=4))
    program.append(TGInstruction(TGOp.BURST_WRITE, a=2, b=4, imm=0))
    program.append(TGInstruction(TGOp.IDLE, imm=123))
    program.append(TGInstruction(TGOp.IF, a=2, b=3, cond=int(Cond.NE),
                                 imm=0))
    program.append(TGInstruction(TGOp.JUMP, imm=9))
    program.append(TGInstruction(TGOp.HALT))
    return program


class TestLoweringParity:
    def test_columns_match_source_fields(self):
        program = full_coverage_program()
        decoded = decode_program(program)
        assert len(decoded) == len(program.instructions)
        assert decoded.ops == [int(i.op) for i in program.instructions]
        assert decoded.a == [i.a for i in program.instructions]
        assert decoded.b == [i.b for i in program.instructions]
        assert decoded.imm == [i.imm for i in program.instructions]
        assert decoded.pool == list(program.pool)

    def test_cond_column_binds_callables_on_if_rows_only(self):
        decoded = decode_program(full_coverage_program())
        if_index = 7
        assert decoded.conds[if_index] is COND_FUNCS[int(Cond.NE)]
        for index, cond in enumerate(decoded.conds):
            if index != if_index:
                assert cond is None

    @given(st.lists(
        st.one_of(
            st.builds(TGInstruction, st.just(TGOp.IDLE), a=st.just(0),
                      b=st.just(0), cond=st.just(0),
                      imm=st.integers(0, 0xFFFFFFFF)),
            st.builds(TGInstruction, st.just(TGOp.SET_REGISTER),
                      a=st.integers(0, 15), b=st.just(0), cond=st.just(0),
                      imm=st.integers(0, 0xFFFFFFFF)),
            st.builds(TGInstruction, st.just(TGOp.READ),
                      a=st.integers(0, 15), b=st.just(0), cond=st.just(0),
                      imm=st.just(0)),
        ),
        max_size=40))
    def test_lowerings_agree_on_random_programs(self, body):
        """The lowering agrees with the source fields on any program."""
        program = TGProgram(instructions=body
                            + [TGInstruction(TGOp.HALT)])
        decoded = decode_program(program)
        assert (decoded.ops, decoded.a, decoded.b, decoded.imm) \
            == source_columns(program)


class TestFallbacks:
    def test_non_encodable_program_falls_back_to_python(self):
        """An Idle beyond 32 bits cannot be assembled into a binary
        image, but runs fine in memory — the decode is a plain Python
        pass over the instructions and must not raise."""
        program = TGProgram()
        program.append(TGInstruction(TGOp.IDLE, imm=2 ** 40))
        program.append(TGInstruction(TGOp.HALT))
        decoded = decode_program(program)
        assert decoded.imm[0] == 2 ** 40
        assert (decoded.ops, decoded.a, decoded.b, decoded.imm) \
            == source_columns(program)

    def test_cond_funcs_mirror_cond_evaluate(self):
        for cond in Cond:
            func = COND_FUNCS[int(cond)]
            for a, b in ((4, 5), (5, 5), (6, 5)):
                assert func(a, b) is cond.evaluate(a, b)


class TestFastInterpreterGating:
    def test_fast_backend_uses_fast_interpreter(self):
        """Every replay mode runs the one column interpreter, ``_run``."""
        from repro.core import ReplayMode
        from repro.core.tg_master import TGMaster
        from repro.kernel import Simulator

        for mode in ReplayMode:
            program = TGProgram(instructions=[TGInstruction(TGOp.HALT)],
                                mode=mode)
            sim = Simulator()
            master = TGMaster(sim, "tg0", program)
            master.start()
            spawned = [p.generator.gi_code.co_name
                       for p in sim.live_processes]
            assert "_run" in spawned, (mode, spawned)

    def test_cloning_mode_matches_across_backends(self):
        """CLONING replays through the column interpreter too: the heap
        oracle and the calendar engine must agree on it."""
        from repro.apps import cacheloop
        from repro.core import ReplayMode
        from repro.harness import tg_flow
        from tests.helpers import oracle_kernel

        with oracle_kernel():
            oracle = tg_flow(cacheloop, 2, mode=ReplayMode.CLONING,
                             app_params={"iters": 60})
        engine = tg_flow(cacheloop, 2, mode=ReplayMode.CLONING,
                         app_params={"iters": 60})
        assert oracle.tg_cycles == engine.tg_cycles
        assert oracle.tg_events == engine.tg_events
