"""Checkpoint harness tests: manager, recipes, auto-checkpointed runs,
restore and fault-campaign branching (fast, synthetic workloads)."""

import json
import os

import pytest

from repro.apps.synthetic import TrafficSpec, generate
from repro.artifacts.errors import EXIT_SNAPSHOT, SnapshotError
from repro.artifacts.header import crc32_hex
from repro.artifacts.snap import load_snap
from repro.core.isa import TGOp
from repro.core.program import parse_tgp
from repro.faults import RetryPolicy
from repro.harness import (
    CheckpointManager,
    branch,
    build_tg_platform,
    checkpointed_run,
    comparable_summary,
    load_snapshot,
    platform_recipe,
    rebuild_platform,
    restore_platform,
    warmup_snapshot,
)
from repro.kernel import CalendarQueue

from tests.helpers import QUEUE_NAMES, kernel, oracle_kernel

SPEC = TrafficSpec.from_dict({"n_cores": 2, "transactions": 30,
                              "pattern": "uniform", "load": 0.4,
                              "seed": 11})
FAULTS = {"slave_errors": [{"slave": "shared", "probability": 0.2}]}
RETRY = RetryPolicy(max_attempts=4, backoff=2, backoff_factor=2,
                    on_exhaust="degrade")


def _programs():
    programs, _ = generate(SPEC)
    return programs


def _recipe(overrides=None, retry_policy=None):
    return platform_recipe(_programs(), 2, "ahb", overrides,
                           retry_policy=retry_policy)


def _platform(overrides=None, retry_policy=None):
    return build_tg_platform(_programs(), 2, "ahb", overrides,
                             retry_policy=retry_policy)


def _legacy_snapshot(platform, name):
    """``platform.snapshot`` as saved while the kernel engine was
    selectable: the payload and its recipe name the engine."""
    payload = platform.snapshot(_recipe({"backend": name}))
    payload["backend"] = name
    return json.loads(json.dumps(payload))


class TestCheckpointManager:

    def test_atomic_save_and_latest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=3)
        assert manager.latest() is None
        platform = _platform()
        platform.run(until=100)
        path = manager.save(platform.snapshot(_recipe()))
        assert os.path.exists(path)
        assert manager.latest() == path
        assert not any(name.endswith(".tmp")
                       for name in os.listdir(tmp_path))
        # the artifact is a verified .snap
        assert load_snap(path).value["cycle"] == platform.sim.now

    def test_retention_prunes_oldest(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        platform = _platform()
        paths = []
        for until in (50, 120, 190):
            platform.run(until=until)
            paths.append(manager.save(platform.snapshot(_recipe())))
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 2
        assert os.path.basename(paths[0]) not in names
        assert manager.latest() == paths[-1]

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(SnapshotError):
            CheckpointManager(tmp_path, keep=0)

    def test_open_removes_own_temp_files(self, tmp_path):
        leftovers = ["ckpt-000000000400.snap.tmp",             # old naming
                     "ckpt-000000000800.snap.0123456789ab.tmp"]
        foreign = "other-000000000400.snap.0123456789ab.tmp"
        for name in leftovers + [foreign]:
            (tmp_path / name).write_text("torn")
        manager = CheckpointManager(tmp_path)
        assert os.listdir(tmp_path) == [foreign]
        assert manager.latest() is None

    def test_latest_never_returns_a_temp_file(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        platform = _platform()
        platform.run(until=100)
        path = manager.save(platform.snapshot(_recipe()))
        (tmp_path / "ckpt-999999999999.snap.0123456789ab.tmp").write_text(
            "torn")
        assert manager.latest() == path

    def test_lexicographic_equals_cycle_order(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep=10)
        platform = _platform()
        platform.run(until=80)
        first = manager.save(platform.snapshot(_recipe()))
        platform.run(until=200)
        second = manager.save(platform.snapshot(_recipe()))
        assert sorted([first, second]) == [first, second]


class TestCheckpointedRun:

    @pytest.mark.parametrize("queue", QUEUE_NAMES)
    def test_matches_uninterrupted_run(self, tmp_path, queue):
        with kernel(queue):
            base = _platform()
            base.run()
            manager = CheckpointManager(tmp_path, keep=2)
            platform = _platform()
            checkpointed_run(platform, _recipe(), manager, every=100)
        assert comparable_summary(platform.stats_summary()) \
            == comparable_summary(base.stats_summary())
        if queue == "classic":
            # the oracle samples per push, so even the structural
            # counters cannot tell a checkpointed run apart
            assert platform.stats_summary() == base.stats_summary()
        assert manager.latest() is not None

    def test_cadence_validated(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(SnapshotError):
            checkpointed_run(_platform(), _recipe(), manager, every=0)

    def test_idle_gap_longer_than_cadence_terminates(self, tmp_path):
        """Regression: a segment whose next event lies past its boundary
        fired nothing, so the run re-saved the same snapshot forever."""

        class BoundedManager(CheckpointManager):
            saves = 0

            def save(self, payload):
                BoundedManager.saves += 1
                if BoundedManager.saves > 50:
                    raise AssertionError("checkpointed_run stopped "
                                         "making progress")
                return super().save(payload)

        sparse = TrafficSpec.from_dict({"n_cores": 2, "transactions": 6,
                                        "pattern": "uniform",
                                        "load": 0.05, "seed": 11})
        programs, _ = generate(sparse)
        gaps = [instr.imm for program in programs.values()
                for instr in program.instructions
                if instr.op.name == "IDLE"]
        assert max(gaps) > 10
        base = build_tg_platform(programs, 2, "ahb")
        base.run()
        recipe = platform_recipe(programs, 2, "ahb")
        manager = BoundedManager(tmp_path, keep=50)
        platform = build_tg_platform(programs, 2, "ahb")
        checkpointed_run(platform, recipe, manager, every=10)
        end = comparable_summary(base.stats_summary())
        assert comparable_summary(platform.stats_summary()) == end
        snaps = sorted(tmp_path.glob("*.snap"))
        assert snaps
        for path in snaps:
            restored = restore_platform(load_snapshot(path))
            restored.run()
            assert comparable_summary(restored.stats_summary()) == end


class TestRestorePlatform:

    @pytest.mark.parametrize("queue", QUEUE_NAMES)
    def test_bit_identical_continuation(self, tmp_path, queue):
        with kernel(queue):
            base = _platform()
            base.run()

            platform = _platform()
            platform.run(until=150)
            payload = platform.snapshot(_recipe())

            restored = restore_platform(payload)
            assert restored.sim.now == payload["cycle"]
            assert restored.sim.events_fired \
                == payload["kernel"]["events_fired"]
            restored.run()
        assert comparable_summary(restored.stats_summary()) \
            == comparable_summary(base.stats_summary())

    def test_cross_backend_continuation(self):
        """Snapshots saved under either engine name — ``"classic"``
        captured on the heap oracle, ``"fast"`` on the calendar queue —
        continue bit-identically on the one engine."""
        base = _platform()
        base.run()
        for name in QUEUE_NAMES:
            with kernel(name):
                platform = _platform()
                platform.run(until=150)
            restored = restore_platform(_legacy_snapshot(platform, name))
            assert type(restored.sim._queue) is CalendarQueue
            restored.run()
            assert comparable_summary(restored.stats_summary()) \
                == comparable_summary(base.stats_summary())

    def test_roundtrip_through_disk(self, tmp_path):
        platform = _platform()
        platform.run(until=150)
        manager = CheckpointManager(tmp_path)
        path = manager.save(platform.snapshot(_recipe()))
        payload = load_snapshot(path)
        restored = restore_platform(payload)
        restored.run()
        assert restored.all_finished

    def test_missing_recipe_is_typed(self):
        platform = _platform()
        platform.run(until=100)
        payload = platform.snapshot()            # no recipe embedded
        with pytest.raises(SnapshotError) as excinfo:
            restore_platform(payload)
        assert "no embedded platform recipe" in str(excinfo.value)
        assert excinfo.value.exit_code == EXIT_SNAPSHOT

    def test_unparsable_program_is_typed(self):
        platform = _platform()
        platform.run(until=100)
        payload = platform.snapshot(_recipe())
        payload["platform"]["programs"]["0"] = "NOT A PROGRAM @@@"
        with pytest.raises(SnapshotError):
            rebuild_platform(payload["platform"])

    def test_faulted_run_restores_with_matching_spec(self):
        overrides = {"fault_spec": FAULTS, "fault_seed": 5}
        base = _platform(overrides, retry_policy=RETRY)
        base.run()
        base_res = base.resilience_counters().as_dict()

        platform = _platform(overrides, retry_policy=RETRY)
        platform.run(until=150)
        payload = platform.snapshot(
            _recipe(overrides, retry_policy=RETRY))
        restored = restore_platform(payload)
        restored.run()
        assert restored.resilience_counters().as_dict() == base_res
        assert comparable_summary(restored.stats_summary()) \
            == comparable_summary(base.stats_summary())

    def test_spec_mismatched_injector_state_is_typed(self):
        overrides = {"fault_spec": FAULTS, "fault_seed": 5}
        platform = _platform(overrides, retry_policy=RETRY)
        platform.run(until=150)
        payload = platform.snapshot(
            _recipe(overrides, retry_policy=RETRY))
        # forge: recipe claims two slave-error rules, state has one tally
        other = {"slave_errors": [{"slave": "shared", "nth": 3},
                                  {"slave": "priv0", "nth": 5}]}
        payload["platform"]["config_overrides"]["fault_spec"] = other
        with pytest.raises(SnapshotError) as excinfo:
            restore_platform(payload)
        assert "fault spec" in str(excinfo.value)


class TestWarmupSnapshot:

    def test_embeds_the_healthy_recipe_on_the_warmup_fabric(self):
        """The snapshot carries the input recipe with the warm-up fabric
        and without the fault keys — resilience fields included."""
        recipe = platform_recipe(
            _programs(), 2, "ahb", {"fault_spec": FAULTS, "fault_seed": 3},
            retry_policy=RETRY, watchdog_cycles=5000)
        payload = warmup_snapshot(recipe, 150, "tlm")
        assert payload["platform"] == platform_recipe(
            _programs(), 2, "tlm", None, retry_policy=RETRY,
            watchdog_cycles=5000)
        assert recipe["config_overrides"]["fault_seed"] == 3


def _bump_first_idle(program):
    """The program with its first ``Idle`` one cycle longer (same
    instruction count, different ``.tgp`` text)."""
    index = next(i for i, instr in enumerate(program.instructions)
                 if instr.op is TGOp.IDLE)
    instr = program.instructions[index]
    program.instructions[index] = instr._replace(imm=instr.imm + 1)
    return program


def _crc(text):
    return crc32_hex(text.encode("utf-8"))


class TestProgramCrcGuard:
    """A TG refuses a snapshot taken with a different program, whether
    the platform was rebuilt by hand or from an edited recipe."""

    @staticmethod
    def _payload(source):
        if source == "warmup":
            return warmup_snapshot(_recipe(), 150, "ahb")
        platform = _platform()
        platform.run(until=150)
        return platform.snapshot(_recipe())

    @pytest.mark.parametrize("source", ["platform", "warmup"])
    def test_rebuilt_with_a_changed_program(self, source):
        payload = self._payload(source)
        programs = _programs()
        taken = _crc(programs[1].to_tgp())
        _bump_first_idle(programs[1])
        platform = build_tg_platform(programs, 2, "ahb")
        with pytest.raises(SnapshotError) as excinfo:
            platform.apply_snapshot(payload)
        message = str(excinfo.value)
        assert "tg1 was taken with a different program" in message
        assert f"crc32 {taken} != {_crc(programs[1].to_tgp())}" in message

    @pytest.mark.parametrize("source", ["platform", "warmup"])
    def test_edited_recipe_text(self, source):
        payload = self._payload(source)
        text = payload["platform"]["programs"]["1"]
        edited = _bump_first_idle(parse_tgp(text)).to_tgp()
        assert edited != text
        payload["platform"]["programs"]["1"] = edited
        with pytest.raises(SnapshotError) as excinfo:
            restore_platform(payload)
        message = str(excinfo.value)
        assert "tg1 was taken with a different program" in message
        assert f"crc32 {_crc(text)} != {_crc(edited)}" in message


class TestBranch:

    def _warmup_payload(self):
        platform = _platform(retry_policy=RETRY)
        platform.run(until=150)
        return platform.snapshot(_recipe(retry_policy=RETRY)), platform

    def test_branch_arms_fresh_injector(self):
        payload, warm = self._warmup_payload()
        scenario = branch(payload, fault_spec=FAULTS, fault_seed=9)
        assert scenario.fault_injector is not None
        assert scenario.fault_injector.seed == 9
        # warm-up events were not re-simulated
        assert scenario.sim.events_fired == warm.sim.events_fired
        scenario.run()
        assert scenario.all_finished

    def test_branches_differ_only_by_seed(self):
        payload, _ = self._warmup_payload()
        prob_faults = {"slave_errors": [
            {"slave": "shared", "probability": 0.3}]}
        runs = {}
        for seed in (1, 2):
            scenario = branch(payload, fault_spec=prob_faults,
                              fault_seed=seed)
            scenario.run()
            runs[seed] = scenario.resilience_counters().as_dict()
        # deterministic per seed: branching twice reproduces exactly
        again = branch(payload, fault_spec=prob_faults, fault_seed=1)
        again.run()
        assert again.resilience_counters().as_dict() == runs[1]

    def test_plain_branch_continues_healthy_run(self):
        payload, _ = self._warmup_payload()
        base = _platform(retry_policy=RETRY)
        base.run()
        control = branch(payload)
        control.run()
        assert control.stats_summary() == base.stats_summary()

    def test_fault_seed_without_spec_is_typed(self):
        payload, _ = self._warmup_payload()
        with pytest.raises(SnapshotError):
            branch(payload, fault_seed=3)

    def test_branch_onto_other_backend(self):
        """A warm-up captured on the heap oracle and saved with an
        engine name branches onto the calendar-queue engine."""
        with oracle_kernel():
            platform = _platform(retry_policy=RETRY)
            platform.run(until=150)
        payload = platform.snapshot(
            _recipe({"backend": "classic"}, retry_policy=RETRY))
        scenario = branch(payload, fault_spec=FAULTS, fault_seed=2)
        assert type(scenario.sim._queue) is CalendarQueue
        scenario.run()
        assert scenario.all_finished
        reference = branch(self._warmup_payload()[0], fault_spec=FAULTS,
                           fault_seed=2)
        reference.run()
        assert comparable_summary(scenario.stats_summary()) \
            == comparable_summary(reference.stats_summary())


class TestSnapPayloadCanonical:

    def test_dump_is_deterministic(self, tmp_path):
        platform = _platform()
        platform.run(until=100)
        payload = platform.snapshot(_recipe())
        from repro.artifacts.snap import dump_snap
        assert dump_snap(payload) == dump_snap(
            json.loads(json.dumps(payload)))
