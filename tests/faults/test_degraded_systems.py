"""Fault injection in live systems: perturbed fabrics, lost wakeups,
livelock detection, and seeded-run reproducibility."""

import pytest

from repro.faults import FaultInjector, FaultSpec
from repro.kernel import LivelockError, Simulator
from repro.memory.semaphore import SEM_FREE

from tests.helpers import TinySystem

pytestmark = pytest.mark.faults


def reads_script(port, addrs):
    def script(p):
        for addr in addrs:
            yield from p.read(addr)
    return script(port)


def run_reads(fabric_kind, spec=None, seed=0, n=40):
    system = TinySystem(fabric_kind, masters=1)
    if spec is not None:
        system.fabric.fault_injector = FaultInjector(
            FaultSpec.from_dict(spec), seed)
    addrs = [(i % 16) * 4 for i in range(n)]
    system.sim.spawn(reads_script(system.ports[0], addrs), name="reader")
    return system.run(), system


class TestLinkFaults:
    JITTER = {"link_faults": [{"jitter": 3, "stall_probability": 0.1,
                               "stall_cycles": 15}]}

    @pytest.mark.parametrize("fabric_kind", ["ahb", "tlm", "stbus", "xpipes"])
    def test_jitter_slows_every_fabric(self, fabric_kind):
        healthy_end, _ = run_reads(fabric_kind)
        degraded_end, system = run_reads(fabric_kind, self.JITTER, seed=3)
        counters = system.fabric.fault_injector.counters
        assert counters["hop_faults_injected"] > 0
        assert counters["hop_delay_cycles"] > 0
        assert degraded_end > healthy_end

    @pytest.mark.parametrize("fabric_kind", ["ahb", "xpipes"])
    def test_seeded_run_reproducible(self, fabric_kind):
        end1, sys1 = run_reads(fabric_kind, self.JITTER, seed=11)
        end2, sys2 = run_reads(fabric_kind, self.JITTER, seed=11)
        assert end1 == end2
        assert sys1.fabric.fault_injector.counters == \
            sys2.fabric.fault_injector.counters

    def test_different_seed_different_schedule(self):
        end1, _ = run_reads("ahb", self.JITTER, seed=1)
        end2, _ = run_reads("ahb", self.JITTER, seed=2)
        assert end1 != end2


class TestSemaphoreFaults:
    def sem_script(self, port, sems, release=True):
        def script(p):
            addr = sems.semaphore_addr(0)
            value = yield from p.read(addr)       # test-and-set acquire
            assert value == SEM_FREE
            if release:
                yield from p.write(addr, SEM_FREE)
        return script(port)

    def _system(self, spec, seed=0):
        system = TinySystem("ahb", masters=1)
        system.sems.fault_injector = FaultInjector(
            FaultSpec.from_dict(spec), seed)
        return system

    def test_release_dropped(self):
        spec = {"semaphore_faults": [{"drop_probability": 1.0,
                                      "max_drops": 1}]}
        system = self._system(spec)
        system.sim.spawn(self.sem_script(system.ports[0], system.sems))
        system.run()
        assert system.sems.releases_dropped == 1
        assert not system.sems.is_free(0)  # the lost release never landed

    def test_release_delayed_then_lands(self):
        spec = {"semaphore_faults": [{"delay_probability": 1.0,
                                      "delay_cycles": 30}]}
        system = self._system(spec)
        system.sim.spawn(self.sem_script(system.ports[0], system.sems))
        end = system.run()
        assert system.sems.releases_delayed == 1
        assert system.sems.is_free(0)      # landed, just late
        assert end >= 30                   # the delayed store was simulated

    def test_drop_budget_spares_later_releases(self):
        from repro.memory.semaphore import SEM_LOCKED
        spec = {"semaphore_faults": [{"drop_probability": 1.0,
                                      "max_drops": 1}]}
        system = self._system(spec)
        results = []

        def script(p):
            addr = system.sems.semaphore_addr(0)
            results.append((yield from p.read(addr)))  # acquire (was free)
            yield from p.write(addr, SEM_FREE)         # release -> dropped
            results.append((yield from p.read(addr)))  # lost wakeup: locked
            yield from p.write(addr, SEM_FREE)         # budget spent: lands
            results.append((yield from p.read(addr)))  # acquirable again

        system.sim.spawn(script(system.ports[0]))
        system.run()
        assert results == [SEM_FREE, SEM_LOCKED, SEM_FREE]
        assert system.sems.releases_dropped == 1


class TestLivelockWatchdog:
    def test_zero_time_spin_detected(self):
        sim = Simulator()

        def spinner():
            while True:
                yield 0

        sim.spawn(spinner(), name="spinner")
        with pytest.raises(LivelockError, match="spinner"):
            sim.run(progress_window=64)

    def test_progressing_run_untouched(self):
        sim = Simulator()

        def worker():
            for _ in range(100):
                yield 1

        sim.spawn(worker(), name="worker")
        assert sim.run(progress_window=2) == 100

    def test_window_validated(self):
        sim = Simulator()
        from repro.kernel.errors import SimulationError
        with pytest.raises(SimulationError, match="progress_window"):
            sim.run(progress_window=0)

    def test_platform_forwards_progress_window(self):
        from repro.platform import MparmPlatform, PlatformConfig
        from repro.core import TGMaster, TGProgram
        from repro.core.isa import TGInstruction, TGOp

        prog = TGProgram()
        prog.append(TGInstruction(TGOp.JUMP, imm=0))  # 1-cycle infinite loop
        platform = MparmPlatform(PlatformConfig(n_masters=1))
        platform.add_master(TGMaster(platform.sim, "tg0", prog))
        # the loop advances time, so the livelock watchdog stays quiet and
        # the run is stopped by the cycle bound instead
        assert platform.run(until=500, progress_window=50) == 500
        assert platform.sim.events_fired == 501  # one per cycle 0..500
