"""Synthetic-traffic generator: determinism, load accuracy, validation."""

import math

import pytest

from repro.apps.synthetic import (
    PATTERNS,
    TrafficSpec,
    TrafficSpecError,
    generate,
    generate_programs,
    parse_cdf,
    synthetic_flow,
)
from repro.core.assembler import assemble_binary
from repro.platform.config import (
    PRIVATE_STRIDE,
    SHARED_BASE,
)


def spec(**overrides):
    defaults = dict(n_cores=4, pattern="uniform", transactions=30,
                    load=0.5, seed=3)
    defaults.update(overrides)
    return TrafficSpec(**defaults)


class TestDeterminism:
    def test_same_spec_same_bytes(self):
        first = generate_programs(spec())
        second = generate_programs(spec())
        for core in first:
            assert first[core].to_tgp() == second[core].to_tgp()
            assert assemble_binary(first[core]) \
                == assemble_binary(second[core])

    def test_seed_changes_programs(self):
        baseline = generate_programs(spec())
        reseeded = generate_programs(spec(seed=99))
        assert any(baseline[c].to_tgp() != reseeded[c].to_tgp()
                   for c in baseline)

    def test_round_trip_through_dict(self):
        original = spec(pattern="hotspot", hot_weight=8.0,
                        burst={"on": 5, "off": 50})
        rebuilt = TrafficSpec.from_dict(original.to_dict())
        for core in range(original.n_cores):
            assert generate_programs(original)[core].to_tgp() \
                == generate_programs(rebuilt)[core].to_tgp()


class TestPatterns:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_generates_valid_programs(self, pattern):
        n = 4                      # valid for every pattern
        programs, report = generate(spec(n_cores=n, pattern=pattern))
        assert set(programs) == set(range(n))
        for core, program in programs.items():
            assert assemble_binary(program)  # validates + encodes
            assert report[core]["transactions"] == 30

    def test_neighbor_targets_next_core(self):
        programs = generate_programs(spec(pattern="neighbor",
                                          read_fraction=1.0))
        # every address set on core 0 lands in core 1's private window
        for instr in programs[0].instructions:
            if instr.op.name == "SET_REGISTER" and instr.a == 2:
                assert PRIVATE_STRIDE <= instr.imm < 2 * PRIVATE_STRIDE

    def test_transpose_swaps_id_halves(self):
        programs = generate_programs(
            spec(n_cores=4, pattern="transpose", read_fraction=1.0))
        # 4 cores, 2 id bits: core 1 (0b01) -> core 2 (0b10)
        for instr in programs[1].instructions:
            if instr.op.name == "SET_REGISTER" and instr.a == 2:
                assert 2 * PRIVATE_STRIDE <= instr.imm < 3 * PRIVATE_STRIDE

    def test_bit_complement(self):
        programs = generate_programs(
            spec(n_cores=4, pattern="bit_complement", read_fraction=1.0))
        # core 0 -> core 3
        for instr in programs[0].instructions:
            if instr.op.name == "SET_REGISTER" and instr.a == 2:
                assert 3 * PRIVATE_STRIDE <= instr.imm < 4 * PRIVATE_STRIDE

    def test_uniform_never_targets_self(self):
        programs = generate_programs(spec(read_fraction=1.0,
                                          transactions=100))
        for core, program in programs.items():
            window = (core * PRIVATE_STRIDE,
                      (core + 1) * PRIVATE_STRIDE)
            for instr in program.instructions:
                if instr.op.name == "SET_REGISTER" and instr.a == 2:
                    assert not window[0] <= instr.imm < window[1]

    def test_hotspot_skews_towards_hot_slave(self):
        programs = generate_programs(
            spec(pattern="hotspot", hot_weight=10.0, read_fraction=1.0,
                 transactions=200))
        hot = sum(1 for p in programs.values() for i in p.instructions
                  if i.op.name == "SET_REGISTER" and i.a == 2
                  and i.imm >= SHARED_BASE)
        total = sum(1 for p in programs.values() for i in p.instructions
                    if i.op.name == "SET_REGISTER" and i.a == 2)
        # hot weight 10 vs 3 ordinary slaves: expect ~77%, assert >50%
        assert hot / total > 0.5


class TestOfferedLoad:
    @pytest.mark.parametrize("load", [0.1, 0.25, 0.5, 0.9])
    def test_scheduled_load_matches_spec(self, load):
        _, report = generate(spec(load=load, transactions=200))
        for entry in report:
            assert entry["scheduled_load"] == pytest.approx(load,
                                                            rel=0.02)

    def test_full_load_has_no_idle(self):
        _, report = generate(spec(load=1.0))
        assert all(entry["idle_cycles"] == 0 for entry in report)

    def test_realised_load_matches_on_uncontended_fabric(self):
        # all-read traffic at light load on TLM: the realised-load
        # accounting is exact, so it must track the offered load closely
        result = synthetic_flow(
            spec(load=0.2, read_fraction=1.0, transactions=100), "tlm")
        assert result.realised_load == pytest.approx(0.2, rel=0.05)
        assert result.scheduled_load == pytest.approx(0.2, rel=0.05)

    def test_saturation_latency_is_monotone(self):
        latencies = []
        for load in (0.1, 0.5, 0.9):
            result = synthetic_flow(
                spec(pattern="hotspot", load=load, transactions=100),
                "tlm")
            latencies.append(result.latency_avg)
        assert latencies == sorted(latencies)

    def test_burst_phases_add_off_cycles(self):
        _, report = generate(spec(burst={"on": 5, "off": 100}))
        for entry in report:
            # 30 transactions, a 100-cycle off phase after every 5th
            # except the last boundary
            assert entry["burst_off_cycles"] == 100 * 5


class TestCdf:
    GOOD = "64 40\n128 80\n256 100\n"

    def test_parse_good(self):
        points = parse_cdf(self.GOOD)
        assert points == [(64.0, 40.0), (128.0, 80.0), (256.0, 100.0)]

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n64 40  # inline\n256 100\n"
        assert len(parse_cdf(text)) == 2

    def test_empty_rejected(self):
        with pytest.raises(TrafficSpecError):
            parse_cdf("# only comments\n")

    def test_unsorted_rejected(self):
        with pytest.raises(TrafficSpecError):
            parse_cdf("128 50\n64 100\n")

    def test_decreasing_percent_rejected(self):
        with pytest.raises(TrafficSpecError):
            parse_cdf("64 80\n128 40\n256 100\n")

    def test_unnormalised_rejected(self):
        with pytest.raises(TrafficSpecError):
            parse_cdf("64 40\n128 90\n")

    def test_bad_field_count_rejected(self):
        with pytest.raises(TrafficSpecError) as info:
            parse_cdf("64 40 extra\n")
        assert info.value.line == 1

    def test_non_numeric_rejected(self):
        with pytest.raises(TrafficSpecError):
            parse_cdf("sixty-four 40\n")

    def test_negative_size_rejected(self):
        with pytest.raises(TrafficSpecError):
            parse_cdf("-4 100\n")

    def test_cdf_sizes_drawn_in_range(self):
        sizes = spec(size={"kind": "cdf",
                           "points": [[64, 40], [128, 80], [256, 100]]})
        _, report = generate(sizes.replace(transactions=100))
        # word counts bounded by the largest CDF size (256 B = 64 words)
        for program in generate_programs(sizes).values():
            for instr in program.instructions:
                if instr.op.name in ("BURST_READ", "BURST_WRITE"):
                    assert 2 <= instr.b <= 64

    def test_cdf_file_round_trips_inline(self, tmp_path):
        path = tmp_path / "sizes.cdf"
        path.write_text(self.GOOD)
        original = spec(size={"kind": "cdf", "file": str(path)})
        data = original.to_dict()
        assert data["size"]["points"]   # points embedded
        path.unlink()                   # file gone — dict still works
        rebuilt = TrafficSpec.from_dict(data)
        assert generate_programs(original)[0].to_tgp() \
            == generate_programs(rebuilt)[0].to_tgp()


class TestCdfChecks:
    """Inline points are checked as a CDF file's lines are, and every
    number must be finite."""

    @pytest.mark.parametrize("points", [
        [[128, 50], [64, 100]], [[64, 10], [128, 20]], [[-64, 100]],
        [[math.nan, 100]], [[math.inf, 100]], [[64, math.nan]], [[64]],
        "64 100",
    ], ids=["unsorted", "not-normalised", "negative-size", "nan-size",
            "inf-size", "nan-percent", "no-percent", "not-a-list"])
    def test_bad_inline_points_rejected(self, points):
        with pytest.raises(TrafficSpecError):
            spec(size={"kind": "cdf", "points": points})

    def test_inline_error_names_the_point(self):
        with pytest.raises(TrafficSpecError) as info:
            spec(size={"kind": "cdf", "points": [[64, 50], [32, 100]]})
        assert str(info.value).startswith("size.points[1]: ")

    @pytest.mark.parametrize("text", ["nan 50\n64 100\n", "inf 100\n",
                                      "64 nan\n"])
    def test_non_finite_file_values_rejected(self, text):
        with pytest.raises(TrafficSpecError) as info:
            parse_cdf(text)
        assert info.value.line == 1

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_hot_weight_must_be_finite(self, weight):
        with pytest.raises(TrafficSpecError):
            spec(pattern="hotspot", hot_weight=weight)


class TestValidation:
    def test_rejects_single_core(self):
        with pytest.raises(TrafficSpecError):
            TrafficSpec(n_cores=1)

    def test_rejects_unknown_pattern(self):
        with pytest.raises(TrafficSpecError):
            spec(pattern="tornado")

    def test_transpose_needs_square_count(self):
        with pytest.raises(TrafficSpecError):
            spec(n_cores=8, pattern="transpose")
        spec(n_cores=4, pattern="transpose")      # fine

    def test_bit_complement_needs_pow2(self):
        with pytest.raises(TrafficSpecError):
            spec(n_cores=6, pattern="bit_complement")

    def test_rejects_bad_load(self):
        for load in (0.0, -0.5, 1.5):
            with pytest.raises(TrafficSpecError):
                spec(load=load)

    def test_rejects_bad_burst(self):
        with pytest.raises(TrafficSpecError):
            spec(burst={"on": 0, "off": 10})
        with pytest.raises(TrafficSpecError):
            spec(burst={"on": 5, "off": -1})
        with pytest.raises(TrafficSpecError):
            spec(burst={"on": 5, "off": 10, "extra": 1})

    def test_rejects_bad_hot_target(self):
        with pytest.raises(TrafficSpecError):
            spec(hot_target=99)
        with pytest.raises(TrafficSpecError):
            spec(hot_target="hottest")

    def test_rejects_unknown_keys(self):
        with pytest.raises(TrafficSpecError):
            TrafficSpec.from_dict({"n_cores": 4, "patern": "uniform"})

    def test_rejects_oversized_fixed_words(self):
        with pytest.raises(TrafficSpecError):
            spec(size={"kind": "fixed", "words": 256})


class TestSimulation:
    @pytest.mark.parametrize("fabric", ["ahb", "xpipes", "tlm"])
    def test_runs_on_every_fabric(self, fabric):
        result = synthetic_flow(spec(transactions=20), fabric)
        assert result.status == "ok"
        assert result.issued == 4 * 20
        assert result.tg_cycles > 0
        assert result.latency_max >= result.latency_avg > 0

    def test_summary_is_picklable_scalars(self):
        import pickle
        result = synthetic_flow(spec(transactions=10), "tlm")
        summary = result.summary()
        assert pickle.loads(pickle.dumps(summary)) == summary
        assert summary["pattern"] == "uniform"
        assert summary["offered_load"] == 0.5


class TestCdfClampToMinimum:
    """Regression: inverse-transform draws landing in the first bin
    interpolated from an implicit (0, 0) origin, producing sizes *below*
    the distribution's recorded minimum (the empirical data says those
    never occur).  Samples must clamp to the first recorded size."""

    class _FixedRng:
        def __init__(self, u):
            self.u = u

        def uniform(self, lo, hi):
            return self.u

    def _sampler(self, points):
        from repro.apps.synthetic import _CdfSize
        return _CdfSize(points)

    def test_first_bin_draw_clamps_to_min_size(self):
        sampler = self._sampler([(64, 50), (128, 100)])
        # u=1 interpolates to 64*1/50 = 1.28 bytes without the clamp
        assert sampler.sample(self._FixedRng(1.0)) == 16  # 64 B = 16 words

    def test_draw_at_zero_percent_clamps(self):
        sampler = self._sampler([(64, 50), (128, 100)])
        assert sampler.sample(self._FixedRng(0.0)) == 16

    def test_zero_probability_leading_point_no_zero_division(self):
        sampler = self._sampler([(32, 0), (64, 100)])
        assert sampler.sample(self._FixedRng(0.0)) == 8   # 32 B = 8 words
        assert sampler.sample(self._FixedRng(100.0)) == 16

    def test_duplicate_percent_points_no_zero_division(self):
        sampler = self._sampler([(64, 40), (128, 40), (256, 100)])
        assert sampler.sample(self._FixedRng(40.0)) == 16
        assert sampler.sample(self._FixedRng(100.0)) == 64

    def test_every_sample_is_at_least_the_distribution_minimum(self):
        import random

        sampler = self._sampler([(64, 40), (128, 80), (256, 100)])
        rng = random.Random(12345)
        for _ in range(2000):
            assert sampler.sample(rng) >= 16  # 64 B minimum

    def test_generated_bursts_respect_the_minimum(self):
        sizes = spec(size={"kind": "cdf",
                           "points": [[64, 50], [256, 100]]},
                     transactions=80)
        for program in generate_programs(sizes).values():
            for instr in program.instructions:
                if instr.op.name in ("BURST_READ", "BURST_WRITE"):
                    assert instr.b >= 16
