"""Unit tests for the observability layer (repro.obs)."""

import io
import json
from dataclasses import asdict

import pytest

from repro.api import parse_record
from repro.cli import main
from repro.experiments.runner import ExperimentContext, RunConfig, run_system
from repro.faults import FaultConfig
from repro.obs import JsonlWriter, TimeSeriesSampler
from repro.perf.spec import result_digest

#: ``meta`` keys every sample carries (DESIGN.md, "Observability").
META_FIELDS = {
    "seq", "t_us", "requests", "gc_invocations", "write_clock",
    "free_blocks",
}
#: Pool fields a final record cannot carry, in ``meta["pool"]``.
POOL_META_FIELDS = {
    "occupancy", "tracked_ppns", "evicted_ppns", "gc_removals",
}
#: The pool stats every record carries, in ``pool``.
POOL_FIELDS = {"lookups", "hits", "hit_rate", "insertions", "evictions"}
MQ_FIELDS = {
    "queue_lengths", "promotions", "demotions", "evictions",
    "hottest_interval",
}


def read_records(path):
    """Every line of a JSONL file, parsed as a ``repro.api/v1`` record."""
    with open(path, encoding="utf-8") as fh:
        return [parse_record(json.loads(line)) for line in fh]


class TestJsonlWriter:
    def test_roundtrip_via_path(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        with JsonlWriter(path) as writer:
            writer.write({"a": 1})
            writer({"b": [1, 2]})
        with open(path, encoding="utf-8") as fh:
            assert [json.loads(line) for line in fh] == [
                {"a": 1}, {"b": [1, 2]},
            ]

    def test_borrowed_stream_stays_open(self):
        stream = io.StringIO()
        writer = JsonlWriter(stream)
        writer.write({"x": 1})
        writer.close()
        assert not stream.closed
        assert json.loads(stream.getvalue()) == {"x": 1}

    def test_records_written_counter(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        with JsonlWriter(path) as writer:
            writer.write({})
            writer.write({})
        assert writer.records_written == 2


class TestSamplerValidation:
    def test_rejects_no_trigger(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(interval_requests=None, interval_us=None)

    def test_rejects_nonpositive_intervals(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(interval_requests=0)
        with pytest.raises(ValueError):
            TimeSeriesSampler(interval_us=-1.0)

    def test_unattached_sampler_raises(self):
        sampler = TimeSeriesSampler(interval_requests=1)
        with pytest.raises(RuntimeError):
            sampler.on_request(1.0)


@pytest.fixture(scope="module")
def obs_run():
    """One small mq-dvp run with a fine-grained sampler attached."""
    context = ExperimentContext.for_workload("mail", 0.02)
    sampler = TimeSeriesSampler(interval_requests=100)
    result = run_system("mq-dvp", context, RunConfig(
        paper_pool_entries=200_000, scale=0.02, observer=sampler,
    ))
    return result, sampler


class TestSamplerSchema:
    def test_samples_produced(self, obs_run):
        _, sampler = obs_run
        assert sampler.sample_count >= 2
        assert len(sampler.samples) == sampler.sample_count

    def test_every_sample_has_the_schema(self, obs_run):
        _, sampler = obs_run
        for seq, sample in enumerate(sampler.samples):
            assert sample.kind == "telemetry.sample"
            assert sample.digest is None
            assert sample.meta["seq"] == seq
            assert META_FIELDS <= set(sample.meta)
            assert POOL_FIELDS <= set(sample.pool)
            assert POOL_META_FIELDS <= set(sample.meta["pool"])
            assert MQ_FIELDS <= set(sample.meta["mq"])
            assert len(sample.meta["mq"]["queue_lengths"]) == 8

    def test_timestamps_and_counts_monotonic(self, obs_run):
        _, sampler = obs_run
        samples = sampler.samples
        for earlier, later in zip(samples, samples[1:]):
            assert later.meta["t_us"] >= earlier.meta["t_us"]
            assert later.meta["requests"] >= earlier.meta["requests"]
            for name, value in later.counters.items():
                assert value >= earlier.counters[name], name

    def test_final_sample_matches_run_result(self, obs_run):
        result, sampler = obs_run
        last = sampler.samples[-1]
        assert last.counters == asdict(result.counters)
        assert last.pool == result.pool_stats
        assert last.horizon_us == result.horizon_us
        assert last.meta["t_us"] == result.horizon_us
        assert last.meta["requests"] == (
            result.reads.count + result.writes.count
        )

    def test_write_amp_is_cumulative_ratio(self, obs_run):
        result, sampler = obs_run
        last = sampler.samples[-1]
        counters = result.counters
        expected = (
            (counters.programs + counters.gc_relocations)
            / counters.host_writes
        )
        assert "write_amp" not in last.meta
        assert last.write_amplification == pytest.approx(expected)

    def test_sample_round_trips_through_parse_record(self, obs_run):
        _, sampler = obs_run
        for sample in sampler.samples:
            assert parse_record(sample.to_dict()) == sample
            assert parse_record(
                json.loads(json.dumps(sample.to_dict()))
            ) == sample

    def test_request_interval_is_respected(self, obs_run):
        _, sampler = obs_run
        gaps = [
            later.meta["requests"] - earlier.meta["requests"]
            for earlier, later in zip(sampler.samples, sampler.samples[1:])
        ]
        # Every gap except the forced end-of-run sample is the interval.
        assert all(gap == 100 for gap in gaps[:-1])


class TestTimeTrigger:
    def test_time_interval_samples_without_request_interval(self):
        context = ExperimentContext.for_workload("mail", 0.02)
        sampler = TimeSeriesSampler(
            interval_requests=None, interval_us=50_000.0
        )
        run_system("mq-dvp", context, RunConfig(
            paper_pool_entries=200_000, scale=0.02, observer=sampler,
        ))
        assert sampler.sample_count >= 2
        for earlier, later in zip(sampler.samples, sampler.samples[1:]):
            assert later.meta["t_us"] >= earlier.meta["t_us"]


class TestDirectReads:
    """Values the sampler reads straight from the pool and fault model."""

    def test_adaptive_pool_fields_and_no_metrics_key(self):
        context = ExperimentContext.for_workload("mail", 0.02)
        sampler = TimeSeriesSampler(interval_requests=500)
        run_system("adaptive-dvp", context, RunConfig(
            paper_pool_entries=200_000, scale=0.02, observer=sampler,
        ))
        last = sampler.samples[-1]
        assert "metrics" not in last.meta
        assert last.meta["write_clock"] > 0
        assert last.meta["gc_invocations"] >= 0
        pool = last.meta["pool"]
        assert {
            "capacity", "capacity_high_water", "resizes_up", "resizes_down",
        } <= set(pool)
        assert pool["capacity_high_water"] >= pool["capacity"]

    def test_mq_pool_has_no_adaptive_fields(self, obs_run):
        _, sampler = obs_run
        last = sampler.samples[-1]
        assert "capacity" in last.meta["pool"]
        assert "resizes_up" not in last.meta["pool"]
        assert last.faults is None
        assert "read_only" not in last.meta

    def test_faults_view_after_crash_matches_result(self):
        context = ExperimentContext.for_workload("mail", 0.02)
        sampler = TimeSeriesSampler(interval_requests=500)
        result = run_system("mq-dvp", context, RunConfig(
            paper_pool_entries=200_000, scale=0.02, observer=sampler,
            faults=FaultConfig(seed=0, crash_after_requests=1000),
        ))
        last = sampler.samples[-1]
        assert last.meta["read_only"] is False
        assert last.meta["spares_remaining"] > 0
        assert last.faults == result.fault_stats
        assert last.faults["recoveries"] == 1


class TestObserverCannotPerturb:
    @pytest.mark.parametrize("system, faults", [
        ("mq-dvp", None),
        ("adaptive-dvp", None),
        ("mq-dvp", FaultConfig(seed=0, crash_after_requests=1000)),
    ])
    def test_observed_digest_equals_unobserved(self, system, faults):
        context = ExperimentContext.for_workload("mail", 0.02)
        config = RunConfig(scale=0.02, faults=faults)
        plain = run_system(system, context, config)
        observed = run_system(system, context, config.replace(
            observer=TimeSeriesSampler(interval_requests=100),
        ))
        assert result_digest(observed) == result_digest(plain)


class TestCliObsFlag:
    def test_run_with_obs_emits_parseable_jsonl(self, tmp_path, capsys):
        path = str(tmp_path / "obs.jsonl")
        code = main([
            "run", "--workload", "mail", "--system", "mq-dvp",
            "--scale", "0.02", "--obs", path, "--obs-interval", "100",
        ])
        assert code == 0
        samples = read_records(path)
        assert len(samples) >= 2
        for sample in samples:
            assert sample.kind == "telemetry.sample"
            assert META_FIELDS <= set(sample.meta)
            assert POOL_FIELDS <= set(sample.pool)
            assert POOL_META_FIELDS <= set(sample.meta["pool"])
            assert "queue_lengths" in sample.meta["mq"]
        times = [s.meta["t_us"] for s in samples]
        assert times == sorted(times)

    def test_last_obs_sample_equals_run_json_record(self, tmp_path, capsys):
        """The last ``--obs`` line is the same run's ``--json`` record,
        field for field, in every part a finished record carries."""
        path = str(tmp_path / "obs.jsonl")
        code = main([
            "run", "--workload", "mail", "--system", "mq-dvp",
            "--scale", "0.02", "--seed", "11",
            "--program-failure-prob", "0.005",
            "--obs", path, "--obs-interval", "100", "--json",
        ])
        assert code == 0
        final = parse_record(json.loads(capsys.readouterr().out))
        last = read_records(path)[-1]
        assert last.faults is not None
        assert last.faults["program_failures"] > 0
        assert last.counters == final.counters
        assert last.pool == final.pool
        assert last.faults == final.faults
        assert last.reads == final.reads
        assert last.writes == final.writes
        assert last.requests == final.requests
        assert last.horizon_us == final.horizon_us

    def test_fleet_obs_lines_parse_as_fleet_records(self, tmp_path, capsys):
        path = str(tmp_path / "fleet.jsonl")
        code = main([
            "fleet", "--workload", "mail", "--system", "mq-dvp",
            "--shards", "2", "--scale", "0.02", "--obs", path,
        ])
        assert code == 0
        kinds = [record.kind for record in read_records(path)]
        assert kinds == ["fleet.shard", "fleet.shard", "fleet"]

    def test_obs_disabled_by_default(self, capsys):
        code = main([
            "run", "--workload", "mail", "--system", "baseline",
            "--scale", "0.02",
        ])
        assert code == 0
        assert "observability" not in capsys.readouterr().err

    def test_profile_prints_layer_table(self, capsys):
        code = main([
            "run", "--workload", "mail", "--system", "mq-dvp",
            "--scale", "0.02", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cProfile self time by layer" in out
        rows = {}
        for line in out.splitlines():
            cells = line.split()
            if len(cells) == 4 and cells[0] in ("ftl", "core"):
                rows[cells[0]] = (int(cells[1]), float(cells[2]))
        for layer in ("ftl", "core"):
            calls, self_s = rows[layer]
            assert calls > 0 and self_s > 0.0
