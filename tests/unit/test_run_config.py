"""RunConfig API redesign: validation, legacy-kwarg deprecation, pool API."""

import pickle

import pytest

from repro.core.adaptive import AdaptiveMQDeadValuePool
from repro.core.dvp import (
    DeadValuePool,
    InfiniteDeadValuePool,
    LBARecencyPool,
    LRUDeadValuePool,
    MQDeadValuePool,
    pool_from_name,
)
from repro.experiments import RunConfig
from repro.experiments.figures import EvaluationMatrix
from repro.experiments.runner import (
    ExperimentContext,
    run_matrix,
    run_system,
)
from repro.faults import FaultConfig
from repro.obs import TimeSeriesSampler
from repro.perf.spec import RunSpec

SCALE = 0.004


@pytest.fixture(scope="module")
def web_context():
    return ExperimentContext.for_workload("web", SCALE)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.paper_pool_entries == 200_000
        assert cfg.jobs == 1
        assert cfg.faults is None
        assert cfg.reuse_prefill

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(paper_pool_entries=0)
        with pytest.raises(ValueError):
            RunConfig(scale=0)
        with pytest.raises(ValueError):
            RunConfig(queue_depth=0)
        with pytest.raises(ValueError):
            RunConfig(jobs=-1)
        with pytest.raises(TypeError):
            RunConfig(faults="nope")  # type: ignore[arg-type]

    def test_replace_returns_new_frozen_copy(self):
        cfg = RunConfig(scale=0.1)
        other = cfg.replace(jobs=4)
        assert other.jobs == 4
        assert other.scale == 0.1
        assert cfg.jobs == 1
        with pytest.raises(Exception):
            cfg.scale = 0.2  # type: ignore[misc]

    def test_picklable_property_and_roundtrip(self):
        cfg = RunConfig(faults=FaultConfig(seed=2, read_error_prob=0.1))
        assert cfg.picklable
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert not cfg.replace(observer=TimeSeriesSampler()).picklable

    def test_runspec_from_config_round_trip(self):
        cfg = RunConfig(
            paper_pool_entries=50_000,
            scale=SCALE,
            queue_depth=8,
            faults=FaultConfig(seed=4),
        )
        spec = RunSpec.from_config("web", "baseline", cfg)
        assert spec.paper_pool_entries == 50_000
        assert spec.scale == SCALE
        assert spec.queue_depth == 8
        assert spec.faults == cfg.faults
        back = spec.run_config()
        assert back.paper_pool_entries == 50_000
        assert back.faults == cfg.faults


class TestLegacyKwargsRemoved:
    """The PR 3 one-release deprecation window is over: the flat kwarg
    surface is gone, and anything but a RunConfig raises TypeError."""

    def test_run_system_rejects_legacy_kwargs(self, web_context):
        with pytest.raises(TypeError):
            run_system("baseline", web_context, paper_pool_entries=100_000)

    def test_run_system_rejects_positional_non_config(self, web_context):
        # Old call shapes: run_system(system, context, pool_entries) and
        # run_system(system, context, scale).
        with pytest.raises(TypeError, match="RunConfig"):
            run_system("baseline", web_context, 100_000)
        with pytest.raises(TypeError, match="RunConfig"):
            run_system("baseline", web_context, SCALE)

    def test_run_system_accepts_config(self, web_context):
        result = run_system(
            "baseline",
            web_context,
            config=RunConfig(paper_pool_entries=100_000, scale=SCALE),
        )
        assert result.counters.host_writes > 0

    def test_run_matrix_rejects_legacy_scale(self):
        with pytest.raises(TypeError):
            run_matrix(["web"], ["baseline"], scale=SCALE)
        with pytest.raises(TypeError, match="RunConfig"):
            run_matrix(["web"], ["baseline"], SCALE)

    def test_evaluation_matrix_rejects_legacy_scale(self):
        with pytest.raises(TypeError):
            EvaluationMatrix(scale=SCALE)
        with pytest.raises(TypeError, match="RunConfig"):
            EvaluationMatrix(SCALE)

    def test_evaluation_matrix_accepts_config_positionally(self):
        matrix = EvaluationMatrix(RunConfig(scale=SCALE, jobs=2))
        assert matrix.scale == SCALE
        assert matrix.jobs == 2


class TestTraceCacheSafety:
    def test_cached_trace_is_immutable(self):
        context = ExperimentContext.for_workload("web", SCALE)
        trace = context.trace
        again = ExperimentContext.for_workload("web", SCALE)
        assert again.trace is trace  # shared, so it must be immutable
        first = trace[0]
        for column in (trace.arrival_us, trace.lpn, trace.value_id):
            with pytest.raises(TypeError):
                column[0] = 1
        with pytest.raises(TypeError):
            trace[0] = trace[1]
        with pytest.raises(AttributeError):
            trace.sort()
        assert isinstance(trace.op, tuple)
        assert trace[0] == first

    def test_uncached_trace_is_private(self):
        context = ExperimentContext.for_workload(
            "web", SCALE, use_cache=False
        )
        cached = ExperimentContext.for_workload("web", SCALE)
        assert context.trace is not cached.trace
        assert context.trace == cached.trace
        assert ExperimentContext.for_workload("web", SCALE).trace is (
            cached.trace
        )


class TestDeadValuePoolProtocol:
    POOLS = {
        "infinite": InfiniteDeadValuePool,
        "lru": LRUDeadValuePool,
        "mq": MQDeadValuePool,
        "lba-recency": LBARecencyPool,
        "adaptive": AdaptiveMQDeadValuePool,
    }

    @pytest.mark.parametrize("name", sorted(POOLS))
    def test_factory_builds_conforming_pools(self, name):
        pool = pool_from_name(name, entries=256)
        assert isinstance(pool, self.POOLS[name])
        assert isinstance(pool, DeadValuePool)

    def test_factory_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown pool"):
            pool_from_name("bogus")


class TestCheckingConfig:
    def test_checking_property(self):
        assert not RunConfig().checking
        assert RunConfig(check_interval=100).checking
        assert RunConfig(oracle=True).checking
        assert RunConfig(check_interval=100, oracle=True).checking

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(check_interval=0)
        with pytest.raises(ValueError):
            RunConfig(check_interval=-5)
        with pytest.raises(ValueError):
            RunConfig(trim_every=-1)

    def test_runspec_round_trips_check_fields(self):
        from repro.perf.spec import RunSpec

        config = RunConfig(check_interval=500, oracle=True, trim_every=7)
        spec = RunSpec.from_config("web", "mq-dvp", config)
        back = spec.run_config()
        assert back.check_interval == 500
        assert back.oracle is True
        assert back.trim_every == 7

    def test_checked_config_is_picklable(self):
        import pickle

        config = RunConfig(check_interval=500, oracle=True, trim_every=7)
        assert config.picklable
        assert pickle.loads(pickle.dumps(config)) == config
