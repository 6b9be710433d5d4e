"""Per-rule fixtures for :mod:`repro.lint`: every code fires and stays quiet.

Each rule gets (at least) one seeded-violation fixture and one
counter-fixture exercising the rule's allowance (the sanctioned module,
the seeded generator, the ``sorted(...)`` wrapper, ...).  A meta-test at
the bottom asserts the fixture table covers every registered code, so a
new rule cannot land without a fixture proving it fires.
"""

import textwrap

import pytest

from repro.lint import LintEngine, all_codes

pytestmark = pytest.mark.usefixtures("scratch_cwd")


def lint_sources(tmp_path, files, select=None):
    """Lint an in-memory {relpath: source} tree rooted at ``tmp_path``."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    engine = LintEngine(select=select, package_root=str(tmp_path))
    return engine.run([str(tmp_path)])


def codes_of(result):
    return sorted({v.code for v in result.violations})


# ---------------------------------------------------------------------------
# det.wallclock
# ---------------------------------------------------------------------------

WALLCLOCK_BAD = {
    "repro/sim/hot.py": """
        import time

        def stamp():
            return time.time()
    """,
}

def test_wallclock_fires_outside_perf(tmp_path):
    result = lint_sources(tmp_path, WALLCLOCK_BAD, select=["det.wallclock"])
    assert codes_of(result) == ["det.wallclock"]
    (violation,) = result.violations
    assert violation.line == 5  # dedented fixture keeps its leading newline
    assert violation.context == "stamp"


def test_wallclock_catches_aliases_and_from_imports(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/sim/a.py": """
            from time import perf_counter

            def f():
                return perf_counter()
        """,
        "repro/sim/b.py": """
            import time as t

            def g():
                return t.monotonic()
        """,
        "repro/sim/c.py": """
            from datetime import datetime

            def h():
                return datetime.now()
        """,
    }, select=["det.wallclock"])
    assert len(result.violations) == 3


def test_wallclock_allowed_in_perf(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/perf/bench.py": """
            import time

            def wall():
                return time.time()
        """,
    }, select=["det.wallclock"])
    assert result.clean


def test_wallclock_fires_in_obs(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/obs/taps.py": """
            import time

            def stamp():
                return time.perf_counter()
        """,
    }, select=["det.wallclock"])
    assert codes_of(result) == ["det.wallclock"]


# ---------------------------------------------------------------------------
# det.global-random
# ---------------------------------------------------------------------------

def test_global_random_fires(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/traces/bad.py": """
            import random

            def draw():
                return random.randint(0, 7)
        """,
    }, select=["det.global-random"])
    assert codes_of(result) == ["det.global-random"]


def test_global_random_from_import_and_shuffle(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/traces/bad.py": """
            from random import shuffle

            def mix(items):
                shuffle(items)
        """,
    }, select=["det.global-random"])
    assert codes_of(result) == ["det.global-random"]


def test_seeded_random_instances_allowed(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/traces/good.py": """
            import random

            def stream(seed):
                rng = random.Random(seed)
                return rng.randint(0, 7)
        """,
    }, select=["det.global-random"])
    assert result.clean


# ---------------------------------------------------------------------------
# det.set-iter
# ---------------------------------------------------------------------------

def test_set_iteration_into_append_fires(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/core/bad.py": """
            def collect(items):
                live = {x for x in items}
                out = []
                for x in live:
                    out.append(x)
                return out
        """,
    }, select=["det.set-iter"])
    assert codes_of(result) == ["det.set-iter"]


def test_list_of_set_and_keys_fire(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/core/bad.py": """
            def a(items):
                return list(set(items))

            def b(mapping, sink):
                for key in mapping.keys():
                    sink.append(key)
        """,
    }, select=["det.set-iter"])
    assert len(result.violations) == 2


def test_listcomp_over_set_fires(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/core/bad.py": """
            def squares(items):
                dead = set(items)
                return [x * x for x in dead]
        """,
    }, select=["det.set-iter"])
    assert codes_of(result) == ["det.set-iter"]


def test_sorted_wrapper_and_order_free_consumers_allowed(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/core/good.py": """
            def canonical(items):
                dead = set(items)
                out = []
                for x in sorted(dead):
                    out.append(x)
                total = sum(x for x in dead)
                biggest = max(dead)
                return out, total, biggest, sorted(dead)
        """,
    }, select=["det.set-iter"])
    assert result.clean


def test_rebinding_to_sorted_clears_taint(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/core/good.py": """
            def canonical(items):
                dead = set(items)
                dead = sorted(dead)
                return [x for x in dead]
        """,
    }, select=["det.set-iter"])
    assert result.clean


# ---------------------------------------------------------------------------
# det.environ
# ---------------------------------------------------------------------------

def test_environ_fires_outside_config(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/ftl/bad.py": """
            import os

            def knob():
                return os.environ.get("REPRO_FAST")
        """,
    }, select=["det.environ"])
    assert codes_of(result) == ["det.environ"]


def test_getenv_fires_too(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/ftl/bad.py": """
            import os

            def knob():
                return os.getenv("REPRO_FAST")
        """,
    }, select=["det.environ"])
    assert codes_of(result) == ["det.environ"]


def test_environ_allowed_in_config_and_trace_cache(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/flash/config.py": """
            import os

            DEBUG = os.environ.get("REPRO_DEBUG")
        """,
        "repro/perf/trace_cache.py": """
            import os

            DISK = os.environ.get("REPRO_TRACE_CACHE")
        """,
    }, select=["det.environ"])
    assert result.clean


# ---------------------------------------------------------------------------
# layer.*
# ---------------------------------------------------------------------------

def test_core_purity_fires(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/core/bad.py": """
            from repro.sim.engine import EventEngine

            def f():
                return EventEngine
        """,
    }, select=["layer.core-purity"])
    assert codes_of(result) == ["layer.core-purity"]


def test_core_purity_catches_lazy_imports(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/core/bad.py": """
            def f():
                from repro.experiments import runner
                return runner
        """,
    }, select=["layer.core-purity"])
    assert codes_of(result) == ["layer.core-purity"]


def test_core_importing_stdlib_and_core_allowed(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/core/good.py": """
            import hashlib
            from repro.core.other import helper

            def f():
                return hashlib, helper
        """,
        "repro/core/other.py": """
            def helper():
                return 1
        """,
    }, select=["layer.core-purity"])
    assert result.clean


def test_no_experiments_fires_for_sim_and_ftl(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/sim/bad.py": """
            def f():
                from repro.experiments.runner import run_system
                return run_system
        """,
        "repro/ftl/bad.py": """
            from repro.experiments import config
        """,
    }, select=["layer.no-experiments"])
    assert len(result.violations) == 2
    assert codes_of(result) == ["layer.no-experiments"]


def test_core_purity_covers_fleet(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/core/bad.py": """
            from repro.fleet import FleetSpec

            def f():
                return FleetSpec
        """,
    }, select=["layer.core-purity"])
    assert codes_of(result) == ["layer.core-purity"]


def test_no_experiments_covers_fleet(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/sim/bad.py": """
            def f():
                from repro.fleet import run_fleet
                return run_fleet
        """,
        "repro/ftl/bad.py": """
            from repro.fleet.ring import HashRing
        """,
    }, select=["layer.no-experiments"])
    assert len(result.violations) == 2
    assert codes_of(result) == ["layer.no-experiments"]


def test_no_experiments_covers_api(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/sim/bad.py": """
            from repro.api import record_from_run
        """,
    }, select=["layer.no-experiments"])
    assert codes_of(result) == ["layer.no-experiments"]


def test_no_serve_fires_below_the_cli(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/fleet/bad.py": """
            def f():
                from repro.serve import ServeServer
                return ServeServer
        """,
        "repro/api/bad.py": """
            from repro.serve.session import TenantSession
        """,
    }, select=["layer.no-serve"])
    assert len(result.violations) == 2
    assert codes_of(result) == ["layer.no-serve"]


def test_cli_and_serve_itself_may_import_serve(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/cli.py": """
            def f():
                from repro.serve import run_server
                return run_server
        """,
        "repro/serve/manager.py": """
            from repro.serve.session import TenantSession

            def g():
                return TenantSession
        """,
    }, select=["layer.no-serve"])
    assert result.clean


def test_fleet_may_import_harness_and_device_layers(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/fleet/good.py": """
            from repro.experiments.device import Device
            from repro.sim.metrics import RunResult

            def f():
                return Device, RunResult
        """,
    }, select=["layer.no-experiments", "layer.core-purity"])
    assert result.clean


def test_type_checking_imports_exempt(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/sim/good.py": """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.experiments.config import RunConfig

            def f(config: "RunConfig"):
                return config
        """,
    }, select=["layer.no-experiments"])
    assert result.clean


def test_import_cycle_detected(tmp_path):
    result = lint_sources(tmp_path, {
        "cyclepkg/__init__.py": "",
        "cyclepkg/a.py": """
            from cyclepkg import b

            def fa():
                return b
        """,
        "cyclepkg/b.py": """
            from cyclepkg import a

            def fb():
                return a
        """,
    }, select=["layer.cycle"])
    assert codes_of(result) == ["layer.cycle"]
    (violation,) = result.violations
    assert "cyclepkg.a -> cyclepkg.b" in violation.message or \
        "cyclepkg.b -> cyclepkg.a" in violation.message


def test_lazy_import_breaks_cycle(tmp_path):
    result = lint_sources(tmp_path, {
        "cyclepkg/__init__.py": "",
        "cyclepkg/a.py": """
            from cyclepkg import b

            def fa():
                return b
        """,
        "cyclepkg/b.py": """
            def fb():
                from cyclepkg import a
                return a
        """,
    }, select=["layer.cycle"])
    assert result.clean


def test_three_module_cycle_reported_once(tmp_path):
    result = lint_sources(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/a.py": "from pkg import b\n",
        "pkg/b.py": "from pkg import c\n",
        "pkg/c.py": "from pkg import a\n",
    }, select=["layer.cycle"])
    assert len(result.violations) == 1
    assert "pkg.a -> pkg.b -> pkg.c" in result.violations[0].message


# ---------------------------------------------------------------------------
# proto.*
# ---------------------------------------------------------------------------

POOL_FIXTURE_PREAMBLE = """
    from abc import ABC, abstractmethod

    class PoolBase(ABC):
        @abstractmethod
        def lookup_for_write(self, fp, now): ...

        @abstractmethod
        def insert_garbage(self, fp, ppn, now, popularity=1, lpn=None): ...

        def skip_missed_lookups(self, count):
            self.stats.lookups += count
            self.stats.misses += count

        def tracked_items(self):
            raise NotImplementedError
"""


def test_pool_missing_surface_fires(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/core/pools.py": POOL_FIXTURE_PREAMBLE + """
            class BadPool(PoolBase):
                def lookup_for_write(self, fp, now):
                    return None

                def insert_garbage(self, fp, ppn, now, popularity=1, lpn=None):
                    return []
        """,
    }, select=["proto.pool-surface"])
    assert codes_of(result) == ["proto.pool-surface"]
    (violation,) = result.violations
    assert "BadPool" in violation.message
    assert "tracked_items" in violation.message


def test_pool_stub_body_does_not_satisfy_surface(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/core/pools.py": """
            class SneakyPool:
                def lookup_for_write(self, fp, now):
                    return None

                def insert_garbage(self, fp, ppn, now, popularity=1, lpn=None):
                    return []

                def discard_ppn(self, fp, ppn):
                    pass

                def clear_volatile(self):
                    pass

                def tracked_ppn_count(self):
                    pass

                def tracked_items(self):
                    pass

                def __len__(self):
                    return 0

                def __contains__(self, fp):
                    return False
        """,
    }, select=["proto.pool-surface"])
    # the structural trigger catches it, and the stubbed methods do not
    # count as concrete definitions
    assert codes_of(result) == ["proto.pool-surface"]


def test_pool_inheriting_full_surface_passes(tmp_path):
    full_pool = """
        class GoodPool(PoolBase):
            def lookup_for_write(self, fp, now):
                return None

            def insert_garbage(self, fp, ppn, now, popularity=1, lpn=None):
                return []

            def discard_ppn(self, fp, ppn):
                return False

            def clear_volatile(self):
                self._entries = {}

            def tracked_ppn_count(self):
                return 0

            def tracked_items(self):
                return iter(())

            def __len__(self):
                return 0

            def __contains__(self, fp):
                return False

        class DerivedPool(GoodPool):
            def lookup_for_write(self, fp, now):
                return 7
    """
    result = lint_sources(tmp_path, {
        "repro/core/pools.py": POOL_FIXTURE_PREAMBLE + full_pool,
    }, select=["proto.pool-surface"])
    assert result.clean


def test_ftl_subclass_missing_hooks_fires(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/ftl/bad.py": """
            class BaseFTL:
                def relocate_page(self, old_ppn, new_ppn):
                    return None

                def erase_cleanup(self, block_global, invalid_ppns):
                    return None

                def check_invariants(self):
                    return None

            class LeakyFTL(BaseFTL):
                def _kill_fused(self, lpn, old_ppn, *tables):
                    self.extra = old_ppn
        """,
    }, select=["proto.ftl-hooks"])
    assert codes_of(result) == ["proto.ftl-hooks"]
    (violation,) = result.violations
    for hook in ("relocate_page", "erase_cleanup", "check_invariants"):
        assert hook in violation.message


def test_ftl_subclass_with_hooks_passes(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/ftl/good.py": """
            class BaseFTL:
                def relocate_page(self, old_ppn, new_ppn):
                    return None

            class CarefulFTL(BaseFTL):
                def write(self, lpn, fp):
                    self.extra = lpn

                def relocate_page(self, old_ppn, new_ppn):
                    return None

                def erase_cleanup(self, block_global, invalid_ppns):
                    return None

                def check_invariants(self):
                    return None
        """,
    }, select=["proto.ftl-hooks"])
    assert result.clean


def test_ftl_subclass_filling_base_slots_needs_no_hooks(tmp_path):
    """State the base class declares is kept by the base hooks; a subclass
    adding an attribute of its own must handle relocation itself."""
    base = """
        class BaseFTL:
            def __init__(self):
                self._live_index = None

            def relocate_page(self, old_ppn, new_ppn):
                return None

        class SlotFTL(BaseFTL):
            def __init__(self):
                super().__init__()
                self._live_index = {}

            def live_value_count(self):
                return len(self._live_index)
    """
    result = lint_sources(tmp_path, {"repro/ftl/good.py": base},
                          select=["proto.ftl-hooks"])
    assert result.clean
    result = lint_sources(tmp_path, {
        "repro/ftl/good.py": base + """
        class ExtraFTL(SlotFTL):
            def note(self, ppn):
                self.last_ppn = ppn
    """}, select=["proto.ftl-hooks"])
    assert codes_of(result) == ["proto.ftl-hooks"]
    (violation,) = result.violations
    assert "ExtraFTL" in violation.message
    assert "relocate_page" in violation.message


# ---------------------------------------------------------------------------
# frozen.*
# ---------------------------------------------------------------------------

def test_frozen_setattr_outside_post_init_fires(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/experiments/bad.py": """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Config:
                scale: float = 1.0

                def bump(self):
                    object.__setattr__(self, "scale", self.scale * 2)
        """,
    }, select=["frozen.setattr"])
    assert codes_of(result) == ["frozen.setattr"]
    assert result.violations[0].context == "Config.bump"


def test_frozen_setattr_in_post_init_allowed(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/experiments/good.py": """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Config:
                scale: float = 1.0

                def __post_init__(self):
                    object.__setattr__(self, "scale", float(self.scale))
        """,
    }, select=["frozen.setattr"])
    assert result.clean


def test_spec_picklable_fires_on_callable_field(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/perf/spec.py": """
            from dataclasses import dataclass
            from typing import Callable, Optional

            @dataclass(frozen=True)
            class RunSpec:
                workload: str
                observer_factory: Optional[Callable[[], object]] = None
        """,
    }, select=["flow.spec-pickle"])
    assert codes_of(result) == ["flow.spec-pickle"]
    (violation,) = result.violations
    assert violation.line == 8
    assert "observer_factory" in violation.message


def test_spec_picklable_accepts_scalars_and_dataclasses(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/perf/spec.py": """
            from dataclasses import dataclass
            from typing import Dict, Optional, Tuple

            @dataclass(frozen=True)
            class FaultConfig:
                seed: int = 0
                program_failure_prob: float = 0.0

            @dataclass(frozen=True)
            class RunSpec:
                workload: str
                system: str
                scale: float = 0.25
                seed: Optional[int] = None
                faults: Optional[FaultConfig] = None
                tags: Tuple[str, ...] = ()
                extras: Dict[str, int] = None
        """,
    }, select=["flow.spec-pickle"])
    assert result.clean


def test_spec_picklable_handles_string_annotations(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/perf/spec.py": """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class RunSpec:
                workload: "str"
                sampler: "TimeSeriesSampler" = None
        """,
    }, select=["flow.spec-pickle"])
    assert codes_of(result) == ["flow.spec-pickle"]
    (violation,) = result.violations
    assert violation.line == 7
    assert "TimeSeriesSampler" in violation.message


def test_spec_pickle_fires_on_fault_config_via_run_spec(tmp_path):
    """FaultConfig ships inside RunSpec.faults, so its fields are held
    to the same grammar as the spec's own."""
    result = lint_sources(tmp_path, {
        "repro/faults/config.py": """
            from dataclasses import dataclass
            from typing import Callable, Optional

            @dataclass(frozen=True)
            class FaultConfig:
                seed: int = 0
                on_fault: Optional[Callable[[int], None]] = None
        """,
        "repro/perf/spec.py": """
            from dataclasses import dataclass
            from typing import Optional

            from repro.faults.config import FaultConfig

            @dataclass(frozen=True)
            class RunSpec:
                workload: str
                faults: Optional[FaultConfig] = None
        """,
    }, select=["flow.spec-pickle"])
    assert codes_of(result) == ["flow.spec-pickle"]
    (violation,) = result.violations
    assert violation.path.endswith("config.py")
    assert violation.line == 8
    assert violation.context == "FaultConfig"
    assert "RunSpec -> FaultConfig" in violation.message


# ---------------------------------------------------------------------------
# flow.taint-digest
# ---------------------------------------------------------------------------

def test_taint_digest_fires_across_calls(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/perf/bad.py": """
            import time

            def result_digest(value):
                return value

            def stamp():
                return time.perf_counter()

            def record():
                return result_digest(stamp())
        """,
    }, select=["flow.taint-digest"])
    assert codes_of(result) == ["flow.taint-digest"]
    (violation,) = result.violations
    # Anchored at the source, with the flow chain in the message.
    assert violation.context == "stamp"
    assert "result_digest" in violation.message
    assert "->" in violation.message


def test_taint_digest_three_hop_chain_det_rules_miss(tmp_path):
    """The whole point of the interprocedural pass: the wall clock is
    *sanctioned* where it is read (repro.perf, allowlisted by
    ``det.wallclock``), and the digest call three hops away never
    touches a clock itself — so every per-file ``det.*`` rule stays
    quiet while the taint pass follows the value across modules."""
    sources = {
        "repro/perf/clock.py": """
            import time

            def now():
                return time.perf_counter()
        """,
        "repro/traces/transform.py": """
            from repro.perf.clock import now

            def stamp_ops(ops):
                started = now()
                return [(started, op) for op in ops]
        """,
        "repro/experiments/record.py": """
            from repro.traces.transform import stamp_ops

            def result_digest(value):
                return value

            def record(ops):
                return result_digest(stamp_ops(ops))
        """,
    }
    det = lint_sources(
        tmp_path, sources,
        select=["det.wallclock", "det.environ", "det.global-random",
                "det.set-iter"],
    )
    assert det.clean
    flow = lint_sources(tmp_path, sources, select=["flow.taint-digest"])
    assert codes_of(flow) == ["flow.taint-digest"]
    (violation,) = flow.violations
    assert violation.path.endswith("repro/perf/clock.py")
    assert violation.context == "now"
    assert "stamp_ops" in violation.message
    assert "result_digest" in violation.message


def test_taint_digest_quiet_for_seeded_values(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/perf/ok.py": """
            def result_digest(value):
                return value

            def record(seed):
                return result_digest(seed * 3)
        """,
    }, select=["flow.taint-digest"])
    assert result.clean


# ---------------------------------------------------------------------------
# flow.hot-effect
# ---------------------------------------------------------------------------

def test_hot_effect_fires_on_print_under_device_step(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/sim/bad.py": """
            class Device:
                def step(self, now):
                    self._tick(now)

                def _tick(self, now):
                    print("tick", now)
        """,
    }, select=["flow.hot-effect"])
    assert codes_of(result) == ["flow.hot-effect"]
    (violation,) = result.violations
    assert violation.context == "Device._tick"
    assert "Device.step" in violation.message


def test_hot_effect_quiet_outside_the_hot_cone_and_in_obs(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/sim/ok.py": """
            class Device:
                def step(self, now):
                    return now + 1

                def debug_dump(self):
                    print("cold path, never called from step")
        """,
        "repro/obs/taps.py": """
            class Device:
                def step(self, now):
                    print("diagnostic layer is allowed to record")
        """,
    }, select=["flow.hot-effect"])
    assert result.clean


def test_hot_effect_follows_a_protocol_typed_receiver(tmp_path):
    """A call through a parameter typed with a ``Protocol`` reaches every
    class defining the method: implementations need not subclass it."""
    result = lint_sources(tmp_path, {
        "repro/ftl/bad.py": """
            from typing import Optional, Protocol

            class DeadValuePool(Protocol):
                def insert_garbage(self, fp, ppn): ...

            class LoudPool:
                def insert_garbage(self, fp, ppn):
                    print("insert", ppn)

            class BaseFTL:
                def write(self, lpn, fp):
                    self._kill(lpn, None)

                def _kill(self, lpn, pool: Optional[DeadValuePool]):
                    pool.insert_garbage(lpn, lpn)
        """,
    }, select=["flow.hot-effect"])
    assert codes_of(result) == ["flow.hot-effect"]
    (violation,) = result.violations
    assert violation.context == "LoudPool.insert_garbage"


# ---------------------------------------------------------------------------
# flow.blocking-async
# ---------------------------------------------------------------------------

def test_blocking_async_fires_on_sleep_in_serve_coroutine(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/serve/bad.py": """
            import time

            def drain():
                time.sleep(0.1)

            async def handle(session):
                drain()
        """,
    }, select=["flow.blocking-async"])
    assert codes_of(result) == ["flow.blocking-async"]
    (violation,) = result.violations
    assert violation.context == "drain"
    assert "handle" in violation.message


def test_blocking_async_quiet_outside_serve(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/fleet/ok.py": """
            import time

            async def helper():
                time.sleep(0.1)
        """,
    }, select=["flow.blocking-async"])
    assert result.clean


# ---------------------------------------------------------------------------
# flow.spec-pickle
# ---------------------------------------------------------------------------

def test_spec_pickle_fires_transitively(tmp_path):
    """The pass walks the reference closure and finds the Callable one
    dataclass hop away from RunSpec."""
    result = lint_sources(tmp_path, {
        "repro/perf/bad.py": """
            from dataclasses import dataclass
            from typing import Callable

            @dataclass(frozen=True)
            class Sampler:
                hook: Callable

            @dataclass(frozen=True)
            class RunSpec:
                workload: str
                sampler: Sampler = None
        """,
    }, select=["flow.spec-pickle"])
    assert codes_of(result) == ["flow.spec-pickle"]
    (violation,) = result.violations
    assert violation.context == "Sampler"
    assert "RunSpec -> Sampler" in violation.message


def test_spec_pickle_quiet_for_picklable_closure(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/perf/ok.py": """
            from dataclasses import dataclass
            from typing import Optional, Tuple

            @dataclass(frozen=True)
            class Inner:
                values: Tuple[int, ...] = ()

            @dataclass(frozen=True)
            class RunSpec:
                workload: str
                inner: Optional[Inner] = None
        """,
    }, select=["flow.spec-pickle"])
    assert result.clean


# ---------------------------------------------------------------------------
# suppression
# ---------------------------------------------------------------------------

def test_inline_disable_suppresses_exact_code(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/sim/hot.py": """
            import time

            def stamp():
                return time.time()  # lint: disable=det.wallclock
        """,
    }, select=["det.wallclock"])
    assert result.clean
    assert result.suppressed == 1


def test_inline_disable_wrong_code_does_not_suppress(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/sim/hot.py": """
            import time

            def stamp():
                return time.time()  # lint: disable=det.environ
        """,
    }, select=["det.wallclock"])
    assert codes_of(result) == ["det.wallclock"]


def test_disable_can_name_several_codes(tmp_path):
    result = lint_sources(tmp_path, {
        "repro/sim/hot.py": """
            import os
            import time

            def stamp():
                return time.time(), os.getenv("X")  # lint: disable=det.wallclock,det.environ
        """,
    }, select=["det.wallclock", "det.environ"])
    assert result.clean
    assert result.suppressed == 2


# ---------------------------------------------------------------------------
# meta: every registered code has a firing fixture above
# ---------------------------------------------------------------------------

FIXTURES_BY_CODE = {
    "det.wallclock": test_wallclock_fires_outside_perf,
    "det.global-random": test_global_random_fires,
    "det.set-iter": test_set_iteration_into_append_fires,
    "det.environ": test_environ_fires_outside_config,
    "layer.core-purity": test_core_purity_fires,
    "layer.no-experiments": test_no_experiments_fires_for_sim_and_ftl,
    "layer.no-serve": test_no_serve_fires_below_the_cli,
    "layer.cycle": test_import_cycle_detected,
    "proto.pool-surface": test_pool_missing_surface_fires,
    "proto.ftl-hooks": test_ftl_subclass_missing_hooks_fires,
    "frozen.setattr": test_frozen_setattr_outside_post_init_fires,
    "flow.taint-digest": test_taint_digest_fires_across_calls,
    "flow.hot-effect": test_hot_effect_fires_on_print_under_device_step,
    "flow.blocking-async": test_blocking_async_fires_on_sleep_in_serve_coroutine,
    "flow.spec-pickle": test_spec_pickle_fires_transitively,
}


def test_every_rule_code_has_a_firing_fixture():
    assert sorted(FIXTURES_BY_CODE) == all_codes()


@pytest.mark.parametrize("code", sorted(FIXTURES_BY_CODE))
def test_rule_exits_nonzero_on_its_fixture(code, tmp_path, capsys):
    """The CLI contract: a seeded violation for every code -> exit 1."""
    import repro.cli as cli

    sources = {
        "det.wallclock": WALLCLOCK_BAD,
        "det.global-random": {
            "repro/traces/bad.py": "import random\nx = random.random()\n",
        },
        "det.set-iter": {
            "repro/core/bad.py": "def f(s):\n    return list(set(s))\n",
        },
        "det.environ": {
            "repro/ftl/bad.py": "import os\nx = os.environ.get('A')\n",
        },
        "layer.core-purity": {
            "repro/core/bad.py": "from repro.ftl import ftl\n",
        },
        "layer.no-experiments": {
            "repro/ftl/bad.py": "from repro.experiments import runner\n",
        },
        "layer.no-serve": {
            "repro/fleet/bad.py": "from repro.serve import protocol\n",
        },
        "layer.cycle": {
            "p/__init__.py": "",
            "p/a.py": "from p import b\n",
            "p/b.py": "from p import a\n",
        },
        "proto.pool-surface": {
            "repro/core/bad.py": (
                "class P:\n"
                "    def lookup_for_write(self, fp, now):\n"
                "        return None\n"
                "    def insert_garbage(self, fp, ppn, now):\n"
                "        return []\n"
            ),
        },
        "proto.ftl-hooks": {
            "repro/ftl/bad.py": (
                "class BaseFTL:\n"
                "    def relocate_page(self, a, b):\n"
                "        return None\n"
                "class F(BaseFTL):\n"
                "    def write(self, lpn, fp):\n"
                "        self.last_lpn = lpn\n"
            ),
        },
        "frozen.setattr": {
            "repro/experiments/bad.py": (
                "class C:\n"
                "    def poke(self):\n"
                "        object.__setattr__(self, 'x', 1)\n"
            ),
        },
        "flow.taint-digest": {
            "repro/perf/bad.py": (
                "import time\n"
                "def result_digest(value):\n"
                "    return value\n"
                "def record():\n"
                "    return result_digest(time.perf_counter())\n"
            ),
        },
        "flow.hot-effect": {
            "repro/sim/bad.py": (
                "class Device:\n"
                "    def step(self, now):\n"
                "        print('tick')\n"
            ),
        },
        "flow.blocking-async": {
            "repro/serve/bad.py": (
                "import time\n"
                "async def handle():\n"
                "    time.sleep(0.1)\n"
            ),
        },
        "flow.spec-pickle": {
            "repro/perf/bad.py": (
                "from dataclasses import dataclass\n"
                "from typing import Callable\n"
                "@dataclass\n"
                "class Inner:\n"
                "    hook: Callable\n"
                "@dataclass\n"
                "class RunSpec:\n"
                "    inner: Inner = None\n"
            ),
        },
    }[code]
    for rel, text in sources.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    rc = cli.main([
        "lint", str(tmp_path),
        "--no-baseline",
        "--select", code,
        "--package-root", str(tmp_path),
    ])
    capsys.readouterr()
    assert rc == 1
