PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint check perf-smoke fleet-smoke serve-smoke kv-smoke bench figures

test: lint
	$(PYTHON) -m pytest -q

# Static gate, three tools over all of src/repro:
#   1. repro lint — the repo's own AST-based determinism/layering linter
#      (pure stdlib, always available, see DESIGN.md §9);
#   2. ruff, 3. mypy — generic lint/typing.  Both optional: environments
#      without them (e.g. the minimal CI image) skip with a notice
#      instead of failing.
lint:
	$(PYTHON) -m repro lint src/repro --strict-baseline
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro; \
	else \
		echo "lint: ruff not installed, skipping"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "lint: mypy not installed, skipping"; \
	fi

# The correctness harness under a tight time budget: seeded-corruption
# detection, property fuzz (TRIM + faults + crash streams), the
# timeline-vs-DES differential replay, and the hot-path differentials:
# BaseFTL.write and BaseFTL.trim against the frozen per-call reference
# model in tests/reference.py (also with a fault model attached and on a
# drive turned read-only: fault counters and bad-block state included),
# SimulatedSSD.service against the per-request reference chain (with and
# without background GC and faults), the flat KVStore.translate against
# its public per-op generators, preconditioning (BaseFTL.preload's
# closed-form column fill on a fresh drive) against the per-page write
# loop and the pre-minted prefill-state goldens, the head-cached
# MultiQueue against a full-scan reference, the hoisted ring pass
# against HashRing.shard_of, and the per-PPN OOB columns against a dict
# journal (one path and reference model, trims, GC, crash recovery).  The FTL differentials
# run on plain BaseFTL, on dedup with and without a pool, and on DFTL,
# so the live index and the CMT are compared too.  Two tests check that
# every in-tree system preloads in the column fill and that the checker
# sees each outcome's CMT traffic.  Also the set-up path: the flat
# synthetic generator against its trace goldens (and the cached legacy
# Zipf ranker draw for draw), and prefill snapshots that share no table
# with the systems they were captured from or restored into: every
# system restored from a snapshot another captured must equal a direct
# prefill (live index, CMT, adaptive window) and give the same run
# digest; and the planned prefill cache: a run_specs batch, a serial
# run_matrix or a one-cell repro run captures a snapshot only while a
# planned cell will restore it and releases it at the last planned
# restore (serial and pool paths), while unplanned run_system calls keep
# capture-on-miss.  Also GC's victim screening
# against the room relocation can reach.  The plain suite (make test)
# runs all of these too; this target isolates them for quick iteration
# on FTL and replay hot paths.
check:
	$(PYTHON) -m pytest -q tests/unit/test_check.py \
		tests/property/test_check_fuzz.py \
		tests/integration/test_differential.py \
		"tests/property/test_ftl_properties.py::test_fused_write_matches_per_call" \
		"tests/property/test_ftl_properties.py::test_fused_trim_matches_per_call" \
		"tests/property/test_ftl_properties.py::test_faulted_writes_and_trims_match_per_call" \
		"tests/property/test_sim_properties.py::test_batched_service_matches_per_request" \
		"tests/property/test_sim_properties.py::test_batched_service_matches_per_request_under_faults" \
		"tests/property/test_kv_properties.py::test_translate_matches_public_ops" \
		"tests/property/test_ftl_properties.py::test_preload_matches_write_loop" \
		"tests/property/test_ftl_properties.py::TestPreloadRouting" \
		tests/perf/test_precondition_goldens.py \
		"tests/property/test_mq_properties.py::TestMQReference" \
		"tests/property/test_ring_properties.py::TestAssignmentsPass" \
		"tests/property/test_ftl_properties.py::test_oob_columns_match_dict_model" \
		"tests/unit/test_ftl.py::TestWriteRouting::test_every_system_runs_fused" \
		"tests/unit/test_dftl.py::TestDFTLFtl::test_checker_sees_translation_traffic" \
		tests/perf/test_trace_goldens.py \
		tests/perf/test_replay_goldens.py \
		"tests/perf/test_caches.py::TestPrefillCache::test_restored_systems_do_not_share_state" \
		"tests/perf/test_caches.py::TestPlannedPrefill" \
		"tests/unit/test_gc.py::TestRelocationRoom" \
		"tests/perf/test_determinism.py::TestRunDeterminism::test_prefill_cache_does_not_change_results"

# Tiny parallel-engine smoke: process-pool round trip, caches, bench
# harness shape.  Part of the plain suite too; this target isolates it.
perf-smoke:
	$(PYTHON) -m pytest -q -m perf_smoke

# Fleet smoke: small sharded runs — jobs=1 vs jobs=N digest identity,
# routing/partition coverage.  Part of the plain suite too.
fleet-smoke:
	$(PYTHON) -m pytest -q -m fleet_smoke

# Serve smoke: three tenants stream small traces through the socket
# service, final digests must equal the batch runs, a SIGTERM'd server
# checkpoints every session and a restart resumes them bit-exact; the
# transport tests pin NODELAY on both ends and coalesced client writes.
serve-smoke:
	$(PYTHON) -m pytest -q -m serve_smoke

# KV smoke: keyed zoo workloads end-to-end through the key→LPN layer,
# the pool on/off ablation, and jobs=1 vs jobs=N digest identity.
kv-smoke:
	$(PYTHON) -m pytest -q -m kv_smoke

# Refresh the tracked perf report (serial vs parallel canonical matrix
# plus the fleet section: long-lived shards, pool-mode comparison).
bench:
	$(PYTHON) benchmarks/perf/harness.py --out BENCH_matrix.json

figures:
	$(PYTHON) -m pytest benchmarks -q -s
