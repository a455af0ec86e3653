# Convenience targets; every command also runs as written in README.md.
# CI (.github/workflows/ci.yml) calls these same targets, one per job.
PY := PYTHONPATH=src python

.PHONY: test test-core test-kernel test-harness test-service \
  test-fleet test-obs test-startup examples doctest bench bench-smoke \
  bench-kernel bench-service bench-guard lint check

# Tier-1 suite (includes the doctest run over the documented public
# surface and the ~1 s bench smoke in tests/test_docs_and_bench_smoke.py).
test:
	$(PY) -m pytest -x -q

# CDAG core suites: the id-space CDAG (bulk id constructor, snapshots
# that outlive mutations, derived CDAGs, schedule checks), the builders
# pinned to their loop forms, the compiled snapshot, orders, flows and
# partitions pinned to their dict references, the traced-builder oracle,
# and the perfbench binding check (every name perfbench wraps exists).
test-core:
	$(PY) -m pytest tests/core tests/algorithms/test_reference_trace.py \
	  tests/test_perfbench_binding.py -q

# Kernel planner differential suites (numpy tier by default; CI's numba
# matrix arm runs this with numba installed and REPRO_KERNEL=numba so
# the jitted planner is pinned move-for-move too), including the
# randomized P-RBW play suite: kernel planner = dict reference, or the
# same error, over random DAGs x cluster shapes.
test-kernel:
	$(PY) -m pytest tests/pebbling/test_kernel_backend.py \
	  tests/pebbling/test_spill_strategies.py \
	  tests/pebbling/test_run_spill_game.py \
	  tests/pebbling/test_prbw_play_properties.py -q

# Manifest-driven harness suites: the crash/resume differential test
# (SIGKILL a 4-cell smoke grid mid-run, resume, byte-compare against an
# uninterrupted run), the manifest/resume hypothesis property suite,
# the `repro reproduce` end-to-end pass (incl. injected corruption),
# the seed-identity audit, and the param gate (one check, one message
# per malformed cell on every entry point, `repro spill --param`
# included, and per malformed builder spec of the bound server).
test-harness:
	$(PY) -m pytest tests/evaluation/test_harness_resume.py \
	  tests/evaluation/test_manifest_properties.py \
	  tests/evaluation/test_reproduce.py \
	  tests/evaluation/test_harness_seeds.py \
	  tests/evaluation/test_param_gate.py -q

# Artifact store + memoized bound server: the randomized differential
# suite (cached bytes == fresh bytes), the store engine/corruption
# tests (warm hits write nothing until a flush), the key-stability
# property suite and the pinned artifact keys, the HTTP endpoint +
# concurrent-clients suite, the shared HTTP layer's route-aware fuzz
# of both servers (no 5xx, monotonic /metrics, bounded registry, lease
# invariants) and its socket-level framing tests (bad/oversized or
# disagreeing Content-Length, malformed request lines and headers,
# unknown methods, cut bodies, stalled senders), and the sweep --jobs
# integration.
test-service:
	$(PY) -m pytest tests/store tests/service \
	  tests/evaluation/test_harness_jobs.py -q

# Fleet suites: controller queue/lease/retry unit tests, the localhost
# controller + 2-worker end-to-end sweep (byte-identical to
# `sweep --jobs 1`), and the fault-injection suite (SIGKILLed worker,
# dropped heartbeats, SIGKILLed controller mid-grid + restart).
test-fleet:
	$(PY) -m pytest tests/fleet -q

# Observability suites: metrics registry / event ring / dashboard unit
# tests, GET /metrics on both HTTP servers (schema + pinned counters +
# monotonic-scrape properties), the monotonic-clock regression tests,
# and the SIGKILL fault-injection run that must surface in
# `repro fleet status --failures`.
test-obs:
	$(PY) -m pytest tests/obs tests/service/test_metrics_endpoint.py \
	  tests/fleet/test_fleet_obs.py tests/fleet/test_fleet_clock.py -q

# Start-up import guards, each in a fresh interpreter: no runtime path
# loads scipy (the library import, a smoke sweep and the bound server
# load none, and the min-cut cells, bounds, lines and dominators run
# with it unimportable); `repro --help`, `cache --help`, `fleet status
# --help` and `spill --help` load no numpy; the fleet controller (bound
# and closed, and `fleet serve --help`) loads neither numpy nor the
# experiment drivers, which the fork point of cell processes loads with
# numpy.random; the bound server and the fleet controller load no
# http.server; and a bound server loads no HTTP client
# (repro.service.client, urllib.request, http.client).
test-startup:
	$(PY) -m pytest tests/test_runtime_deps.py -q

# Every script under examples/, each in a fresh interpreter: exit 0 and
# no traceback.
examples:
	$(PY) -m pytest tests/test_examples.py -q

# Standalone doctest pass over the documented modules.
doctest:
	$(PY) -m pytest --doctest-modules \
	  src/repro/core/cdag.py \
	  src/repro/core/ordering.py \
	  src/repro/pebbling/state.py \
	  src/repro/pebbling/parallel.py \
	  src/repro/distsim/cluster.py \
	  src/repro/store/keys.py \
	  src/repro/store/db.py \
	  src/repro/store/analysis.py \
	  src/repro/service/server.py \
	  src/repro/obs/metrics.py \
	  src/repro/obs/events.py \
	  src/repro/obs/dashboard.py -q

# Smallest-size benchmark smoke (still completes the 10^6-move P-RBW game).
bench-smoke:
	BENCH_SMOKE=1 $(PY) -m pytest benchmarks -q -m "not bench" --benchmark-disable

# Full core benchmarks; refreshes BENCH_core.json.
bench:
	$(PY) -m pytest benchmarks/bench_compiled_core.py \
	  benchmarks/bench_service.py -q --benchmark-disable

# Service/store load benchmark alone: cold-vs-warm compiled path (>=10x
# asserted), warm HTTP latency, and the many-tenant mixed-grid load run.
bench-service:
	$(PY) -m pytest benchmarks/bench_service.py -q --benchmark-disable

# Kernel benchmark subset: refreshes only the strategy/kernel_* entries
# (the kernel-validated spilled replay) in BENCH_core.json.
bench-kernel:
	$(PY) -m pytest benchmarks/bench_compiled_core.py -q -k kernel \
	  --benchmark-disable

# CI bench-regression guard: smoke-measure into a scratch json and fail
# on >3x regressions of the movelog/sched/strategy/service/fleet
# entries.
bench-guard:
	$(PY) benchmarks/check_bench.py

# Lint (ruleset in pyproject.toml; the tree is clean under it).
lint:
	ruff check .

check: test bench-smoke
