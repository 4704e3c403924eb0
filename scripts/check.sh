#!/usr/bin/env bash
# Full local gate: configure + build, then run the test tiers the CI presets
# select — the plain suite, the chaos fault-injection scenarios, the
# model-conformance sweeps (docs/model_checking.md), the observability layer
# (docs/observability.md), the sharded coordination plane (docs/sharding.md),
# the dynamic-membership suite (docs/reconfig.md),
# the bytecode-VM tier: the test oracle's units and the VM-vs-oracle
# conformance suite and step-budget sweep (docs/bytecode_vm.md),
# the raw PBFT ordering, view-change and batching tier (src/edc/bft/replica.h),
# and the lint tier (docs/static_analysis.md):
# edc-lint golden tests, edc-lint over the example scripts, and clang-tidy
# when available; last, the benchmark's own unit tests (perfbench/README.md),
# which build perfbench against the extension-manager and registry API of
# this checkout. One spotlight checks that every suite ported onto the
# per-layer harnesses (CoordFixture, the Zab shell, the PBFT shell) still
# registers. A spotlight re-runs the deterministic bench gate (label
# bench): three benches whose stdout must match bench_results/. Any failure
# aborts.
#
# Usage: scripts/check.sh [--lint] [build-dir]   (default build dir: build)
#   --lint   run only the lint tier (golden tests + edc-lint + clang-tidy)

set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$(pwd)"

LINT_ONLY=0
if [[ "${1:-}" == "--lint" ]]; then
  LINT_ONLY=1
  shift
fi

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

run_lint_tier() {
  echo "== lint: edc-lint golden tests =="
  (cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS" --no-tests=error -L lint)
  echo "== lint: edc-lint over examples/scripts =="
  "$BUILD_DIR"/tools/edc-lint examples/scripts/queue_remove.edc \
    examples/scripts/audit_count.edc
  # The intentionally-broken example must keep exiting nonzero.
  if "$BUILD_DIR"/tools/edc-lint examples/scripts/broken_sweeper.edc >/dev/null; then
    echo "expected broken_sweeper.edc to lint with errors" >&2
    exit 1
  fi
  echo "== lint: edc-lint --format=json gate =="
  # Machine-readable pass over the clean examples: valid single-document
  # output, no error-severity findings, and every handler carrying a finite
  # inferred bound ("step_bound":null would mean the analyzer lost a bound).
  JSON_OUT="$("$BUILD_DIR"/tools/edc-lint --format=json \
    examples/scripts/queue_remove.edc examples/scripts/audit_count.edc)"
  if [[ "$JSON_OUT" != *'"files":['* || "$JSON_OUT" != *'"registry":['* ]]; then
    echo "edc-lint --format=json output missing files/registry sections" >&2
    exit 1
  fi
  if [[ "$JSON_OUT" == *'"severity":"error"'* ]]; then
    echo "edc-lint --format=json reported errors on clean examples" >&2
    exit 1
  fi
  if [[ "$JSON_OUT" == *'"step_bound":null'* ]]; then
    echo "edc-lint --format=json lost a step bound on clean examples" >&2
    exit 1
  fi
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== lint: clang-tidy (script + ext + lint) =="
    clang-tidy -p "$BUILD_DIR" --quiet \
      src/edc/script/*.cpp src/edc/script/analysis/*.cpp src/edc/ext/*.cpp tools/lint/*.cpp
  else
    echo "== lint: clang-tidy not installed; skipping C++ tidy pass =="
  fi
}

if [[ "$LINT_ONLY" == 1 ]]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build "$BUILD_DIR" -j "$JOBS" --target edc-lint lint_golden_test
  run_lint_tier
  echo "Lint checks passed."
  exit 0
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build "$BUILD_DIR" -j "$JOBS"

run_lint_tier

cd "$BUILD_DIR"
echo "== tier-1 tests =="
ctest --output-on-failure -j "$JOBS" -LE 'chaos|model|obs|lint|shard|pipeline|reconfig|vm|bft'
echo "== chaos tests =="
ctest --output-on-failure -j "$JOBS" -L chaos
echo "== model-conformance tests =="
ctest --output-on-failure -j "$JOBS" -L model
echo "== observability tests =="
ctest --output-on-failure -j "$JOBS" -L obs
echo "== sharded coordination plane tests =="
ctest --output-on-failure -j "$JOBS" --no-tests=error -L shard
echo "== pipeline determinism tests =="
ctest --output-on-failure -j "$JOBS" --no-tests=error -L pipeline
echo "== dynamic membership (reconfig) tests =="
ctest --output-on-failure -j "$JOBS" --no-tests=error -L reconfig
echo "== bytecode VM tests (oracle units, VM-vs-oracle conformance, budget sweep) =="
ctest --output-on-failure -j "$JOBS" --no-tests=error -L vm
echo "== PBFT ordering, view-change and batching tests =="
ctest --output-on-failure -j "$JOBS" --no-tests=error -L bft
# Spotlight the recovery/crash-restart families (docs/bft_recovery.md): these
# already ran inside the tiers above, but --no-tests=error makes the gate fail
# loudly if a rename or CMake edit silently drops them from discovery.
echo "== spotlight: BFT recovery + crash-restart chaos =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'BftRecovery\.|ChaosTest\.CrashRestartEdsReplicaRejoinsViaStateTransfer'
# One fault model (docs/fault_model.md): a FaultPlan is one list of episodes,
# each end undoing only its own begin, and the network keeps one record per
# directed link: plan execution, composing partitions, link faults, FIFO
# floors across crashes, and the fixture chaos scenarios.
echo "== spotlight: fault episodes, per-link network records, chaos scenarios =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'FaultsTest\.|NetworkTest\.|ChaosTest\.'
echo "== spotlight: EDS schedule sweep (crash-restart grammar) =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'DsScheduleSweep\.'
# The analyzer's certified bounds hold only while it and the VM agree on
# scoping and caps; these pin its output, so a change on either side that
# moves a verdict, a bound or a diagnostic fails here. The parity test
# checks that edc-lint's errors are exactly what replicas admit on.
echo "== spotlight: pinned analyzer output, admission/lint parity (docs/static_analysis.md) =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'AnalyzerPinTest\.|AdmissionParityTest\.'
echo "== spotlight: VM vs oracle at every step budget (docs/bytecode_vm.md) =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'VmBudgetSweepTest\.'
# The indexed tuple space must answer exactly as a linear scan would, and
# the EDS queue run (sub_objects, lease expiry, crash-restart by state
# transfer) must keep the digests recorded before the index existed.
echo "== spotlight: EDS queue digest, recorded before the tuple-space index =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'ElisionDigestTest\.EdsQueueDigestsPinned'
# The Zab log lives only in the LogStore, and the replicas of one cluster
# keep one copy of each record in a shared RecordPool: the EZK failover
# digests (replay, DIFF, SNAP, TRUNC) recorded while ZabNode still kept its
# own copy, the LogStore ownership rules (spans, cuts with batches in flight,
# blocks), and the pool's (one copy across stores, per-store cuts, key
# collisions, freed blocks, restored images). One crash incarnation per
# replica host: the failover digests and the reconfig digests (join, then
# the leader retires without crashing) recorded while each replica layer
# still kept its own generation counter.
echo "== spotlight: EZK failover and reconfig digests =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'ElisionDigestTest\.(EzkFailoverDigestsPinned|ReconfigDigestsPinned)'
# The extension-manager namespace (docs/coordscript.md, "The /em
# namespace"): every client write outside register / acknowledge-as-yourself
# / deregister-as-owner is refused on both services, a deregistration is one
# request, and a recipe client re-acknowledges after a session change.
echo "== spotlight: /em rules on EZK and EDS =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'EmRules/|EzkExtensionTest\.DeregistrationTakesAcksInOneRequest|ElisionDigestTest\.ReconfigFailedOverClientKeepsItsExtension'
# Every replica group boots through one fixture path and both shard routers
# share one retry core: the sharded EDS digests (fan-out join, scatter-gather,
# crash-restart, AddShard) and the 2-shard EZK two-phase digests were recorded
# before either was merged. Each router routes in one function, its API's
# request entry point: the sharded EZK digests (recipes, plain ops, a
# deletion watch, same- and cross-shard Multi, crash-restart, AddShard) were
# recorded before that, and the router tests hold every routing rule
# (cross-shard and empty Multi, unroutable single-tuple ops, scatter-gather).
echo "== spotlight: sharded EDS and EZK digests, 2-shard two-phase digests, router rules =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'ElisionDigestTest\.(ShardedEdsDigestsPinned|ShardedEzkDigestsPinned|TwoPhaseDigestsIdenticalWithVmOnAndOff)|ShardRouterTest\.|DsShardRouterTest\.'
echo "== spotlight: LogStore ownership and shared-pool rules, TRUNC with appends in flight, malformed kPropose =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'LogStoreOwnershipTest\.|RecordPoolTest\.|PipelineZabTrunc\.|PipelineZabPropose\.'
# Every wire message lists its fields once (src/edc/common/codec.h); these
# pin each message's bytes to constants recorded before that change.
echo "== spotlight: pinned wire format of every message =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'WireFormatTest\.'
echo "== spotlight: indexed tuple space vs linear-scan oracle =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'TupleSpaceDiffTest\.'
echo "== spotlight: observability zero-perturbation guarantee =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'ObsDeterminismTest\.'
echo "== spotlight: snapshot-shipped join + leader removal (docs/reconfig.md) =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'ReconfigAcceptance\.|ReconfigZabTest\.JoinerBehindLogFloorCatchesUpViaSnapshot|ReconfigServiceTest\.RollingReplacementKeepsClientConnected'
# One harness per layer: the service suites run on CoordFixture, the Zab
# suites on tests/zab/zab_cluster.h, the PBFT suites on
# tests/bft/bft_cluster.h. A suite that stops registering fails here.
echo "== spotlight: suites ported onto the per-layer harnesses =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R '^(ZkServiceTest|DsServiceTest|EzkExtensionTest|EdsExtensionTest|ZabClusterTest|ReconfigZabTest|BftClusterTest|BftRecovery|ZabChaosTest)\.'
echo "== spotlight: membership-episode schedule sweep =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'ReconfigScheduleSweep\.'
# Every column of fig_catchup, fig10_barrier and wan_gains is simulated time,
# so their stdout must match the committed bench_results/<name>.txt.
echo "== spotlight: deterministic bench gate (bench_results/*.txt) =="
ctest --output-on-failure -j "$JOBS" --no-tests=error -L bench
echo "== perfbench unit tests =="
(cd "$ROOT" && python3 perfbench/run.py --test)
echo "All checks passed."
