#!/usr/bin/env bash
# Full local gate: configure + build, then run the test tiers the CI presets
# select — the plain suite, the chaos fault-injection scenarios, the
# model-conformance sweeps (docs/model_checking.md), the observability layer
# (docs/observability.md), the sharded coordination plane (docs/sharding.md),
# the dynamic-membership suite (docs/reconfig.md),
# the bytecode-VM conformance tier (docs/bytecode_vm.md),
# the raw PBFT ordering, view-change and batching tier (src/edc/bft/replica.h),
# and the lint tier (docs/static_analysis.md):
# edc-lint golden tests, edc-lint over the example scripts, and clang-tidy
# when available. Any failure aborts.
#
# Usage: scripts/check.sh [--lint] [build-dir]   (default build dir: build)
#   --lint   run only the lint tier (golden tests + edc-lint + clang-tidy)

set -euo pipefail
cd "$(dirname "$0")/.."

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
    echo "== lint: clang-tidy (script + ext) =="
    clang-tidy -p "$BUILD_DIR" --quiet \
      src/edc/script/*.cpp src/edc/script/analysis/*.cpp src/edc/ext/*.cpp
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
echo "== bytecode VM conformance tests =="
ctest --output-on-failure -j "$JOBS" --no-tests=error -L vm
echo "== PBFT ordering, view-change and batching tests =="
ctest --output-on-failure -j "$JOBS" --no-tests=error -L bft
# Spotlight the recovery/crash-restart families (docs/bft_recovery.md): these
# already ran inside the tiers above, but --no-tests=error makes the gate fail
# loudly if a rename or CMake edit silently drops them from discovery.
echo "== spotlight: BFT recovery + crash-restart chaos =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'BftRecovery\.|ChaosTest\.CrashRestartEdsReplicaRejoinsViaStateTransfer'
echo "== spotlight: EDS schedule sweep (crash-restart grammar) =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'DsScheduleSweep\.'
echo "== spotlight: observability zero-perturbation guarantee =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'ObsDeterminismTest\.'
echo "== spotlight: snapshot-shipped join + leader removal (docs/reconfig.md) =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'ReconfigAcceptance\.|ReconfigZabTest\.JoinerBehindLogFloorCatchesUpViaSnapshot|ReconfigServiceTest\.RollingReplacementKeepsClientConnected'
echo "== spotlight: membership-episode schedule sweep =="
ctest --output-on-failure -j "$JOBS" --no-tests=error \
  -R 'ReconfigScheduleSweep\.'
echo "All checks passed."
