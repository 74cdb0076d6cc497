#!/bin/sh
# Build with -DPACT_SANITIZE=thread and run the harness tests that
# exercise the parallel sweep API, so data races in parallelFor /
# Runner baseline cache are caught before they land. Skips (exit 0)
# when the toolchain has no usable TSan runtime, so it is safe to call
# unconditionally from CI.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build-tsan"}

# Probe for a working TSan runtime: some minimal images ship the
# compiler flag but not libtsan, which only surfaces at link time.
probe=$(mktemp -d)
trap 'rm -rf "$probe"' EXIT
cat >"$probe/t.cc" <<'EOF'
int main() { return 0; }
EOF
if ! ${CXX:-c++} -fsanitize=thread "$probe/t.cc" -o "$probe/t" \
    >/dev/null 2>&1; then
    echo "check_tsan: no usable TSan runtime; skipping" >&2
    exit 0
fi

cmake -B "$build" -S "$repo" -DPACT_SANITIZE=thread
cmake --build "$build" -j --target test_logging test_pool test_harness \
    test_txn test_trace_store test_multicore

# Concurrent tagged warn()s share one mutex-guarded stderr path. The
# LoggingDeath cases fork, which TSan reports on its own; skip them.
TSAN_OPTIONS="halt_on_error=1" "$build/tests/test_logging" \
    --gtest_filter='Logging.*'

# The pool tests force multi-threaded schedules themselves; PACT_JOBS=4
# additionally routes every default-jobs code path through the pool.
# test_trace_store adds parallel trace generation and concurrent
# zero-copy warm loads sharing one mapping. test_txn drives the
# transactional migration paths, including fault-injected engine runs
# that fan out through the pool.
PACT_JOBS=4 TSAN_OPTIONS="halt_on_error=1" "$build/tests/test_pool"
PACT_JOBS=4 TSAN_OPTIONS="halt_on_error=1" "$build/tests/test_harness"
PACT_JOBS=4 TSAN_OPTIONS="halt_on_error=1" "$build/tests/test_txn"
PACT_JOBS=4 TSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_trace_store"

# Multi-tenant engine with 4 tenants contending on shared tiers: the
# engine itself is serial, but its runs fan out through the pool and
# share bundles/baselines across threads.
PACT_JOBS=4 TSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_multicore" --gtest_filter='Multicore.SharedTier*:Multicore.TwoTenant*:Multicore.TenantRows*'
echo "check_tsan: clean"
