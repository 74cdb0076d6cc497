#!/bin/sh
# Run the robustness tests in the ASan + UBSan tree that
# scripts/build_asan.sh builds (a no-op when it is up to date), so
# memory errors on the fault-injection / failure paths — exactly the
# paths ordinary green runs never exercise — are caught before they
# land. Skips (exit 0) when the toolchain has no usable ASan runtime,
# so it is safe to call unconditionally from CI.
#
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build-asan"}

"$repo/scripts/build_asan.sh" "$build"
# build_asan.sh skipped: there is nothing to run.
[ -f "$build/CMakeCache.txt" ] || exit 0

# halt_on_error so the first report fails the script rather than
# scrolling past; the robustness tests drive every fault class plus
# the exception-capturing sweep, test_txn the transactional migration
# state machine (shadow copies, rollback, retry, admission control),
# test_pool the parallel machinery, test_trace_store the mmap lifetime
# (shared mappings, munmap on last release) and the corrupt-file
# fallback paths.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_robustness"
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_txn"
PACT_JOBS=4 ASAN_OPTIONS="halt_on_error=1" \
    UBSAN_OPTIONS="halt_on_error=1" "$build/tests/test_pool"
PACT_JOBS=4 ASAN_OPTIONS="halt_on_error=1" \
    UBSAN_OPTIONS="halt_on_error=1" "$build/tests/test_trace_store"

# The LLC tag store indexes each set through raw pointers into its
# tag/stamp block; the differential test drives every associativity
# the model is tested at.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_cache"

# LLC outcome replay decodes 2-bit codes out of 64-bit words by shift
# and mask; the harness tests replay every registry policy over three
# workloads, 4 KB and THP, and feed it corrupted streams.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_harness"

# The hint-arming index masks the first and last word of each range by
# shifts of the page index's low six bits; a shift by 64 is undefined
# behaviour that UBSan reports. The reference-model test drives ranges
# starting and ending on and off word boundaries.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_tier_manager"

# The PAC table's probe loop, growth re-probe and occupied-slot index
# (sorted tail merged into the prefix on each walk) all index the SoA
# field arrays by raw slot number.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_pac_table"

# The core keeps each tier's outstanding misses in a power-of-two ring
# indexed by free-running cursors masked to the slot array; the CPU
# tests drive full MSHR and ROB waits, queued starts and both tiers.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    "$build/tests/test_cpu"

# Multi-tenant engine with 4 tenants on shared tiers: per-tenant
# PEBS/PMU/daemon state plus the flat core array is exactly the kind
# of ownership split where a stale reference would hide.
PACT_JOBS=4 ASAN_OPTIONS="halt_on_error=1" \
    UBSAN_OPTIONS="halt_on_error=1" "$build/tests/test_multicore" \
    --gtest_filter='Multicore.SharedTier*:Multicore.TwoTenant*:Multicore.TenantRows*'
echo "check_asan: clean"
