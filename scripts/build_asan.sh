#!/bin/sh
# Configure and build the ASan + UBSan tree (-DPACT_SANITIZE=address,
# see the top-level CMakeLists) with the test binaries that
# scripts/check_asan.sh runs. Skips (exit 0, nothing built) when the
# toolchain has no usable ASan runtime. The ctest entry
# check_asan_build runs it alone, before check_asan, so the
# sanitized build never competes with other tests for the CPU.
#
# Usage: scripts/build_asan.sh [build-dir]   (default: build-asan)
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$repo/build-asan"}

# Probe for a working ASan+UBSan runtime: some minimal images ship the
# compiler flag but not the runtime, which only surfaces at link time.
probe=$(mktemp -d)
trap 'rm -rf "$probe"' EXIT
cat >"$probe/t.cc" <<'EOT'
int main() { return 0; }
EOT
if ! ${CXX:-c++} -fsanitize=address,undefined "$probe/t.cc" \
    -o "$probe/t" >/dev/null 2>&1; then
    echo "check_asan: no usable ASan runtime; skipping" >&2
    exit 0
fi

cmake -B "$build" -S "$repo" -DPACT_SANITIZE=address
# One compile per core: a bare -j starts dozens of sanitized compiles
# at once and measured no faster.
cmake --build "$build" -j "$(nproc)" --target test_robustness test_txn test_pool \
    test_trace_store test_multicore test_cache test_tier_manager \
    test_harness test_pac_table test_cpu
