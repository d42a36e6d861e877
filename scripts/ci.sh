#!/usr/bin/env bash
# Single CI entry point: tier-1 build + full ctest, then the sanitizer
# sweeps, then the timing-ratio gates (bench/bench_gates.cc, built in
# Release; it prints a host block and one PASS/FAIL line per gate). Each
# stage uses its own build directory (build-ci, build-asan, build-tsan,
# build-bench) so a local development build stays untouched.
#
#   scripts/ci.sh            # everything
#   SKIP_SANITIZERS=1 scripts/ci.sh   # skip the sanitizer sweeps
#   SKIP_BENCHES=1 scripts/ci.sh      # skip the timing-ratio gates
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir=${BUILD_DIR:-build-ci}

echo "== tier 1: build + ctest =="
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

if [[ "${SKIP_SANITIZERS:-0}" != "1" ]]; then
  echo "== tier 2: sanitizers =="
  scripts/check_asan.sh
  scripts/check_tsan.sh
fi

if [[ "${SKIP_BENCHES:-0}" != "1" ]]; then
  echo "== tier 3: timing-ratio gates =="
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-bench -j "$(nproc)" --target bench_gates
  build-bench/bench/bench_gates
fi

echo "ci: all stages passed"
