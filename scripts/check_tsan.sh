#!/usr/bin/env bash
# Builds the test suites most exposed to the parallel paths (feature-space
# construction, blocking-index build, parallel episodes, the shared oracle,
# the concurrent serving tier's reader streams and link-store readers that
# follow publishes, the federated query cache and parse cache shared by
# reader streams, the sharded feedback aggregator's concurrent vote
# writers, and the ingest differential's multi-threaded engine pairs)
# under ThreadSanitizer and runs them. Uses its own build
# directory so the regular build stays untouched.
# Override with BUILD_DIR=... ; pass ALEX_SANITIZE=address the same way via
# CMake directly if needed.
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir=${BUILD_DIR:-build-tsan}
cmake -B "$build_dir" -S . -DALEX_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)" \
  --target core_tests system_tests serving_tests feedback_tests ingest_tests \
  federation_tests

"$build_dir"/tests/core_tests
"$build_dir"/tests/system_tests
"$build_dir"/tests/serving_tests
"$build_dir"/tests/feedback_tests
"$build_dir"/tests/ingest_tests
"$build_dir"/tests/federation_tests
echo "tsan: clean"
