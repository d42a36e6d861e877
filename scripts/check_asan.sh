#!/usr/bin/env bash
# Builds every tier-1 test suite under AddressSanitizer and UBSan and runs
# them. The suites cover the in-place index maintenance paths
# (liveness-flag churn under the score spans, growth pending sidecars and
# arena folds, rollback resurrection, the parallel episode loop, epoch-snapshot reclamation in the serving tier,
# the id-keyed link store, the federated query cache's carry-forward and the
# resilient federation's fault paths, the sharded feedback aggregator's
# id-keyed tally churn, the engine's id-keyed verdict lookup, and the
# live-ingest path's blocking-index sidecars and overflow arenas), the
# byte-level readers and kernels (the snapshot loader's garbage and
# truncation tests, the N-Triples and Turtle parsers, the IRI-to-id table in
# rdf_tests, the reference and bit-parallel Levenshtein), the SPARQL
# executor's register-file operators and merge-join buffers against the
# term-space oracle in sparql_tests, the linking (PARIS, link I/O) and common
# (thread pool, strings) suites, and the CLI argument parser of
# tools/cli_common.h in tools_tests. A UBSan report fails the run
# (halt_on_error) instead of only being printed. Uses its own build
# directory so the regular build stays untouched. Override with
# BUILD_DIR=... .
set -euo pipefail
cd "$(dirname "$0")/.."
export UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}

build_dir=${BUILD_DIR:-build-asan}
cmake -B "$build_dir" -S . -DALEX_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build_dir" -j "$(nproc)" \
  --target core_tests system_tests serving_tests feedback_tests ingest_tests \
  rdf_tests similarity_tests sparql_tests federation_tests linking_tests \
  common_tests tools_tests

"$build_dir"/tests/core_tests
"$build_dir"/tests/system_tests
"$build_dir"/tests/serving_tests
"$build_dir"/tests/feedback_tests
"$build_dir"/tests/ingest_tests
"$build_dir"/tests/rdf_tests
"$build_dir"/tests/similarity_tests
"$build_dir"/tests/sparql_tests
"$build_dir"/tests/federation_tests
"$build_dir"/tests/linking_tests
"$build_dir"/tests/common_tests
"$build_dir"/tests/tools_tests
echo "asan: clean"
