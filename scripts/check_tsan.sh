#!/usr/bin/env sh
# CI job: build with ThreadSanitizer and run the concurrency-
# sensitive tests (the sweep engine / thread pool, the traced
# kernels the sweep replays concurrently, the query-serving
# engine's batched fan-out, the online serving loop, the indexed
# serving route with its hot-reload epoch swaps (including reloads
# from another thread while batches are serving), the sharded
# result cache, the metrics registry, the sampled-simulation window
# fan-out, the two-phase traceback fan-out with its cached
# alignments, and the FASTA scan's per-thread diagonal scratch).
# Keeps the pool, loop, cache, registry, and sampler race-free.
# Every build compiles the hardware SIMD kernels, so the serving
# and traceback tests run their intrinsic paths under TSAN too.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -eu

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." -DBIOARCH_TSAN=ON
cmake --build "$BUILD_DIR" -j --target sweep_test kernels_test \
    serve_test obs_test index_test router_test sim_sample_test \
    traceback_test serve_traceback_test fasta_test
ctest --test-dir "$BUILD_DIR" \
    -L 'sweep_test|kernels_test|serve_test|obs_test|index_test|router_test|sim_sample_test|traceback_test|serve_traceback_test|fasta_test' \
    --output-on-failure -j
