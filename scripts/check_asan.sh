#!/usr/bin/env sh
# CI job: build with AddressSanitizer + UndefinedBehaviorSanitizer
# and run the tests of the alignment kernels and the traceback tier:
# the native striped / inter-sequence scans on every compiled
# backend (sw_native_test), the locate, anchored reverse and
# rectangle-fill passes that index striped columns by computed rows
# (traceback_test), the served CIGARs across jobs, shards and
# backends (serve_traceback_test), and the sampled simulator, whose
# walker moves machine-state snapshots into pool tasks it submits
# from inside its own task (sim_sample_test), and the compact
# trace: its encoder and decoder (trace_test) and the v2 file
# reader's validation of untrusted headers, static tables and
# records (trace_io_test), and the serving engine's one entry
# point, serveBatch, with its cache lookup / miss batch / stitch
# path and the ServeLoop that drives it (serve_test, router_test),
# and the banded kernel, whose unaligned slice loads run up to one
# vector into the pads of its profile rows: its oracle fuzz
# (align_test), FASTA's opt stage over a corpus (fasta_test) and
# BLAST's gapped stage, protein (blast_test) and nucleotide
# (blastn_test). Every build compiles the
# hardware SIMD backends, so the intrinsic paths run under the
# sanitizers too. Any out-of-bounds access, leak or undefined
# behavior fails the run.
#
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -eu

BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." -DBIOARCH_ASAN=ON
cmake --build "$BUILD_DIR" -j --target traceback_test sw_native_test \
    serve_traceback_test sim_sample_test trace_test trace_io_test \
    serve_test router_test align_test fasta_test blast_test blastn_test
ctest --test-dir "$BUILD_DIR" \
    -L 'traceback_test|sw_native_test|serve_traceback_test|sim_sample_test|trace_test|trace_io_test|serve_test|router_test|align_test|fasta_test|blast_test|blastn_test' \
    --output-on-failure -j
