#!/bin/sh
# Build the test suite under ThreadSanitizer and run the concurrency
# tests with several workers. Any data race fails the run (TSan exits
# non-zero via halt_on_error handling of its report count).
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)
set -e

. "$(dirname "$0")/lib.sh"
BUILD=${1:-"$FITS_ROOT/build-tsan"}

fits_sanitized_tests "$BUILD" thread

# Exercise the parallel machinery specifically: the thread pool, the
# corpus runner fan-out, the logger, and the metrics registry
# (concurrent instrument updates + snapshots).
TSAN_OPTIONS="halt_on_error=1" FITS_JOBS=4 "$BUILD/tests/fits_tests" \
    --gtest_filter='ThreadPool.*:ResolveJobs.*:CorpusRunner.*:Logger.*:Obs*'

# The chaos registry is lock-free (relaxed atomic counters read by
# concurrent pipeline workers); run the injection sweep under TSan to
# prove arming faults does not introduce races into the fan-out.
TSAN_OPTIONS="halt_on_error=1" FITS_JOBS=4 "$BUILD/tests/fits_tests" \
    --gtest_filter='ChaosTest.*'

# The analysis cache is shared mutable state under the fan-out: the
# library map (concurrent misses on one library racing to insert),
# admission-cap accounting, and stat counters all see concurrent
# workers in the parallel-ranking tests.
TSAN_OPTIONS="halt_on_error=1" FITS_JOBS=4 "$BUILD/tests/fits_tests" \
    --gtest_filter='CacheTest.*'

echo "tsan: no data races detected"
