#!/bin/sh
# Build the test suite under AddressSanitizer (+ UBSan, via the
# FITS_SANITIZE=address toolchain flags) and run the full suite. Any
# heap error, overflow, or leak fails the run.
#
# Usage: tools/check_asan.sh [build-dir]   (default: build-asan)
set -e

. "$(dirname "$0")/lib.sh"
BUILD=${1:-"$FITS_ROOT/build-asan"}

fits_sanitized_tests "$BUILD" address

ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" FITS_JOBS=4 \
    "$BUILD/tests/fits_tests"

# Second pass: the chaos fault-injection sweep and the corruption
# fuzzers (truncated / bit-flipped containers) specifically probe the
# decoder bounds checks that ASan is best at catching; the DBSCAN
# oracle sweep drives the duplicate-merging index maps with NaN and
# signed-zero rows; the behavior-bundle oracle sweep drives the bulk
# decoder's bounds checks with truncated and byte-flipped payloads, and
# the hash64 pins and the disk-format skew test cover the cache-entry
# reader.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" FITS_JOBS=4 \
    "$BUILD/tests/fits_tests" \
    --gtest_filter='ChaosTest.*:Corruption.*:Fbin.RejectsEveryTruncation:Fbin.SurvivesRandomByteFlips:DbscanOracle.*:BundleOracle.*:Hash64.*:CacheTest.FormatVersionSkew*'

echo "asan: no memory errors detected"
