#!/bin/sh
# Build the test suite under UndefinedBehaviorSanitizer and run the
# suites most likely to hit UB on adversarial input: the corruption /
# truncation fuzzers, the chaos fault-injection sweep, the binary and
# firmware container decoders, the behavior-bundle codec (corrupt
# payloads and well-formed entries with hostile ids), the bundle
# oracle sweep (truncated and byte-flipped payloads through the bulk
# decoder), the hash64 pins, the disk-format skew test, and the DBSCAN
# oracle sweep (NaN, infinite and signed-zero rows through the
# duplicate-merging hash and the distance scan). Any UB report aborts
# the run (-fno-sanitize-recover=all).
#
# Usage: tools/check_ubsan.sh [build-dir]   (default: build-ubsan)
set -e

. "$(dirname "$0")/lib.sh"
BUILD=${1:-"$FITS_ROOT/build-ubsan"}

fits_sanitized_tests "$BUILD" undefined

UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" FITS_JOBS=4 \
    "$BUILD/tests/fits_tests" \
    --gtest_filter='ChaosTest.*:Deadline.*:Corruption.*:Fbin.*:ByteBuf.*:Fwimg.*:DbscanOracle.*:CacheTest.*Bundle*:CacheTest.DecodeRejects*:BundleOracle.*:Hash64.*:CacheTest.FormatVersionSkew*'

echo "ubsan: no undefined behavior detected"
