#!/bin/sh
# Integration test of the `fits` CLI: generate, inspect, rank, taint,
# disassemble, and score one image end to end. Invoked by ctest with
# the path to the fits binary as $1.
set -e

FITS="$1"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
IMG="$DIR/cli_test.fwimg"

"$FITS" gen "$IMG" --vendor Tenda --seed 77 > "$DIR/gen.out"
grep -q "wrote" "$DIR/gen.out"
test -s "$IMG"
test -s "$IMG.truth"

"$FITS" info "$IMG" > "$DIR/info.out"
grep -q "network binary" "$DIR/info.out"
grep -q "libc.so" "$DIR/info.out"

"$FITS" rank "$IMG" --top 3 > "$DIR/rank.out"
grep -q "#1" "$DIR/rank.out"

# The rank-1 entry should be the ground-truth ITS for this seed.
ITS=$(grep '^its' "$IMG.truth" | awk '{print $2}')
grep -q "$ITS" "$DIR/rank.out"

"$FITS" taint "$IMG" --engine sta --its "$ITS" > "$DIR/taint.out"
grep -q "alerts" "$DIR/taint.out"
"$FITS" taint "$IMG" --engine karonte --its "$ITS" \
    > "$DIR/taint_karonte.out"
grep -q "^karonte: .* alerts" "$DIR/taint_karonte.out"

"$FITS" disasm "$IMG" "$ITS" > "$DIR/disasm.out"
grep -q "function" "$DIR/disasm.out"
grep -q "GET(r0)" "$DIR/disasm.out"

"$FITS" score "$IMG" > "$DIR/score.out"
grep -q "top-3 hit" "$DIR/score.out"

# `fits score` ranks and taints one analysis: it explores exactly as
# many UCSE steps as `fits rank` on the same image.
ucse_steps() {
    sed -n 's/.*"analysis\.ucse\.steps": \([0-9]*\).*/\1/p' "$1"
}
FITS_CACHE_DIR= FITS_METRICS="$DIR/rank_metrics.json" \
    "$FITS" rank "$IMG" > /dev/null
FITS_METRICS="$DIR/score_metrics.json" "$FITS" score "$IMG" > /dev/null
RANK_STEPS=$(ucse_steps "$DIR/rank_metrics.json")
SCORE_STEPS=$(ucse_steps "$DIR/score_metrics.json")
test "${RANK_STEPS:-0}" -gt 0
test "$RANK_STEPS" = "$SCORE_STEPS" || {
    echo "score explored $SCORE_STEPS UCSE steps, rank $RANK_STEPS" >&2
    exit 1
}

# A single-image report under an expired stage budget still prints its
# ranking, and says on stderr why it is partial.
FITS_CACHE_DIR= FITS_STAGE_TIMEOUT_MS=0.001 "$FITS" rank "$IMG" \
    > "$DIR/rank_degraded.out" 2> "$DIR/rank_degraded.err"
grep -q "sample degraded: .*cli_test.fwimg" "$DIR/rank_degraded.err"

# Parallel corpus evaluation honors FITS_JOBS and reports totals.
FITS_JOBS=2 "$FITS" corpus > "$DIR/corpus.out"
grep -q "2 worker threads" "$DIR/corpus.out"
grep -q "Overall" "$DIR/corpus.out"
grep -q "wall clock" "$DIR/corpus.out"
grep -q "failed samples:" "$DIR/corpus.out"
grep -q "^cache: .* tier=mem$" "$DIR/corpus.out"

# --no-cache turns every tier off; a persistent tier via FITS_CACHE_DIR
# makes the second invocation warm. Result tables are identical in all
# three configurations.
FITS_JOBS=2 "$FITS" corpus --no-cache > "$DIR/corpus_nocache.out"
grep -q "tier=off" "$DIR/corpus_nocache.out"
FITS_JOBS=2 FITS_CACHE_DIR="$DIR/cache" "$FITS" corpus \
    > "$DIR/corpus_cold.out"
grep -q "tier=mem+disk" "$DIR/corpus_cold.out"
ls "$DIR/cache"/*.fcb > /dev/null
FITS_JOBS=2 FITS_CACHE_DIR="$DIR/cache" "$FITS" corpus \
    > "$DIR/corpus_warm.out"
grep -v "wall clock\|^cache:" "$DIR/corpus.out" > "$DIR/corpus.ref"
for out in corpus_nocache corpus_cold corpus_warm; do
    grep -v "wall clock\|^cache:" "$DIR/$out.out" > "$DIR/$out.cmp"
    cmp "$DIR/corpus.ref" "$DIR/$out.cmp" || {
        echo "corpus output differs under cache config $out" >&2
        exit 1
    }
done

# Two fills racing on one fresh cache directory each write through
# their own temp files, so neither can tear the other's entries: a
# third run gets a disk hit for every analyzable sample.
FITS_JOBS=2 FITS_CACHE_DIR="$DIR/shared" "$FITS" corpus \
    > "$DIR/fill_a.out" &
FILL_A=$!
FITS_JOBS=2 FITS_CACHE_DIR="$DIR/shared" "$FITS" corpus \
    > "$DIR/fill_b.out"
wait "$FILL_A"
FITS_JOBS=2 FITS_CACHE_DIR="$DIR/shared" "$FITS" corpus \
    --metrics-out "$DIR/shared.json" > "$DIR/shared.out"
ANALYZABLE=$(sed -n 's/.*"pipeline\.ok": \([0-9]*\).*/\1/p' \
    "$DIR/shared.json")
test "${ANALYZABLE:-0}" -gt 0
grep -q "\"cache.disk.hits\": $ANALYZABLE," "$DIR/shared.json" || {
    echo "shared cache: not every analyzable sample hit disk" >&2
    exit 1
}
if grep -q '"cache.disk.corrupt"' "$DIR/shared.json" ||
        ls "$DIR/shared" | grep -q '\.tmp\.'; then
    echo "shared cache: torn entry or leftover temp file" >&2
    exit 1
fi
grep -v "wall clock\|^cache:\|^metrics written" "$DIR/shared.out" \
    > "$DIR/shared.cmp"
cmp "$DIR/corpus.ref" "$DIR/shared.cmp"

# --dir evaluates on-disk images; --metrics-out writes a JSON snapshot
# with the instrumented pipeline stages and taint counters.
mkdir "$DIR/corpus"
cp "$IMG" "$DIR/corpus/"
"$FITS" corpus --dir "$DIR/corpus" --taint --jobs 2 \
    --metrics-out "$DIR/metrics.json" > "$DIR/corpus_dir.out"
test -s "$DIR/metrics.json"
for key in pipeline/unpack pipeline/select pipeline/lift \
           pipeline/ucse pipeline/bfv pipeline/infer \
           taint/karonte taint/sta \
           taint.karonte.phase_a_steps taint.sta.fixpoint_steps \
           corpus.samples threadpool.tasks; do
    grep -q "\"$key\"" "$DIR/metrics.json" || {
        echo "metrics.json is missing $key" >&2
        exit 1
    }
done

# A corpus where every sample fails must exit non-zero and say so.
mkdir "$DIR/badcorpus"
echo "not a firmware image" > "$DIR/badcorpus/garbage.fwimg"
if "$FITS" corpus --dir "$DIR/badcorpus" > "$DIR/allfail.out" \
        2> "$DIR/allfail.err"; then
    echo "expected failure when every sample fails" >&2
    exit 1
fi
grep -q "failed samples: 1/1" "$DIR/allfail.out"
grep -q "garbage.fwimg" "$DIR/allfail.err"

# Error paths exit non-zero with a per-path diagnostic.
if "$FITS" info /nonexistent.fwimg 2> "$DIR/missing.err"; then
    echo "expected failure on a missing file" >&2
    exit 1
fi
grep -q "no such file" "$DIR/missing.err"
if "$FITS" info "$DIR" 2> "$DIR/isdir.err"; then
    echo "expected failure on a directory argument" >&2
    exit 1
fi
grep -q "is a directory" "$DIR/isdir.err"
if "$FITS" corpus --dir /no/such/dir 2> "$DIR/baddir.err"; then
    echo "expected failure on a missing corpus dir" >&2
    exit 1
fi
grep -q "no such directory" "$DIR/baddir.err"
if "$FITS" bogus-command x 2> /dev/null; then
    echo "expected usage failure" >&2
    exit 1
fi

# Corrupted on-disk images fail with a typed unpack error — never a
# crash: a truncated copy and a bit-flipped copy of a valid image.
head -c 100 "$IMG" > "$DIR/trunc.fwimg"
if "$FITS" info "$DIR/trunc.fwimg" 2> "$DIR/trunc.err"; then
    echo "expected failure on a truncated image" >&2
    exit 1
fi
grep -q "unpack failed" "$DIR/trunc.err"
cp "$IMG" "$DIR/flipped.fwimg"
printf '\377' | dd of="$DIR/flipped.fwimg" bs=1 seek=200 \
    conv=notrunc 2> /dev/null
if "$FITS" info "$DIR/flipped.fwimg" 2> "$DIR/flipped.err"; then
    echo "expected failure on a bit-flipped image" >&2
    exit 1
fi
grep -q "unpack failed" "$DIR/flipped.err"
mkdir "$DIR/corrupt"
cp "$DIR/trunc.fwimg" "$DIR/flipped.fwimg" "$DIR/corrupt/"
if "$FITS" corpus --dir "$DIR/corrupt" > "$DIR/corrupt.out" \
        2> /dev/null; then
    echo "expected failure on an all-corrupt corpus" >&2
    exit 1
fi
grep -q "failed samples: 2/2" "$DIR/corrupt.out"

# The fault-site catalog is printed by `fits faults`.
"$FITS" faults > "$DIR/faults.out"
grep -q "unpack.magic" "$DIR/faults.out"
grep -q "taint.karonte" "$DIR/faults.out"
grep -q "FITS_FAULTS" "$DIR/faults.out"

# An injected unpack fault surfaces as a typed, named error.
if FITS_FAULTS=unpack.magic "$FITS" info "$IMG" \
        2> "$DIR/fault.err"; then
    echo "expected failure under FITS_FAULTS=unpack.magic" >&2
    exit 1
fi
grep -q "injected fault at unpack.magic" "$DIR/fault.err"

# A malformed spec is reported and ignored; the run still succeeds.
FITS_FAULTS=bogus.site "$FITS" info "$IMG" > /dev/null \
    2> "$DIR/badspec.err"
grep -q "ignoring FITS_FAULTS" "$DIR/badspec.err"

# A one-shot fault is absorbed by the corpus runner's retry.
FITS_FAULTS="unpack.magic#1:1" "$FITS" corpus --dir "$DIR/corpus" \
    --jobs 1 > "$DIR/retry.out"
grep -q "degraded samples: 0/1 (1 retried)" "$DIR/retry.out"

# An immediately-expiring stage budget degrades instead of failing.
FITS_STAGE_TIMEOUT_MS=0.001 "$FITS" corpus --dir "$DIR/corpus" \
    --jobs 1 > "$DIR/degraded.out" 2> "$DIR/degraded.err"
grep -q "degraded samples: 1/1" "$DIR/degraded.out"
grep -q "sample degraded" "$DIR/degraded.err"

echo "cli ok"
