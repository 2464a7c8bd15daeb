#!/bin/sh
# Performance regression check: run the micro-benchmarks and the
# Figure-4 time/overhead bench, write their BENCH_*.json records, and
# compare the headline numbers against the committed baselines at the
# repo root. Timing regressions WARN — they never fail the build,
# because wall-clock numbers are machine-dependent; the point is a
# visible diff next to the functional checks, plus fresh baselines to
# commit when a change is intentional. Under GitHub Actions each
# regression additionally emits a `::warning::` annotation so it
# surfaces on the PR without failing it.
#
# Work counters are different. A `fits corpus --taint --no-cache` run
# counts functions, UCSE steps, dataflow block visits, DBSCAN
# distance evaluations and taint-engine steps, which depend only on
# the input. The serial run's counters are written to
# BENCH_corpus_counters.json and must equal the committed baseline
# exactly, and a 4-job run must count the same: any difference FAILS. A change that moves a counter on purpose
# commits the new record (copy it from out-dir) and says why in
# CHANGES.md.
#
# The script also exits non-zero when the harness itself fails
# (benchmarks do not build, run, or record).
#
# Usage: tools/check_perf.sh [build-dir] [out-dir]
#   build-dir  default: build        (must already be configured)
#   out-dir    default: <build-dir>/perf   (new BENCH_*.json land here)
set -e

. "$(dirname "$0")/lib.sh"
BUILD=$(fits_abspath "${1:-"$FITS_ROOT/build"}")
OUT=$(fits_abspath "${2:-"$BUILD/perf"}")

fits_build "$BUILD" bench_micro bench_fig4_time_overhead fits
mkdir -p "$OUT"

# Old google-benchmark: --benchmark_min_time takes plain seconds.
(cd "$OUT" && FITS_BENCH_DIR="$OUT" \
    "$BUILD/bench/bench_micro" --benchmark_min_time=0.2)
(cd "$OUT" && FITS_BENCH_DIR="$OUT" "$BUILD/bench/bench_fig4_time_overhead")

# Warn-only comparison of every shared numeric field, baseline vs new.
python3 - "$FITS_ROOT" "$OUT" <<'EOF'
import json, os, sys

root, out = sys.argv[1], sys.argv[2]
tolerance = 0.15  # warn beyond +/-15%
warned = False
missing_record = False
for name in ("BENCH_micro.json", "BENCH_fig4_time_overhead.json"):
    base_path = os.path.join(root, name)
    new_path = os.path.join(out, name)
    if not os.path.exists(new_path):
        print(f"perf: {name}: no new record produced", file=sys.stderr)
        missing_record = True
        continue
    if not os.path.exists(base_path):
        print(f"perf: {name}: no committed baseline; copy "
              f"{new_path} to the repo root to create one")
        continue
    base = json.load(open(base_path))["fields"]
    new = json.load(open(new_path))["fields"]
    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        if not isinstance(b, (int, float)) or not isinstance(n, (int, float)):
            continue
        if b == 0:
            continue
        delta = (n - b) / abs(b)
        marker = ""
        if key.endswith("_ms") and delta > tolerance:
            marker = "  <-- WARNING: slower than baseline"
            warned = True
            # Machine-readable GitHub Actions annotation: shows up on
            # the PR checks page without failing the job.
            print(f"::warning title=perf regression::"
                  f"{name[6:-5]}.{key}: baseline {b:g} -> {n:g} "
                  f"({delta:+.1%})")
        print(f"perf: {name[6:-5]}.{key}: baseline {b:g} -> {n:g} "
              f"({delta:+.1%}){marker}")
print("perf: comparison is advisory only (warn, never fail)"
      if warned else "perf: within baseline tolerance")
# A missing record means the harness itself broke: that DOES fail.
sys.exit(1 if missing_record else 0)
EOF

# Exact work-counter gate over the whole corpus, serial and 4 jobs.
for jobs in 1 4; do
    "$BUILD/tools/fits" corpus --taint --no-cache --jobs "$jobs" \
        --metrics-out "$OUT/corpus_metrics_j$jobs.json" \
        > "$OUT/corpus_j$jobs.out" 2>&1
done
python3 - "$FITS_ROOT" "$OUT" <<'EOF'
import json, os, sys

root, out = sys.argv[1], sys.argv[2]
keys = (
    "pipeline.functions",
    "analysis.ucse.steps",
    "analysis.reachdef.block_visits",
    "kernel.cluster.distance_evals",
    "taint.sta.fixpoint_steps",
    "taint.sta.sweep_steps",
    "taint.sta.functions_processed",
    "taint.sta.alerts",
    "taint.karonte.phase_a_steps",
    "taint.karonte.forked_paths",
)

def counters(jobs):
    path = os.path.join(out, f"corpus_metrics_j{jobs}.json")
    found = json.load(open(path))["counters"]
    return {k: found.get(k, 0) for k in keys}

serial, parallel = counters(1), counters(4)
new_path = os.path.join(out, "BENCH_corpus_counters.json")
with open(new_path, "w") as f:
    json.dump({"bench": "corpus_counters", "fields": serial}, f, indent=2)
    f.write("\n")

failed = False
for k in keys:
    if parallel[k] != serial[k]:
        print(f"perf: corpus_counters.{k}: 1 job {serial[k]} != "
              f"4 jobs {parallel[k]}  <-- FAIL")
        failed = True
base_path = os.path.join(root, "BENCH_corpus_counters.json")
if not os.path.exists(base_path):
    print(f"perf: no committed BENCH_corpus_counters.json; copy "
          f"{new_path} to the repo root to create one")
    sys.exit(1)
base = json.load(open(base_path))
for k in keys:
    b, n = base["fields"].get(k), serial[k]
    marker = "" if b == n else "  <-- FAIL: counter moved"
    failed |= b != n
    print(f"perf: corpus_counters.{k}: baseline {b} -> {n}{marker}")
if failed:
    print(f"perf: work counters differ; if intended, copy {new_path} "
          f"to the repo root and say why in CHANGES.md")
    sys.exit(1)
print("perf: work counters identical to baseline")
EOF

echo "perf: records written to $OUT"
