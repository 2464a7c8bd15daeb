#ifndef FITS_EVAL_REPORT_HH_
#define FITS_EVAL_REPORT_HH_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/status.hh"

namespace fits::eval {

/**
 * Text-report layer behind the CLI's `fits corpus`, `fits rank` and
 * `fits taint`: one implementation renders the evaluation tables. The
 * single-image reports run FitsPipeline::analyze, so they see the same
 * artifact, stage budgets and degraded issues as a corpus sample.
 *
 * Everything here is deterministic except wall-clock milliseconds,
 * which are reported as data (never baked into `text`) so callers can
 * place — or filter — the timing line themselves.
 */

/** One corpus evaluation request. */
struct CorpusOptions
{
    /** Worker count; 0 = FITS_JOBS / hardware (CorpusRunner rules). */
    std::size_t jobs = 0;
    /** Also run the four Table-5 taint configurations. */
    bool taint = false;
    /** Consult the analysis cache (identical results either way). */
    bool cache = true;
    /** Evaluate every *.fwimg under this directory instead of the
     * standard synthetic corpus. */
    std::string dir;
    /** Called with the "evaluating N samples..." header once the
     * corpus is loaded, before the (long) evaluation runs — the
     * CLI uses it for eager progress output. */
    std::function<void(const std::string &)> onHeader;
};

/** Rendered outcome of one corpus evaluation. */
struct CorpusReport
{
    /** False when the corpus could not be loaded at all (bad --dir,
     * zero samples); `error` carries the diagnostic. */
    bool ok = false;
    std::string error;

    /** Deterministic report body: the per-vendor precision table,
     * the taint-engine table (when requested), and the
     * failed/degraded summary lines. */
    std::string text;
    /** Per-sample "sample failed:"/"sample degraded:" diagnostics,
     * one per line, in outcome order (the CLI's stderr stream). */
    std::string diagnostics;

    std::size_t samples = 0;
    std::size_t failed = 0;
    /** Resolved worker count used for the fan-out. */
    std::size_t jobs = 0;
    double wallMs = 0.0;

    /** Process exit code: 1 when every sample failed. */
    int
    exitCode() const
    {
        return samples > 0 && failed == samples ? 1 : 0;
    }
};

/** Run a corpus evaluation and render it. Loads the corpus (standard
 * or --dir), fans out through a CorpusRunner, and renders exactly the
 * tables `fits corpus` prints. */
CorpusReport runCorpusReport(const CorpusOptions &options);

/** "wall clock: %.1f ms with %zu jobs\n" — the timing line. */
std::string renderWallClock(double wallMs, std::size_t jobs);

/** "cache: H hits / M misses, X MiB, tier=...\n" over the process-wide
 * cache counters, exactly as `fits corpus` prints it. */
std::string renderCacheSummary();

/** "sample degraded: NAME: ISSUE; ISSUE\n" — the stderr line for a
 * partial result, as `fits corpus` prints it per sample. */
std::string renderDegraded(const std::string &name,
                           const std::vector<support::Status> &issues);

/** Rendered outcome of a single-image report (rank / taint). */
struct TextReport
{
    bool ok = false;
    std::string error; ///< stderr diagnostic when !ok
    std::string text;  ///< stdout text when ok
    /** The result is partial (see PipelineArtifact::degraded, or a
     * taint engine stopped at its budget); `issues` says why. */
    bool degraded = false;
    std::vector<support::Status> issues;
};

/** `fits rank` body: run the pipeline on image bytes and render the
 * analyzed-summary line plus the top-`top` ranking. */
TextReport runRankReport(const std::vector<std::uint8_t> &bytes,
                         std::size_t top, bool useSymbols);

/** `fits taint` body: run one engine ("sta" or "karonte") on the
 * pipeline's analysis, under the taint stage budget, with the
 * classical sources plus the given ITS addresses, and render the alert
 * list (ITS runs apply the system-data filter). The engine still runs
 * when only inference failed. */
TextReport runTaintReport(const std::vector<std::uint8_t> &bytes,
                          const std::string &engine,
                          const std::vector<std::uint64_t> &itsAddrs);

} // namespace fits::eval

#endif // FITS_EVAL_REPORT_HH_
