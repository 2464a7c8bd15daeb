#ifndef FITS_OBS_BENCH_RECORD_HH_
#define FITS_OBS_BENCH_RECORD_HH_

#include <string>
#include <utility>
#include <vector>

namespace fits::obs {

/**
 * Structured result record of one bench binary run. Every bench main
 * fills one of these with its headline numbers and calls write(),
 * which produces `BENCH_<name>.json` containing:
 *
 *   { "bench": "<name>", "fields": {...}, "metrics": {...} }
 *
 * `fields` are the scalars the bench itself reports (precision rates,
 * correlations, wall time); `metrics` is the full obs registry
 * snapshot, so per-stage timings and taint budget counters ride along
 * whenever collection is enabled.
 *
 * The record lands in `$FITS_BENCH_DIR` when that variable is set,
 * otherwise in the build tree the library was configured in (never the
 * current directory, so a filtered run from the repo root cannot
 * overwrite a committed baseline).
 */
class BenchRecord
{
  public:
    explicit BenchRecord(std::string name);

    void add(std::string key, double value);
    void add(std::string key, std::string value);

    /** Serialize the record (valid JSON document). */
    std::string toJson() const;

    /** Resolved output path (dir + BENCH_<name>.json). */
    std::string outputPath() const;

    /** Write to outputPath(); prints one status line, returns
     * false (after a warning) on I/O failure. */
    bool write() const;

  private:
    std::string name_;
    std::vector<std::pair<std::string, double>> numbers_;
    std::vector<std::pair<std::string, std::string>> strings_;
};

} // namespace fits::obs

#endif // FITS_OBS_BENCH_RECORD_HH_
