#ifndef FITSBENCH_TRACE_HH_
#define FITSBENCH_TRACE_HH_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fitsbench {

using Clock = std::chrono::steady_clock;

/**
 * One timed call into a FITS module, recorded by the benchmark around
 * the module's public function. Spans of one sample share `sample`;
 * `parent` indexes the sample's span list (-1 for the sample's root).
 */
struct Span
{
    std::string name;
    std::int64_t startNs = 0; ///< since the trace epoch
    std::int64_t endNs = 0;
    int parent = -1;
    std::uint32_t sample = 0;
    std::uint32_t worker = 0;
};

/** Nanoseconds from the process-wide trace epoch to `t`. */
std::int64_t sinceEpochNs(Clock::time_point t);

/** Small dense id of the calling thread (0, 1, ... in first-use order). */
std::uint32_t workerId();

/**
 * The spans of one sample, kept in memory by the worker analyzing it.
 * The constructor opens the root span named "sample"; finish() closes
 * it. Not shared between threads.
 */
class SampleTrace
{
  public:
    explicit SampleTrace(std::uint32_t sample);

    /** Run f() inside a child span of the root named `name`. */
    template <typename F>
    decltype(auto)
    span(const char *name, F &&f)
    {
        const std::size_t index = open(name);
        struct Closer
        {
            SampleTrace *trace;
            std::size_t index;
            ~Closer() { trace->close(index); }
        } closer{this, index};
        return f();
    }

    void finish();

    std::vector<Span> &spans() { return spans_; }

  private:
    std::size_t open(const char *name);
    void close(std::size_t index);

    std::vector<Span> spans_;
};

/**
 * Self time per span name, in milliseconds: each span's length minus
 * the part its direct children cover. The root's self time is what no
 * module call accounts for; it is reported under "sample".
 */
void addSelfTimes(const std::vector<Span> &spans,
                  std::map<std::string, double> &selfMs);

/** Write spans as Chrome trace-event JSON (one track per worker). */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans);

} // namespace fitsbench

#endif // FITSBENCH_TRACE_HH_
