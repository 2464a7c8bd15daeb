#include "trace.hh"

#include <atomic>
#include <cstdio>

namespace fitsbench {

namespace {

const Clock::time_point g_epoch = Clock::now();

std::atomic<std::uint32_t> g_nextWorker{0};

} // namespace

std::int64_t
sinceEpochNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t - g_epoch)
        .count();
}

std::uint32_t
workerId()
{
    thread_local const std::uint32_t id = g_nextWorker.fetch_add(1);
    return id;
}

SampleTrace::SampleTrace(std::uint32_t sample)
{
    Span root;
    root.name = "sample";
    root.sample = sample;
    root.worker = workerId();
    root.startNs = sinceEpochNs(Clock::now());
    spans_.push_back(std::move(root));
}

std::size_t
SampleTrace::open(const char *name)
{
    Span span;
    span.name = name;
    span.parent = 0;
    span.sample = spans_.front().sample;
    span.worker = spans_.front().worker;
    span.startNs = sinceEpochNs(Clock::now());
    spans_.push_back(std::move(span));
    return spans_.size() - 1;
}

void
SampleTrace::close(std::size_t index)
{
    spans_[index].endNs = sinceEpochNs(Clock::now());
}

void
SampleTrace::finish()
{
    spans_.front().endNs = sinceEpochNs(Clock::now());
}

void
addSelfTimes(const std::vector<Span> &spans,
             std::map<std::string, double> &selfMs)
{
    std::vector<std::int64_t> childNs(spans.size(), 0);
    for (const Span &span : spans) {
        if (span.parent >= 0)
            childNs[static_cast<std::size_t>(span.parent)] +=
                span.endNs - span.startNs;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        selfMs[span.name] +=
            static_cast<double>(span.endNs - span.startNs - childNs[i]) /
            1e6;
    }
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fputs("{\"traceEvents\":[\n", out);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(out,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"sample\":%u,\"parent\":%d}}\n",
                     i == 0 ? "" : ",", s.name.c_str(), s.worker,
                     static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3,
                     s.sample, s.parent);
    }
    std::fputs("]}\n", out);
    return std::fclose(out) == 0;
}

} // namespace fitsbench
