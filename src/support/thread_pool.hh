#ifndef FITS_SUPPORT_THREAD_POOL_HH_
#define FITS_SUPPORT_THREAD_POOL_HH_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fits::support {

/** Number of hardware threads; never returns 0. */
std::size_t hardwareJobs();

/**
 * Effective worker count for corpus-level fan-out: `requested` when
 * positive, otherwise the `FITS_JOBS` environment variable when it is a
 * positive integer, otherwise hardwareJobs().
 */
std::size_t resolveJobs(std::size_t requested = 0);

/**
 * Fixed-size worker pool over a FIFO task queue.
 *
 * Every submitted task runs inside an exception-isolating wrapper: a
 * throwing task never tears down a worker or the pool. Escaped
 * exceptions are counted and the first message is retained so callers
 * that want stronger guarantees can assert on them; tasks that need
 * per-item error *reporting* (the CorpusRunner pattern) should catch
 * their own exceptions and record the failure in their result slot.
 */
class ThreadPool
{
  public:
    /** `workers` == 0 resolves via resolveJobs() (FITS_JOBS / hw). */
    explicit ThreadPool(std::size_t workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t workerCount() const { return workers_.size(); }

    /** Enqueue one task; returns immediately. */
    void submit(std::function<void()> task);

    /** Block until every task submitted so far has finished. */
    void wait();

    /** Tasks whose exceptions escaped into the pool wrapper. */
    std::size_t uncaughtExceptions() const;

    /** what() of the first escaped exception ("" if none). */
    std::string firstExceptionMessage() const;

  private:
    /** A queued task plus its enqueue time (stamped only while
     * metrics collection is enabled; zero otherwise). */
    struct QueuedTask
    {
        std::function<void()> fn;
        std::chrono::steady_clock::time_point enqueued;
    };

    void workerLoop(std::size_t workerIndex);

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::deque<QueuedTask> queue_;
    std::vector<std::thread> workers_;
    std::size_t inFlight_ = 0;
    std::size_t uncaught_ = 0;
    std::string firstError_;
    bool stop_ = false;
};

} // namespace fits::support

#endif // FITS_SUPPORT_THREAD_POOL_HH_
