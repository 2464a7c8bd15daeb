#include "thread_pool.hh"

#include <cstdlib>
#include <exception>

#include "obs/metrics.hh"

namespace fits::support {

std::size_t
hardwareJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
}

std::size_t
resolveJobs(std::size_t requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("FITS_JOBS")) {
        char *end = nullptr;
        const unsigned long parsed = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && parsed > 0)
            return static_cast<std::size_t>(parsed);
    }
    return hardwareJobs();
}

ThreadPool::ThreadPool(std::size_t workers)
{
    const std::size_t n = resolveJobs(workers);
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    QueuedTask queued;
    queued.fn = std::move(task);
    if (obs::enabled())
        queued.enqueued = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(queued));
    }
    wake_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock,
               [this] { return queue_.empty() && inFlight_ == 0; });
}

std::size_t
ThreadPool::uncaughtExceptions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return uncaught_;
}

std::string
ThreadPool::firstExceptionMessage() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return firstError_;
}

void
ThreadPool::workerLoop(std::size_t workerIndex)
{
    // Lazily-resolved per-worker instruments (only touched while
    // metrics collection is enabled; the registry hands out stable
    // references, so resolving once per worker is safe).
    obs::Counter *taskCounter = nullptr;

    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stop_ set and nothing left to run
        QueuedTask task = std::move(queue_.front());
        queue_.pop_front();
        ++inFlight_;
        lock.unlock();

        if (obs::enabled()) {
            if (taskCounter == nullptr) {
                taskCounter = &obs::Registry::instance().counter(
                    "threadpool.worker." +
                    std::to_string(workerIndex) + ".tasks");
            }
            taskCounter->add(1);
            obs::addCounter("threadpool.tasks");
            if (task.enqueued.time_since_epoch().count() != 0) {
                obs::observe(
                    "threadpool.queue_wait_ms",
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() -
                        task.enqueued)
                        .count());
            }
        }

        std::string error;
        bool threw = false;
        try {
            task.fn();
        } catch (const std::exception &e) {
            threw = true;
            error = e.what();
        } catch (...) {
            threw = true;
            error = "unknown exception";
        }
        if (threw)
            obs::addCounter("threadpool.uncaught_exceptions");

        lock.lock();
        --inFlight_;
        if (threw) {
            ++uncaught_;
            if (firstError_.empty())
                firstError_ = error.empty() ? "exception" : error;
        }
        if (queue_.empty() && inFlight_ == 0)
            idle_.notify_all();
    }
}

} // namespace fits::support
