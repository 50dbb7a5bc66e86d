/**
 * @file
 * A fixed-size thread pool shared by the experiment binaries.
 *
 * Independent (benchmark, configuration) simulations are embarrassingly
 * parallel: the pool fans them out across TCSIM_JOBS worker threads
 * (default: hardware_concurrency) while callers collect results in a
 * deterministic order of their choosing.
 */

#ifndef TCSIM_BENCH_THREAD_POOL_H
#define TCSIM_BENCH_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tcsim::bench
{

/** A fixed-size pool of worker threads draining a FIFO task queue. */
class ThreadPool
{
  public:
    /** Spawn @p threads workers (clamped to at least one). */
    explicit ThreadPool(unsigned threads);

    /** Drains outstanding tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return the number of worker threads. */
    unsigned
    threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Enqueue one task; runs as soon as a worker is free. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished executing. */
    void wait();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable taskCv_; ///< workers: work available / stop
    std::condition_variable idleCv_; ///< wait(): queue drained + idle
    unsigned running_ = 0;           ///< tasks currently executing
    bool stopping_ = false;
};

/**
 * @return the job count for experiment fan-out: TCSIM_JOBS if set, else
 * std::thread::hardware_concurrency(). A TCSIM_JOBS that is not a
 * decimal integer from 1 to 1024 is fatal.
 */
unsigned defaultJobCount();

/**
 * The process-wide pool used by the experiment engine, created on first
 * use with defaultJobCount() workers.
 */
ThreadPool &sharedPool();

/**
 * Run fn(0) .. fn(n-1) on @p pool and block until all are done.
 * @p fn must be safe to call concurrently for distinct indices. Must
 * not be called from a worker of @p pool.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 ThreadPool &pool = sharedPool());

} // namespace tcsim::bench

#endif // TCSIM_BENCH_THREAD_POOL_H
