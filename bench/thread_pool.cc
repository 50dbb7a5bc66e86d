#include "bench/thread_pool.h"

#include <cstdlib>

#include "common/log.h"
#include "common/parse.h"

namespace tcsim::bench
{

namespace
{

/** Ceiling on TCSIM_JOBS: a typo must not start millions of threads. */
constexpr std::uint64_t kMaxJobs = 1024;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    workers_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    taskCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
    }
    taskCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock,
                 [this] { return tasks_.empty() && running_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskCv_.wait(lock, [this] {
                return stopping_ || !tasks_.empty();
            });
            if (tasks_.empty())
                return; // stopping and drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
            ++running_;
        }
        task();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --running_;
            if (tasks_.empty() && running_ == 0)
                idleCv_.notify_all();
        }
    }
}

unsigned
defaultJobCount()
{
    if (const char *env = std::getenv("TCSIM_JOBS")) {
        const std::optional<std::uint64_t> jobs = parseUint(env, kMaxJobs);
        if (!jobs || *jobs == 0) {
            fatal("TCSIM_JOBS: '%s' is not a job count from 1 to %llu", env,
                  static_cast<unsigned long long>(kMaxJobs));
        }
        return static_cast<unsigned>(*jobs);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool &
sharedPool()
{
    static ThreadPool pool(defaultJobCount());
    return pool;
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            ThreadPool &pool)
{
    if (n == 0)
        return;
    // Completion is tracked locally (not with ThreadPool::wait) so
    // concurrent parallelFor calls sharing the pool cannot observe
    // each other's tasks. Must not be called from a pool worker: the
    // caller blocks on a worker-executed task.
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::size_t done = 0;
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&, i] {
            fn(i);
            std::unique_lock<std::mutex> lock(done_mutex);
            if (++done == n)
                done_cv.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return done == n; });
}

} // namespace tcsim::bench
