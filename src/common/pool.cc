#include "common/pool.hh"

#include <cstdlib>
#include <exception>
#include <limits>
#include <string>

#include "common/logging.hh"

namespace pact
{

unsigned
envJobs(unsigned deflt)
{
    if (const char *s = std::getenv("PACT_JOBS")) {
        const long v = std::atol(s);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    if (deflt == 0)
        deflt = std::thread::hardware_concurrency();
    return deflt == 0 ? 1 : deflt;
}

ThreadPool::ThreadPool(unsigned workers)
{
    if (workers == 0)
        workers = envJobs();
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; i++) {
        // Tag each worker's log output so warn() lines from
        // concurrent runs stay attributable.
        threads_.emplace_back([this, i] {
            setLogTag("w" + std::to_string(i));
            workerLoop();
        });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        panic_if(stopping_, "ThreadPool: submit after shutdown");
        queue_.push_back(std::move(task));
        inFlight_++;
    }
    workReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return inFlight_ == 0; });
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping, queue drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            inFlight_--;
            if (inFlight_ == 0)
                allDone_.notify_all();
        }
    }
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            unsigned jobs)
{
    if (n == 0)
        return;
    jobs = jobs == 0 ? envJobs() : jobs;
    if (jobs > n)
        jobs = static_cast<unsigned>(n);

    // Exceptions never escape into a pool worker (that would
    // std::terminate); each is captured here and the one from the
    // lowest iteration index is rethrown once every iteration ran, so
    // the propagated error is the same at any job count. The serial
    // path uses the same capture-drain-rethrow shape for identical
    // semantics.
    std::mutex errMutex;
    std::size_t errIndex = std::numeric_limits<std::size_t>::max();
    std::exception_ptr firstError;
    auto guarded = [&](std::size_t i) {
        try {
            fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(errMutex);
            if (i < errIndex) {
                errIndex = i;
                firstError = std::current_exception();
            }
        }
    };

    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; i++)
            guarded(i);
    } else {
        ThreadPool pool(jobs);
        for (std::size_t i = 0; i < n; i++)
            pool.submit([&guarded, i] { guarded(i); });
        pool.wait();
    }
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace pact
