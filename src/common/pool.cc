#include "common/pool.hh"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            unsigned jobs)
{
    if (n == 0)
        return;
    jobs = jobs == 0 ? envJobs() : jobs;
    if (jobs > n)
        jobs = static_cast<unsigned>(n);

    // Exceptions never escape into a worker thread (that would
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
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> workers;
        workers.reserve(jobs);
        for (unsigned w = 0; w < jobs; w++) {
            workers.emplace_back([&, w] {
                // Tag each worker's log output so warn() lines from
                // concurrent runs stay attributable.
                setLogTag("w" + std::to_string(w));
                for (std::size_t i = next++; i < n; i = next++)
                    guarded(i);
            });
        }
        for (std::thread &t : workers)
            t.join();
    }
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace pact
