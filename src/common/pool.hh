/**
 * @file
 * Shared thread pool primitives: a fixed-size worker pool over a task
 * queue, a deterministic parallelFor, and the PACT_JOBS environment
 * knob. Lives in common/ so both the experiment harness (fanning out
 * independent runs) and the workload generators (fanning out trace
 * generation chunks) can use the same machinery without a library
 * cycle.
 */

#ifndef PACT_COMMON_POOL_HH
#define PACT_COMMON_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pact
{

/**
 * Worker count from the environment: PACT_JOBS=<n> overrides; unset
 * (or invalid) selects @p deflt, and deflt == 0 selects
 * hardware_concurrency. Always at least 1.
 */
unsigned envJobs(unsigned deflt = 0);

/**
 * A fixed-size worker pool over a shared task queue. Tasks are
 * drained in submission order by whichever worker frees up first
 * (dynamic scheduling); wait() blocks until the queue is empty and
 * all workers are idle.
 *
 * Nesting / oversubscription policy: pools compose by construction
 * rather than by sharing. Every ThreadPool owns its workers outright
 * — there is no global pool, no work stealing across pools, and a
 * worker never re-enters the scheduler while running a task. A task
 * running on one pool may therefore construct and drive another pool
 * (a parallelFor reached from a PACT_JOBS worker does exactly this:
 * seedSweep's per-seed workers each generate their own bundle, and
 * trace generation fans out through its own parallelFor): the inner
 * pool's threads are new OS threads, so an outer worker blocked in
 * inner wait() can never deadlock the inner pool — the inner workers
 * do not depend on any outer-pool resource. The cost is deliberate
 * oversubscription: J outer workers each driving a G-job inner
 * parallelFor hold up to J*(G+1) threads alive, and the kernel
 * time-slices them. That trades some scheduling overhead for a
 * guarantee we care about more: determinism and liveness never depend
 * on a thread budget. Callers who want to bound the total should pass
 * the inner parallelFor an explicit job count, not expect the pools to
 * negotiate.
 */
class ThreadPool
{
  public:
    /** @param workers Worker count; 0 selects envJobs(). */
    explicit ThreadPool(unsigned workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task. Never blocks. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  private:
    void workerLoop();

    std::vector<std::thread> threads_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::size_t inFlight_ = 0;
    bool stopping_ = false;
};

/**
 * Run fn(0..n-1) across @p jobs workers (0 selects envJobs()). With
 * one job the calls happen inline on the calling thread, in order —
 * exactly the pre-parallel behavior. Iterations must be independent.
 *
 * Exception semantics: an exception escaping @p fn does NOT terminate
 * and does NOT cancel other iterations — every index still runs (so
 * independent work is never silently skipped), and once all are done
 * the exception from the lowest-indexed failing iteration is rethrown
 * on the calling thread. The lowest-index rule makes the propagated
 * error independent of worker scheduling, preserving the harness's
 * any-job-count determinism.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 unsigned jobs = 0);

} // namespace pact

#endif // PACT_COMMON_POOL_HH
