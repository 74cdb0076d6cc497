/**
 * @file
 * Shared parallel primitive: a deterministic parallelFor and the
 * PACT_JOBS environment knob. Lives in common/ so both the experiment
 * harness (fanning out independent runs) and the workload generators
 * (fanning out trace generation chunks) can use it without a library
 * cycle.
 */

#ifndef PACT_COMMON_POOL_HH
#define PACT_COMMON_POOL_HH

#include <cstddef>
#include <functional>

namespace pact
{

/**
 * Worker count from the environment: PACT_JOBS=<n> overrides; unset
 * (or invalid) selects @p deflt, and deflt == 0 selects
 * hardware_concurrency. Always at least 1.
 */
unsigned envJobs(unsigned deflt = 0);

/**
 * Run fn(0..n-1) across @p jobs workers (0 selects envJobs()). With
 * one job the calls happen inline on the calling thread, in order —
 * exactly the pre-parallel behavior. Otherwise min(jobs, n) fresh
 * threads (log tags w0, w1, ...) take indices from a shared counter
 * in ascending order, whichever frees up first (dynamic scheduling).
 * Iterations must be independent.
 *
 * Exception semantics: an exception escaping @p fn does NOT terminate
 * and does NOT cancel other iterations — every index still runs (so
 * independent work is never silently skipped), and once all are done
 * the exception from the lowest-indexed failing iteration is rethrown
 * on the calling thread. The lowest-index rule makes the propagated
 * error independent of worker scheduling, preserving the harness's
 * any-job-count determinism.
 *
 * Nesting: every call starts its own threads and the caller only
 * joins them, so an fn that itself calls parallelFor (seedSweep's
 * per-seed workers each generating their own bundle, whose trace
 * generation fans out again) can never deadlock — the inner workers
 * depend on no outer thread. The cost is deliberate oversubscription:
 * J outer workers each driving a G-job inner call hold up to J*(G+1)
 * threads alive, and the kernel time-slices them. Determinism and
 * liveness never depend on a thread budget; callers who want to bound
 * the total pass the inner call an explicit job count.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 unsigned jobs = 0);

} // namespace pact

#endif // PACT_COMMON_POOL_HH
