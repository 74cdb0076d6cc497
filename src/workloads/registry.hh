/**
 * @file
 * Workload factory: instantiate any of the paper's 13 evaluated
 * workloads (plus the twelve-workload Figure 6 set) by name.
 */

#ifndef PACT_WORKLOADS_REGISTRY_HH
#define PACT_WORKLOADS_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace pact
{

/**
 * Build a workload by name. Known names: masim, gups, bc-kron,
 * bc-urand, bc-twitter, sssp-kron, tc-twitter, bfs-kron, gpt2, silo,
 * redis, bwaves, xz, deepsjeng. Unknown names throw WorkloadError.
 */
WorkloadBundle makeWorkload(const std::string &name,
                            const WorkloadOptions &opt = {});

/**
 * Build a workload by name through the process-wide bundle cache.
 *
 * Trace generation is expensive (a graph build plus a full kernel run)
 * and every driver that sweeps policies or ratios replays the same
 * immutable bundle, so identical (name, scale, thp, seed) requests
 * share one generation: the first caller builds while concurrent
 * callers wait on the same future, mirroring the Runner baseline
 * cache. Bundles are returned as shared_ptr<const ...> — Engine never
 * mutates a bundle, so sharing across threads is safe.
 *
 * A failed build is not cached, so callers can retry. A caller that
 * needs a fresh generation calls makeWorkload() directly, or drops
 * every cached bundle with clearWorkloadCache().
 */
std::shared_ptr<const WorkloadBundle>
makeWorkloadShared(const std::string &name,
                   const WorkloadOptions &opt = {});

/** Where makeWorkloadShared obtained a bundle. */
enum class WorkloadSource
{
    /** Built from scratch by the workload generators. */
    Generated,
    /** Warm-loaded (zero-copy) from the on-disk trace store. */
    DiskCache,
    /** Shared from the process-wide bundle cache. */
    MemoryCache,
};

/**
 * As above, additionally reporting where the bundle came from (drivers
 * use this to report cold-vs-warm startup). @p source may be null.
 */
std::shared_ptr<const WorkloadBundle>
makeWorkloadShared(const std::string &name, const WorkloadOptions &opt,
                   WorkloadSource *source);

/**
 * Exact bundle identity: name, scale bit pattern, thp, and seed. Keys
 * both the in-process bundle cache and (via traceStoreFileName) the
 * on-disk trace store.
 */
std::string workloadCacheKey(const std::string &name,
                             const WorkloadOptions &opt);

/** Drop every cached bundle (tests and memory-conscious drivers). */
void clearWorkloadCache();

/** The 12 workloads of the paper's Figure 6. */
const std::vector<std::string> &figureSixWorkloads();

/** All workload names. */
const std::vector<std::string> &allWorkloadNames();

} // namespace pact

#endif // PACT_WORKLOADS_REGISTRY_HH
