/**
 * @file
 * Masim: the memory access pattern simulator from Linux's DAMON
 * subsystem, extended as in the paper (§3) with precise control over
 * pattern (sequential / random / pointer-chase), mix, phasing, and
 * per-access compute gaps. Also the generator behind the 96-workload
 * stall-model study (Figure 2) and the colocation experiment (Fig 12).
 */

#ifndef PACT_WORKLOADS_MASIM_HH
#define PACT_WORKLOADS_MASIM_HH

#include "workloads/workload.hh"

namespace pact
{

/** Access pattern of a masim region. */
enum class MasimPattern
{
    /** Linear line-stride traversal (prefetch-friendly, high MLP). */
    Sequential,
    /** Independent uniform-random line accesses (high MLP, no
     *  prefetch). */
    Random,
    /** Serialized pointer chase over a random cycle (MLP ~= 1). */
    PointerChase,
};

/** One masim memory region. */
struct MasimRegion
{
    std::string name = "region";
    std::uint64_t bytes = 32ull << 20;
    MasimPattern pattern = MasimPattern::Sequential;
    /** Relative share of accesses directed at this region. */
    double weight = 1.0;
    /** Compute cycles between consecutive accesses to this region. */
    std::uint16_t gap = 0;
    /** Fraction of accesses that are stores. */
    double storeRatio = 0.0;
};

/** Masim workload parameters. */
struct MasimParams
{
    std::vector<MasimRegion> regions;
    std::uint64_t ops = 4000000;
    /**
     * Phased execution: regions take turns being exclusively active
     * for phaseOps accesses each (drives Figure 3's MLP phases);
     * otherwise accesses interleave by weight.
     */
    bool phased = false;
    std::uint64_t phaseOps = 500000;
};

/** Generate a masim trace; regions are allocated into @p as. */
Trace buildMasim(AddrSpace &as, ProcId proc, const MasimParams &params,
                 Rng &rng, bool thp = false);

/** Standard two-thread masim of Figure 1a: streaming + pointer chase. */
WorkloadBundle makeMasimDefault(const WorkloadOptions &opt);

/**
 * The Figure 12 colocation bundle: two masim processes (sequential vs
 * random/pointer-chase) sharing one address space.
 */
WorkloadBundle makeMasimColocation(const WorkloadOptions &opt);

/**
 * Scaled colocation ("masim-coloc<N>" in the registry, 2..32): one
 * latency-critical pointer-chase victim (process 0) plus N-1
 * bandwidth-hungry sequential streamers, each process with its own
 * regions. Built for the multi-tenant engine: every process becomes
 * one tenant with its own core and daemon.
 */
WorkloadBundle makeMasimColocationN(unsigned tenants,
                                    const WorkloadOptions &opt);

/**
 * The paper's motivating inversion (§2.1, §5.6): a small, frequently
 * accessed random region whose independent accesses overlap (high MLP,
 * latency-tolerant) phased against a larger, less frequently accessed
 * pointer-chase region whose serialized accesses expose full latency.
 * Frequency ranks the random region first; criticality ranks the chase
 * region first — so PACT and PACT-freq place them oppositely.
 */
WorkloadBundle makePacInversion(const WorkloadOptions &opt);

} // namespace pact

#endif // PACT_WORKLOADS_MASIM_HH
