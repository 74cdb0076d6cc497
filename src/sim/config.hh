/**
 * @file
 * Simulation configuration. Defaults mirror the paper's testbed: a
 * 2.2GHz Skylake socket with 90ns/52GB/s local DRAM and a slow tier
 * that is either cross-socket NUMA (140ns/32GB/s) or emulated CXL
 * (190ns/32GB/s, 2.1x DRAM latency). Footprints and the LLC are scaled
 * down together so runs finish in seconds (see DESIGN.md section 6).
 */

#ifndef PACT_SIM_CONFIG_HH
#define PACT_SIM_CONFIG_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "mem/migration.hh"

namespace pact
{

/** Simulated core clock (cycles per second). */
constexpr double ClockHz = 2.2e9;

/** Convert nanoseconds to cycles at the simulated clock. */
constexpr Cycles
nsToCycles(double ns)
{
    return static_cast<Cycles>(ns * ClockHz / 1e9 + 0.5);
}

/** Convert GB/s of line bandwidth into cycles-per-64B-line service. */
constexpr double
bwToServiceCycles(double gbps)
{
    return static_cast<double>(LineBytes) * ClockHz / (gbps * 1e9);
}

/** Latency/bandwidth parameters of one memory tier. */
struct TierParams
{
    /** Unloaded access latency in cycles. */
    Cycles latencyCycles = nsToCycles(90);
    /** Service cycles per 64B line (inverse bandwidth). */
    double serviceCycles = bwToServiceCycles(52);
};

/** TierParams presets matching the paper's three configurations. */
TierParams inline
dramTierParams()
{
    return TierParams{nsToCycles(90), bwToServiceCycles(52)};
}

TierParams inline
numaTierParams()
{
    return TierParams{nsToCycles(140), bwToServiceCycles(32)};
}

TierParams inline
cxlTierParams()
{
    return TierParams{nsToCycles(190), bwToServiceCycles(32)};
}

/** Last-level cache and prefetcher parameters. */
struct CacheParams
{
    /**
     * Total LLC capacity in bytes. The paper's footprint:LLC ratio is
     * ~1400:1 (6.6-40GB over a 14MB LLC); with footprints scaled to
     * tens of MB a 1MB LLC keeps the working sets memory-resident.
     */
    std::uint64_t sizeBytes = 1ull << 20;
    /** Set associativity. */
    unsigned assoc = 8;
    /** Stream prefetcher enabled. */
    bool prefetch = true;
    /** Lines fetched ahead per detected stream. */
    unsigned prefetchDegree = 4;
    /** Number of concurrently tracked streams. */
    unsigned prefetchStreams = 16;

    bool operator==(const CacheParams &) const = default;
};

/** Out-of-order core parameters. */
struct CpuParams
{
    /** Maximum outstanding LLC misses (MSHRs / fill buffers). */
    unsigned mshrs = 16;
    /** Maximum ops in flight past the oldest incomplete miss (ROB). */
    unsigned robOps = 192;
    /**
     * Cycles charged to the (aggregate) execution stream per NUMA
     * hint fault. A fault costs ~1-2us on one thread; with the
     * paper's 8 worker threads only one stalls, so the aggregate
     * stream pays ~1/8 of it.
     */
    Cycles hintFaultCycles = 400;
};

/** CHMU (CXL hotness monitoring unit) availability. */
struct ChmuConfig
{
    /** Model a device-side hotness unit on the slow tier. */
    bool enabled = false;
    std::size_t counterCap = 1u << 16;
    std::size_t hotListLen = 2048;
};

/** PEBS-style event sampling parameters. */
struct PebsParams
{
    /** Sample one in @c rate slow-tier demand-load LLC misses. */
    std::uint64_t rate = 64;
    /** Also sample fast-tier misses (PACT defaults to slow only). */
    bool sampleFastTier = false;
    /** Buffer capacity in records; overflow drops samples. */
    std::size_t bufferCap = 1u << 20;
};

/** Full simulation configuration. */
struct SimConfig
{
    TierParams fast = dramTierParams();
    TierParams slow = cxlTierParams();
    CacheParams cache;
    CpuParams cpu;
    PebsParams pebs;
    ChmuConfig chmu;
    MigrationConfig migration;

    /** Fast-tier capacity in 4KB pages. */
    std::uint64_t fastCapacityPages = 1u << 30;

    /**
     * Policy daemon period in cycles. The paper uses 20ms on runs of
     * minutes; scaled runs (hundreds of simulated milliseconds)
     * default to ~0.45ms so a run still spans hundreds of windows.
     */
    Cycles daemonPeriod = 1000000;

    /** Engine interleaving slice for colocated processes. */
    Cycles slice = 100000;

    /** Root RNG seed (all randomness derives from it). */
    std::uint64_t seed = 42;

    /**
     * Safety cap on simulated wall time; a run that exceeds it is cut
     * short with a warning (guards against pathological policy churn).
     */
    Cycles maxWallCycles = 1ull << 36;

    /**
     * Fault-injection spec (see src/fault/fault.hh for the grammar).
     * Empty disables injection.
     */
    std::string faults;

    /**
     * Run the periodic invariant auditor every daemon window.
     * Throws InvariantError on violation.
     */
    bool audit = false;

    /**
     * Check every field for simulability; throws ConfigError with a
     * field-level diagnostic ("SimConfig.<field> must ..., got <v>")
     * on the first violation. The Engine validates on construction, so
     * a bad config fails fast with a recoverable error rather than
     * corrupting a run. Defaults always pass.
     */
    void validate() const;
};

} // namespace pact

#endif // PACT_SIM_CONFIG_HH
