/**
 * @file
 * Deterministic fault injection for robustness experiments.
 *
 * A FaultPlan is a seeded decision stream for ten fault classes that
 * PACT's design is sensitive to:
 *
 *   migabort   - transactional migration copies abort whole-copy from
 *                tier contention (the Nomad contention model, now
 *                injectable for any policy); non-retryable
 *   midabort   - migration copy aborts at a chosen progress fraction
 *                (`at`), wasting only the bandwidth already spent;
 *                retryable
 *   dirty      - the page is written during the copy, so validation
 *                fails after the full copy was charged; retryable
 *   tierfail   - transient destination-tier write failure before any
 *                data moves; retryable
 *   stall      - the policy daemon stalls (crash-and-restart): a
 *                window's tick is skipped and the next one lands
 *                `periods` nominal periods later
 *   pebsstarve - token-bucket starvation burst: the next `len` PEBS
 *                samples after the trigger are dropped wholesale
 *   pebsdrop   - PEBS samples silently dropped before they reach the
 *                sampler buffer (sampling starvation)
 *   pebsdup    - PEBS samples duplicated (double counting / attribution
 *                skew)
 *   wrap       - hardware counters wrap at 2^bits (narrow-MSR model;
 *                the daemon sees masked PMU snapshots)
 *   jitter     - daemon windows land early/late by a uniform fraction
 *                of the nominal period (timer noise)
 *
 * Determinism contract: every decision stream is derived from the run
 * seed, and each fault class consumes randomness only when that class
 * is enabled in the spec. The same spec + seed therefore yields a
 * byte-identical fault schedule on every run and at every PACT_JOBS
 * value, and enabling one class never perturbs another's schedule. The
 * original five classes share the legacy stream (seed ^ 0xfa417ab5, one
 * draw per decision in deterministic simulated-time order) so existing
 * pinned schedules are bit-preserved; each newer class owns a private
 * Rng decorrelated by a per-class constant, so mixing new classes into
 * an old spec cannot shift the old schedule either.
 *
 * Spec grammar (semicolon-separated clauses, comma-separated params,
 * all optional):
 *
 *   migabort:p=<prob>;pebsdrop:p=<prob>;pebsdup:p=<prob>;
 *   wrap:bits=<n>;jitter:frac=<f>;
 *   midabort:p=<prob>[,at=<frac>];dirty:p=<prob>;tierfail:p=<prob>;
 *   stall:p=<prob>[,periods=<n>];pebsstarve:p=<prob>[,len=<n>]
 *
 * e.g. "migabort:p=0.2;wrap:bits=32" or "midabort:p=1,at=0". Parse
 * errors throw ConfigError naming the offending token.
 */

#ifndef PACT_FAULT_FAULT_HH
#define PACT_FAULT_FAULT_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "common/types.hh"

namespace pact
{

/** Parsed fault-injection request; all classes disabled by default. */
struct FaultSpec
{
    /** Probability a migration copy aborts whole-copy (contention). */
    double migAbortP = 0.0;
    /** Probability a PEBS sample is dropped before buffering. */
    double pebsDropP = 0.0;
    /** Probability a buffered PEBS sample is duplicated. */
    double pebsDupP = 0.0;
    /** Counter width in bits (0 disables wraparound; else 1..63). */
    unsigned wrapBits = 0;
    /** Daemon-window jitter as a fraction of the period in [0, 1). */
    double jitterFrac = 0.0;
    /** Probability a copy aborts mid-flight at midAbortAt progress. */
    double midAbortP = 0.0;
    /** Progress fraction [0, 1] where a mid-copy abort lands. */
    double midAbortAt = 0.5;
    /** Probability the page dirties during the copy (validation fails). */
    double dirtyP = 0.0;
    /** Probability of a transient destination-tier write failure. */
    double tierFailP = 0.0;
    /** Probability a daemon window stalls (crash-and-restart). */
    double stallP = 0.0;
    /** Stall length in nominal daemon periods (>= 1). */
    unsigned stallPeriods = 1;
    /** Probability a PEBS sample triggers a starvation burst. */
    double starveP = 0.0;
    /** Samples dropped per starvation burst (>= 1). */
    unsigned starveLen = 32;

    /** True when at least one fault class is enabled. */
    bool any() const
    {
        return migAbortP > 0.0 || pebsDropP > 0.0 || pebsDupP > 0.0 ||
               wrapBits > 0 || jitterFrac > 0.0 || midAbortP > 0.0 ||
               dirtyP > 0.0 || tierFailP > 0.0 || stallP > 0.0 ||
               starveP > 0.0;
    }
};

/**
 * Parse the --faults grammar documented above. Empty
 * input yields an all-disabled spec; malformed clauses, unknown fault
 * names, unknown or duplicate parameters, and out-of-range values
 * throw ConfigError naming the offending token.
 */
FaultSpec parseFaultSpec(const std::string &text);

/** Injection counts, exported as faults.* stats when a plan is live. */
struct FaultCounters
{
    std::uint64_t migrationAborts = 0;
    std::uint64_t pebsDropped = 0;
    std::uint64_t pebsDuplicated = 0;
    std::uint64_t jitteredWindows = 0;
    std::uint64_t midCopyAborts = 0;
    std::uint64_t dirtyConflicts = 0;
    std::uint64_t tierWriteFailures = 0;
    std::uint64_t daemonStalls = 0;
    std::uint64_t pebsStarved = 0;
    std::uint64_t starveBursts = 0;
};

/**
 * The live decision stream for one run. Constructed from a spec and
 * the run seed; every decision method is deterministic in call order.
 */
class FaultPlan
{
  public:
    FaultPlan(const FaultSpec &spec, std::uint64_t seed);

    /**
     * Build a plan from a spec string, or nullptr when the string is
     * empty / enables nothing. Throws ConfigError on a bad spec.
     */
    static std::unique_ptr<FaultPlan> fromSpec(const std::string &text,
                                               std::uint64_t seed);

    /** Should this migration copy abort whole-copy? Counts on fire. */
    bool abortMigration(PageId page);

    /** Should this PEBS sample be dropped? Counts when it fires. */
    bool dropSample();

    /** Should this buffered PEBS sample be duplicated? */
    bool duplicateSample();

    /** Counter width being modeled (0 = full 64-bit, no wrap). */
    unsigned wrapBits() const { return spec_.wrapBits; }

    /** Mask applied to PMU counters when wrapBits() > 0. */
    std::uint64_t wrapMask() const { return wrapMask_; }

    /**
     * The (possibly jittered) length of the next daemon window for a
     * nominal period. Always at least 1 cycle; counts jittered windows.
     */
    Cycles jitterPeriod(Cycles nominal);

    /** Should this copy abort mid-flight? Counts when it fires. */
    bool midCopyAbort();

    /** Progress fraction where a mid-copy abort lands. */
    double midCopyProgress() const { return spec_.midAbortAt; }

    /** Did the page dirty during this copy? Counts when it fires. */
    bool dirtyDuringCopy();

    /** Did the destination tier reject this write? Counts on fire. */
    bool tierWriteFailure();

    /**
     * Extra delay before the next daemon window for a crash-and-restart
     * stall, or 0 when the daemon runs on time. Counts stalls.
     */
    Cycles daemonStall(Cycles nominal);

    /**
     * Should this PEBS sample be starved (token bucket empty)? The
     * first starved sample of a burst also draws the burst trigger;
     * the following starveLen-1 samples are dropped without a draw.
     */
    bool starveSample();

    const FaultSpec &spec() const { return spec_; }
    const FaultCounters &counters() const { return counters_; }

  private:
    FaultSpec spec_;
    Rng rng_;
    // Private streams for the post-v1 classes: decorrelated from the
    // legacy stream and from each other so enabling any one class
    // leaves every other schedule bit-identical.
    Rng midRng_;
    Rng dirtyRng_;
    Rng tierFailRng_;
    Rng stallRng_;
    Rng starveRng_;
    std::uint64_t wrapMask_ = ~0ull;
    std::uint64_t starveLeft_ = 0;
    FaultCounters counters_;
};

} // namespace pact

#endif // PACT_FAULT_FAULT_HH
