/**
 * @file
 * Page migration engine: the simulated equivalent of move_pages().
 * Migration is not free — each operation consumes bandwidth on both
 * tiers (via a backend owned by the simulator) and charges a fixed
 * kernel overhead (page locking, TLB shootdown) to the owning process.
 * This is what makes over-migrating policies (TPP) pay the costs the
 * paper observes.
 *
 * Every migration runs as an explicit transaction (the Nomad model):
 *
 *   Prepared -> Copying -> Validating -> Committed
 *                  |            |
 *                  v            v
 *               Aborted      Aborted   (bounded retry w/ backoff)
 *
 * Prepare reserves a non-exclusive shadow region on the destination
 * tier (TierManager::beginShadow — the page transiently exists in both
 * tiers; reads keep hitting the committed copy). The copy can abort
 * from injected contention, a transient destination write failure, or
 * a mid-copy abort at a chosen progress fraction; validation aborts
 * when the page dirtied during the copy. Aborts roll back by dropping
 * the shadow reservation — committed residency, LRU membership, and
 * capacity accounting never changed, so rollback restores the
 * pre-migration state exactly. Retryable aborts re-arm up to
 * txnMaxRetries times with deterministic exponential backoff charged
 * to the migration daemon (never to application timing). With no
 * fault plan attached the transaction commits first-try with costs
 * bit-identical to the pre-transactional engine.
 */

#ifndef PACT_MEM_MIGRATION_HH
#define PACT_MEM_MIGRATION_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/lru.hh"
#include "mem/tier_manager.hh"
#include "obs/events.hh"
#include "obs/metrics.hh"

namespace pact
{

class FaultPlan;

/**
 * Charges the data-copy cost of a migration against the memory system.
 * Implemented by the simulation engine, which advances both tiers'
 * bandwidth cursors at the current simulated time.
 */
class MigrationBackend
{
  public:
    virtual ~MigrationBackend() = default;

    /**
     * Account a copy of @p bytes from @p src to @p dst.
     * @return The cycles the copy occupied (queueing included).
     */
    virtual Cycles chargeCopy(TierId src, TierId dst,
                              std::uint64_t bytes) = 0;
};

/** Cost-model knobs for migrations. */
struct MigrationConfig
{
    /** Fixed kernel cycles per 4KB migration op (syscall+TLB). */
    Cycles fixedCycles4k = 1500;
    /** Fixed kernel cycles per 2MB migration op. */
    Cycles fixedCyclesHuge = 8000;
    /**
     * Fraction of the per-migration cost charged to the owning
     * process as direct stall; the rest runs on the migration daemon
     * thread and the other worker threads keep executing.
     */
    double appPenaltyFraction = 0.25;
    /**
     * Disable migrations entirely: promote()/demote() return false
     * without charging anything (the rollback-equivalence baseline).
     */
    bool disabled = false;
    /** Retries after a retryable transaction abort (0 = fail fast). */
    unsigned txnMaxRetries = 2;
    /**
     * Daemon-side backoff before retry attempt k (1-based):
     * txnBackoffCycles << (k-1). Charged to migration.txn.backoff_cycles
     * only — application timing is unaffected by backoff.
     */
    Cycles txnBackoffCycles = 2000;
};

/** Aggregate migration statistics. */
struct MigrationStats
{
    std::uint64_t promotedOps = 0;
    std::uint64_t promotedPages = 0;
    std::uint64_t demotedOps = 0;
    std::uint64_t demotedPages = 0;
    std::uint64_t failed = 0;
    Cycles copyCycles = 0;
    Cycles appPenaltyCycles = 0;
};

/** Transaction-level migration statistics (migration.txn.* stats). */
struct MigrationTxnStats
{
    std::uint64_t prepared = 0;   ///< transactions opened
    std::uint64_t committed = 0;  ///< reached Committed
    std::uint64_t aborted = 0;    ///< attempts that aborted
    std::uint64_t retries = 0;    ///< aborted attempts that re-armed
    std::uint64_t exhausted = 0;  ///< transactions that ran out of retries
    std::uint64_t admissionRejected = 0; ///< gated before Prepared
    std::uint64_t abortContention = 0;   ///< whole-copy contention aborts
    std::uint64_t abortMidCopy = 0;      ///< mid-copy aborts
    std::uint64_t abortDirty = 0;        ///< dirtied-during-copy aborts
    std::uint64_t abortWriteFail = 0;    ///< destination write failures
    Cycles wastedCopyCycles = 0;  ///< cycles charged by aborted attempts
    Cycles backoffCycles = 0;     ///< daemon-side retry backoff
};

/**
 * TierBPF-style admission gate: consult recent transaction outcomes
 * and reject migrations predicted not to pay off. The gate arms once
 * minSamples outcomes are on record and then rejects promotions while
 * the windowed abort rate or wasted-bandwidth fraction exceeds its
 * bound. Demotions are never gated (rejecting them could wedge
 * fast-tier capacity).
 */
struct AdmissionConfig
{
    /** Sliding outcome-window length. */
    unsigned window = 64;
    /** Outcomes required before the gate arms. */
    unsigned minSamples = 16;
    /** Reject while aborted/window exceeds this. */
    double maxAbortRate = 0.5;
    /** Reject while wasted/(useful+wasted) copy cycles exceeds this. */
    double maxWasteFrac = 0.5;
};

/**
 * Moves pages between tiers, keeping TierManager capacity accounting
 * and LRU list membership consistent, and accumulating per-process
 * stall penalties that the CPU model drains.
 */
class MigrationEngine
{
  public:
    MigrationEngine(TierManager &tm, LruLists &lru, MigrationBackend &bk,
                    const MigrationConfig &cfg, unsigned num_procs);

    /**
     * Promote a page (or its whole huge region) to the fast tier.
     * Fails when the fast tier lacks free space, admission control
     * rejects, or the transaction exhausts its retries.
     * @return true when the page moved.
     */
    bool promote(PageId page);

    /**
     * Demote a page (or its whole huge region) to the slow tier.
     * @return true when the page moved.
     */
    bool demote(PageId page);

    /**
     * Account the cost of a migration attempt that aborted mid-copy
     * (Nomad's policy-level transactional migration retries: the
     * shadow dirtied under the copy). Consumes bandwidth and penalty
     * but moves nothing; counts as a dirty-conflict abort in the
     * transaction stats and journals the matching one-attempt
     * txn_prepare/txn_abort pair.
     */
    void chargeAbortedCopy(PageId page);

    /**
     * Attach a fault plan: transactions then abort (contention,
     * write failure, mid-copy, dirty validation) whenever the plan
     * says so. nullptr disables injection.
     */
    void setFaultPlan(FaultPlan *faults) { faults_ = faults; }

    /**
     * Arm the admission gate for one tenant's migrations. Outcome
     * history is engine-wide; the gate checks it only for migrations
     * issued while the stamped context names an armed tenant.
     */
    void enableAdmission(std::uint32_t tenant, const AdmissionConfig &cfg);

    /** Whether the admission gate is armed for @p tenant. */
    bool admissionEnabled(std::uint32_t tenant) const;

    /** Migration statistics so far. */
    const MigrationStats &stats() const { return stats_; }

    /** Transaction-level statistics so far. */
    const MigrationTxnStats &txnStats() const { return txnStats_; }

    /**
     * Per-op charged latency distribution (fixed kernel overhead +
     * copy cycles, aborted attempts included).
     */
    const obs::Distribution &latencyDist() const { return latDist_; }

    /**
     * Attach a provenance journal; nullptr (the default) disables
     * event emission entirely.
     */
    void setJournal(obs::EventJournal *j) { journal_ = j; }

    /**
     * Timestamp context for emitted events and for admission-gate
     * tenancy. The engine is the only clock owner, so it stamps
     * (cycle, tenant, daemon window) here before every policy tick /
     * fault-path call; migrations triggered between updates inherit
     * the last stamp (tick resolution).
     */
    void
    setJournalContext(Cycles now, std::uint32_t tenant, std::uint64_t window)
    {
        jNow_ = now;
        jTenant_ = tenant;
        jWindow_ = window;
    }

    /**
     * Charge extra policy-machinery stall cycles to a process (e.g.
     * Nomad's transactional bookkeeping on the fault path).
     */
    void
    chargeExternal(ProcId proc, Cycles cycles)
    {
        if (proc < pendingPenalty_.size()) {
            pendingPenalty_[proc] += cycles;
            stats_.appPenaltyCycles += cycles;
        }
    }

    /** Drain the pending stall penalty for one process. */
    Cycles
    drainPenalty(ProcId proc)
    {
        Cycles c = pendingPenalty_[proc];
        pendingPenalty_[proc] = 0;
        return c;
    }

  private:
    /** One finished transaction for the admission window. */
    struct TxnOutcome
    {
        bool committed;
        Cycles useful; ///< cycles charged by the committed copy
        Cycles wasted; ///< cycles charged by aborted attempts
    };

    bool migrateRegion(PageId page, TierId dst);
    /**
     * Charge one copy attempt: @p bytes of copy bandwidth plus, when
     * @p include_fixed, the fixed kernel overhead, with the matching
     * app penalty and latency sample. Charges nothing at all when both
     * are zero — an abort before any work started is free.
     *
     * @return total charged cycles (fixed overhead + copy).
     */
    Cycles chargeCosts(PageId page, std::uint64_t bytes, TierId src,
                       TierId dst, bool include_fixed);
    bool admissionRejects() const;
    void recordOutcome(bool committed, Cycles useful, Cycles wasted);
    void emitTxnEvent(obs::EventKind kind, PageId page, TierId src,
                      TierId dst, std::uint64_t pages, Cycles latency,
                      unsigned attempt, obs::TxnAbortReason reason);

    TierManager &tm_;
    LruLists &lru_;
    MigrationBackend &backend_;
    MigrationConfig cfg_;
    FaultPlan *faults_ = nullptr;
    MigrationStats stats_;
    MigrationTxnStats txnStats_;
    AdmissionConfig admitCfg_;
    /** Per-tenant admission-gate arm bits (indexed by tenant id). */
    std::vector<bool> admitTenants_;
    /** Sliding window of recent transaction outcomes (engine-wide). */
    std::vector<TxnOutcome> outcomes_;
    std::size_t outcomeNext_ = 0;
    std::size_t outcomeCount_ = 0;
    std::vector<Cycles> pendingPenalty_;
    obs::Distribution latDist_;
    obs::EventJournal *journal_ = nullptr;
    Cycles jNow_ = 0;
    std::uint32_t jTenant_ = 0;
    std::uint64_t jWindow_ = 0;
};

} // namespace pact

#endif // PACT_MEM_MIGRATION_HH
