/**
 * @file
 * Simulation engine: N cores, each replaying its own trace, contend
 * for a shared LLC, shared per-tier bandwidth, and a shared
 * TierManager. Cores are grouped into *tenants*: each tenant owns its
 * cores' PMU counters, a private PEBS sampler fed only by its own
 * cores, and (optionally) its own policy daemon — the runtime
 * structure of one userspace PACT daemon per colocated process in the
 * paper. Cores advance in bounded lockstep slices (epochs no longer
 * than SimConfig::slice; a daemon window closes at the first slice end
 * at or after its period), so a run is deterministic and
 * byte-identical at any PACT_JOBS.
 */

#ifndef PACT_SIM_ENGINE_HH
#define PACT_SIM_ENGINE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "fault/fault.hh"
#include "mem/addr_space.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "mem/lru.hh"
#include "mem/migration.hh"
#include "mem/tier_manager.hh"
#include "sim/cache.hh"
#include "sim/chmu.hh"
#include "sim/config.hh"
#include "sim/cpu.hh"
#include "sim/pebs.hh"
#include "sim/pmu.hh"
#include "sim/policy_iface.hh"
#include "sim/tier.hh"
#include "sim/trace.hh"

namespace pact
{

/**
 * One tenant of a multi-tenant engine: a named group of traces (one
 * core each) plus the policy daemon managing that tenant's pages.
 *
 * The referenced traces and policy must outlive the engine. A null
 * policy means the tenant runs without a daemon (a pure noisy
 * neighbor under first-touch placement).
 */
struct TenantSpec
{
    /** Stat-subtree name; empty selects "tenant<i>". */
    std::string name;
    /** This tenant's traces (each gets a dedicated core). */
    std::vector<const Trace *> traces;
    /** Per-tenant tiering daemon, or nullptr for none. */
    TieringPolicy *policy = nullptr;
};

/**
 * Everything a finished run reports. The scalar counters are a view
 * over the engine's StatRegistry (`registry` holds the full name-
 * sorted dump); the structured fields (pmu, migration, spans) remain
 * typed copies for the analysis code.
 */
struct RunStats
{
    /** Per-tenant summary (one entry per TenantSpec). */
    struct Tenant
    {
        std::string name;
        /** Indices into procCycles/procRetired of this tenant's cores. */
        std::vector<std::size_t> procs;
        std::uint64_t retired = 0;
        /** Finish cycle of the tenant's last core (or current cycle). */
        Cycles cycles = 0;
        std::uint64_t pebsEvents = 0;
        std::uint64_t daemonTicks = 0;
    };

    /** Global slice clock when the last non-looping trace retired. */
    Cycles wallCycles = 0;
    /**
     * False when the run was cut short at SimConfig::maxWallCycles
     * with a non-looping trace still unfinished: every count is then
     * partial and the result must not be read as a finished run.
     */
    bool completed = true;
    /** SimConfig::maxWallCycles the run was held to. */
    Cycles maxWallCycles = 0;
    /** Ops in the non-looping traces: what a completed run retires. */
    std::uint64_t primaryOps = 0;
    /** Ops the non-looping traces retired. */
    std::uint64_t primaryRetired = 0;
    /** Per-process finish cycle (0 for looping co-runners). */
    std::vector<Cycles> procCycles;
    /** Per-process retired op counts. */
    std::vector<std::uint64_t> procRetired;
    /** Final PMU counter values (summed over all tenants). */
    Pmu pmu;
    MigrationStats migration;
    /** Migration-transaction outcome counts (manifest schema 5). */
    MigrationTxnStats txn;
    std::uint64_t pebsEvents = 0;
    std::uint64_t pebsDropped = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t daemonTicks = 0;
    /** Per-process (spanClass, cycles) latency measurements. */
    std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>>
        spans;
    /** Full end-of-run stat registry dump, name-sorted. */
    std::vector<std::pair<std::string, double>> registry;
    /** Distribution snapshots, name-sorted (separate from `registry`
     *  so the scalar dump keeps its pinned golden layout). */
    std::vector<std::pair<std::string, obs::DistSnapshot>> dists;
    /** Per-tenant summaries, one per TenantSpec (never empty). */
    std::vector<Tenant> tenants;

    /** Registry value by name; 0 when absent (old artifacts). */
    double
    stat(const std::string &name) const
    {
        for (const auto &[k, v] : registry) {
            if (k == name)
                return v;
        }
        return 0.0;
    }

    /** Total promotion operations (the paper's Table 2 metric). */
    std::uint64_t promotions() const { return migration.promotedOps; }
    std::uint64_t demotions() const { return migration.demotedOps; }
};

/**
 * Drives one simulation: traces are replayed on per-tenant CPUs that
 * share the LLC, tiers, and page table; each tenant's policy daemon
 * ticks every SimConfig::daemonPeriod cycles of global time.
 */
class Engine : public MigrationBackend
{
  public:
    /**
     * Single-daemon constructor: one tenant that holds every trace,
     * so all of them share one policy, PEBS sampler, and PMU.
     *
     * @param cfg Simulation configuration (fast capacity, tiers, ...).
     *            Validated via SimConfig::validate() before anything
     *            is built; throws ConfigError on a bad field.
     * @param as Address space the traces were generated against.
     *           Never mutated: many engines may share one bundle's
     *           address space, including concurrently.
     * @param traces One trace per simulated process; at least one must
     *               be non-looping (it defines run completion).
     * @param policy Tiering policy, or nullptr for no daemon.
     */
    Engine(const SimConfig &cfg, const AddrSpace &as,
           const std::vector<Trace> *traces, TieringPolicy *policy);

    /**
     * Tenant constructor: each TenantSpec's traces run on their own
     * cores against the shared LLC/tiers/TierManager, with a private
     * PEBS sampler and PMU per tenant and one policy daemon per
     * tenant. With several tenants, per-tenant stats (the policy's
     * own included) register under "tenant<i>." or the spec's name.
     * A lone tenant registers no subtree, which would only repeat the
     * engine.* sums: its policy's stats land unprefixed (the layout
     * the golden corpus pins).
     */
    Engine(const SimConfig &cfg, const AddrSpace &as,
           std::vector<TenantSpec> tenants);

    /** Run to completion and return statistics. */
    RunStats run();

    /**
     * Run until global time reaches @p until (incremental runs for
     * time-series instrumentation). @return false when complete.
     */
    bool runUntil(Cycles until);

    /** Statistics snapshot of the current state. */
    RunStats snapshot() const;

    /** MigrationBackend: account a migration copy on both tiers. */
    Cycles chargeCopy(TierId src, TierId dst, std::uint64_t bytes) override;

    /** Global slice clock. */
    Cycles now() const { return now_; }

    /** Tenant 0's daemon context. */
    SimContext &context() { return *tenants_[0]->ctx; }
    TierManager &tierManager() { return tm_; }
    MigrationEngine &migration() { return mig_; }
    /** Tenant 0's PMU (the whole machine with one tenant). */
    Pmu &pmu() { return tenants_[0]->pmu; }

    /**
     * Record the outcome of every LLC access of this run (DESIGN.md
     * §6, "LLC outcome replay"). Call before the first runUntil().
     * Only a single-core run of a non-looping trace records.
     * @return whether this engine records.
     */
    bool recordLlcOutcomes();

    /** The recorded stream once the run completed, else nullptr. */
    std::shared_ptr<const LlcOutcomes> llcOutcomes() const;

    /**
     * Serve LLC accesses from @p stream instead of probing the tag
     * store. Taken only when this engine has exactly one core, its
     * trace does not loop, and the stream was recorded from the same
     * trace, address space and CacheParams; otherwise the live probe
     * stays. Under SimConfig::audit the live probe also runs and
     * throws InvariantError at the first outcome that differs. Call
     * before the first runUntil().
     * @return whether the stream is replayed.
     */
    bool replayLlcOutcomes(std::shared_ptr<const LlcOutcomes> stream);

    /** Live fault plan, or nullptr when no faults are enabled. */
    FaultPlan *faults() { return faults_.get(); }

    /** The stat registry every subsystem registered into. */
    const obs::StatRegistry &stats() const { return reg_; }

    /**
     * Attach a Chrome-trace sink: migration copies and daemon ticks
     * are recorded as trace_event spans. Call before the first
     * runUntil(); the sink must outlive the engine. Every tenant gets
     * its own pair of lanes (tid 2i = "<name> daemon", 2i+1 =
     * "<name> migration") so multi-tenant traces don't interleave
     * onto one row.
     */
    void setTraceSink(obs::TraceEventSink *sink);

    /**
     * Attach a decision-provenance journal: PEBS samples, policy
     * bin/enqueue decisions, the migration transaction arc
     * (txn_prepare/retry/commit/abort/admit_reject), and daemon
     * ticks are recorded as typed page events. Opt-in — a null
     * journal (the default) costs nothing on the hot path. Call
     * before the first runUntil(); must outlive the engine.
     */
    void setEventJournal(obs::EventJournal *journal);

    /** Trace-lane tid of a tenant's migration events. */
    static std::uint32_t
    migrationLane(std::uint32_t tenant)
    {
        return 2u * tenant + 1u;
    }

  private:
    /** Everything one tenant owns: counters, sampler, daemon context. */
    struct TenantState
    {
        TenantSpec spec;
        /** Ground-truth counters written by this tenant's cores. */
        Pmu pmu;
        /** Masked PMU view policies read under wrap injection. */
        Pmu wrappedPmu;
        PebsSampler pebs;
        std::uint64_t ticks = 0;
        /** Indices into cpus_/traceOf_ of this tenant's cores. */
        std::vector<std::size_t> cpus;
        /** Built after the state is at its final address (refs). */
        std::unique_ptr<SimContext> ctx;

        TenantState(TenantSpec s, const PebsParams &pp)
            : spec(std::move(s)), pebs(pp)
        {}
    };

    void init();
    bool allPrimariesDone() const;
    void registerStats();
    void registerTenantStats(std::size_t i);
    void finishRun();
    /** Machine-wide counters: field-wise sum over all tenants. */
    Pmu aggregatePmu() const;
    /** The LLC stream identity of this run; ops null when the run
     *  cannot record or replay (several cores, or a looping trace). */
    LlcOutcomes::Source llcSource() const;

    /** The next daemon window length (jittered when faults say so). */
    Cycles nextPeriod();

    /**
     * Refresh the masked PMU view one tenant's policy reads under
     * counter-wraparound injection (no-op when wrap is disabled).
     */
    void refreshWrappedPmu(TenantState &t);

    const SimConfig cfg_;
    const AddrSpace &as_;

    Rng rng_;
    Tier fastTier_;
    Tier slowTier_;
    Cache cache_;
    std::unique_ptr<Chmu> chmu_;
    TierManager tm_;
    LruLists lru_;
    MigrationEngine mig_;
    /** Fault plan (nullptr when disabled). */
    std::unique_ptr<FaultPlan> faults_;
    std::vector<std::uint8_t> hugeMap_;

    std::vector<std::unique_ptr<TenantState>> tenants_;
    /** All cores, flat (tenant grouping via TenantState::cpus). */
    std::vector<std::unique_ptr<Cpu>> cpus_;
    /** The trace each core replays (aligned with cpus_). */
    std::vector<const Trace *> traceOf_;
    /** Owning tenant index of each core (aligned with cpus_). */
    std::vector<std::uint32_t> tenantOf_;

    obs::StatRegistry reg_;
    obs::TraceEventSink *traceSink_ = nullptr;
    obs::EventJournal *journal_ = nullptr;
    /** Tenant whose activity migration callbacks attribute to: the
     *  core being sliced, or the daemon being ticked. */
    std::uint32_t currentTenant_ = 0;

    // Engine-level distribution cells (registered by registerStats).
    /** Per daemon tick: copy cycles its migrations charged. */
    obs::Distribution tickCyclesDist_;
    /** Per daemon window: slow-tier TOR occupancy integral delta. */
    obs::Distribution torWindowDist_;
    /** Aggregate slow-tier TOR occupancy at the last window close. */
    std::uint64_t lastTorOcc_ = 0;

    Cycles now_ = 0;
    Cycles nextTick_ = 0;
    std::uint64_t daemonTicks_ = 0;
    bool started_ = false;
    bool finished_ = false;
    /** Stopped at maxWallCycles before every primary trace retired. */
    bool truncated_ = false;
    /** LLC outcome stream this run records into, or replays. */
    std::shared_ptr<LlcOutcomes> llcRecord_;
    std::shared_ptr<const LlcOutcomes> llcReplay_;
};

} // namespace pact

#endif // PACT_SIM_ENGINE_HH
