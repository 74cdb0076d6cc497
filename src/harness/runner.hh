/**
 * @file
 * Evaluation runner: executes a workload bundle under a named policy
 * at a given fast-tier ratio, normalizing runtime against a cached
 * DRAM-only baseline — the paper's slowdown metric (§5.1).
 */

#ifndef PACT_HARNESS_RUNNER_HH
#define PACT_HARNESS_RUNNER_HH

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/events.hh"
#include "obs/export.hh"
#include "obs/timeseries.hh"
#include "sim/config.hh"
#include "sim/engine.hh"
#include "workloads/workload.hh"

namespace pact
{

/** One run's headline numbers. */
struct RunResult
{
    /** One tenant's summary row, exactly as the manifest writes it. */
    using Tenant = obs::ManifestResult::Tenant;

    std::string workload;
    std::string policy;
    /** Percent slowdown of the primary process vs DRAM-only. */
    double slowdownPct = 0.0;
    /** Per-process percent slowdowns (colocation runs). */
    std::vector<double> procSlowdownPct;
    /** Per-tenant rows, one per tenant (never empty). */
    std::vector<Tenant> tenants;
    /** Primary-process runtime in cycles. */
    Cycles runtime = 0;
    RunStats stats;
};

/**
 * A RunResult reshaped for the manifest exporter. A run cut short at
 * maxWallCycles becomes an `ok: false` row of error kind TruncatedRun.
 */
obs::ManifestResult manifestResult(const RunResult &r);

/**
 * Per-run config overrides applied on top of the Runner's base config
 * (the chaos harness uses these to give every spec its own fault plan
 * and seed). The DRAM-only baseline is never affected: it stays
 * fault-free and its runtime is seed-independent (NoTier makes no
 * randomized decisions), so overridden runs still normalize against
 * the shared cached baseline.
 */
struct RunOverrides
{
    /** Fault spec for this run ("" = keep the base config's). */
    std::string faults;
    /** Run seed (0 = keep the base config's). */
    std::uint64_t seed = 0;
};

/**
 * Optional observers attached to a measured run (never the DRAM-only
 * baseline). Both must outlive the run call.
 */
struct RunObservers
{
    /** Drive the run in windows, one JSONL row each. */
    obs::TimeSeriesRecorder *timeseries = nullptr;
    /** Collect migration/daemon-tick spans for chrome://tracing. */
    obs::TraceEventSink *trace = nullptr;
    /** Record the page-lifecycle decision journal (opt-in ring). */
    obs::EventJournal *events = nullptr;
};

/**
 * Executes runs and caches DRAM-only baselines per bundle.
 *
 * Thread safety: run()/runWith()/baseline() may be called from many
 * threads at once (the parallel sweep API in pool.hh does exactly
 * that); each run owns its Engine and RNG, and the baseline cache is
 * computed exactly once per bundle name. config() must only be
 * mutated while no runs are in flight.
 *
 * Every run entry point tags the calling thread's warnings with
 * "[<bundle>/<label>] " for the run's duration, including the
 * baseline it triggers and Soar's profiling pass.
 */
class Runner
{
  public:
    explicit Runner(SimConfig base = {});

    /** Mutable base configuration applied to every run. */
    SimConfig &config() { return cfg_; }

    /**
     * DRAM-only baseline runtimes (one per process). Computed once
     * per bundle name and cached; concurrent callers for the same
     * bundle block until the single computation finishes. A
     * single-trace bundle's baseline run also records its LLC outcome
     * stream, cached beside the runtimes, which every later run of
     * the bundle replays instead of probing the LLC (DESIGN.md §6).
     * The baseline always runs to completion: SimConfig::maxWallCycles
     * caps only the runs measured against it.
     */
    const std::vector<Cycles> &baseline(const WorkloadBundle &bundle);

    /**
     * The bundle's cached LLC outcome stream (running the baseline
     * first if needed); nullptr when its baseline did not record.
     */
    std::shared_ptr<const LlcOutcomes>
    llcOutcomes(const WorkloadBundle &bundle);

    /**
     * Run under a registry policy name ("Soar" triggers the offline
     * profiling pass first).
     *
     * @param fast_share Fast-tier capacity as a fraction of RSS
     *                   (1.0 = everything fits; 0.0 = all slow).
     */
    RunResult run(const WorkloadBundle &bundle,
                  const std::string &policy_name, double fast_share,
                  const RunObservers *obs = nullptr,
                  const RunOverrides *mods = nullptr);

    /** Run under a caller-constructed policy instance. */
    RunResult runWith(const WorkloadBundle &bundle, TieringPolicy &policy,
                      double fast_share, const std::string &label,
                      const RunObservers *obs = nullptr,
                      const RunOverrides *mods = nullptr);

    /** Builds tenant @p i's policy daemon (nullptr = no daemon). */
    using PolicyFactory =
        std::function<std::unique_ptr<TieringPolicy>(std::size_t)>;

    /**
     * Run the bundle as a multi-tenant colocation: each trace becomes
     * one tenant with its own core and an independent instance of the
     * named policy, all contending on the shared LLC, tier bandwidth,
     * and TierManager. Slowdowns are normalized against the same
     * DRAM-only per-process baseline as run(). "Soar" is rejected:
     * its offline profiling pass assumes the whole machine.
     */
    RunResult runTenants(const WorkloadBundle &bundle,
                         const std::string &policy_name, double fast_share,
                         const RunObservers *obs = nullptr,
                         const RunOverrides *mods = nullptr);

    /** Multi-tenant run with caller-built per-tenant policies. */
    RunResult runTenantsWith(const WorkloadBundle &bundle,
                             const PolicyFactory &factory,
                             double fast_share, const std::string &label,
                             const RunObservers *obs = nullptr,
                             const RunOverrides *mods = nullptr);

    /** Fast-share for a paper-style fast:slow ratio. */
    static double
    ratioShare(int fast, int slow)
    {
        return static_cast<double>(fast) /
               static_cast<double>(fast + slow);
    }

    /** Fast-tier capacity (pages) a run at @p fast_share would get. */
    std::uint64_t capacityPages(const WorkloadBundle &bundle,
                                double fast_share) const;

  private:
    /**
     * The one run body every entry point shares: configure, build
     * the engine from @p specs, attach replay and observers, drive,
     * and assemble the result with one row per tenant.
     */
    RunResult runSpecs(const WorkloadBundle &bundle,
                       std::vector<TenantSpec> specs, double fast_share,
                       const std::string &label, const RunObservers *obs,
                       const RunOverrides *mods);

    /** What the DRAM-only baseline run of one bundle leaves behind. */
    struct Baseline
    {
        std::vector<Cycles> cycles;
        /** Its LLC outcome stream (null for multi-trace bundles). */
        std::shared_ptr<const LlcOutcomes> llc;
    };

    const Baseline &baselineRun(const WorkloadBundle &bundle);

    SimConfig cfg_;
    /**
     * Per-bundle baseline, held as a shared_future so that the first
     * caller computes while concurrent callers wait on the same
     * result instead of racing a duplicate run.
     */
    std::map<std::string, std::shared_future<Baseline>> baselines_;
    std::mutex baselineMutex_;
};

/**
 * Benchmark scale factor from the environment: PACT_SCALE=<float>
 * overrides @p deflt.
 *
 * @throws ConfigError when PACT_SCALE is set but is not a positive
 *         number.
 */
double envScale(double deflt = 1.0);

/**
 * Per-run wall-clock budget from PACT_RUN_TIMEOUT_MS (0 = disabled).
 * When set, every Runner run (time-series runs included) checks it
 * between daemon-period (or recorder-window) steps and throws
 * TimeoutError once the budget is exceeded, so a hung run becomes a
 * recorded failure instead of wedging the sweep.
 * The check is cooperative (between chunks), so it is best-effort: a
 * single chunk that never returns cannot be interrupted. Runs that
 * finish under the budget are bit-identical to unwatched runs — the
 * simulation depends only on simulated time.
 *
 * @throws ConfigError when PACT_RUN_TIMEOUT_MS is set but is not a
 *         plain decimal count of milliseconds.
 */
std::uint64_t envRunTimeoutMs();

} // namespace pact

#endif // PACT_HARNESS_RUNNER_HH
