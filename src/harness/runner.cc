#include "harness/runner.hh"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.hh"
#include "common/logging.hh"
#include "policies/registry.hh"
#include "policies/soar.hh"

namespace pact
{

Runner::Runner(SimConfig base) : cfg_(base)
{
}

std::uint64_t
Runner::capacityPages(const WorkloadBundle &bundle,
                      double fast_share) const
{
    const auto rss = static_cast<double>(bundle.rssPages());
    return static_cast<std::uint64_t>(rss * fast_share + 0.5);
}

const std::vector<Cycles> &
Runner::baseline(const WorkloadBundle &bundle)
{
    return baselineRun(bundle).cycles;
}

std::shared_ptr<const LlcOutcomes>
Runner::llcOutcomes(const WorkloadBundle &bundle)
{
    return baselineRun(bundle).llc;
}

const Runner::Baseline &
Runner::baselineRun(const WorkloadBundle &bundle)
{
    // First caller for a bundle installs the future and computes the
    // baseline outside the lock; concurrent callers wait on the same
    // future, so the baseline runs exactly once per bundle name.
    std::promise<Baseline> promise;
    std::shared_future<Baseline> future;
    bool compute = false;
    {
        std::lock_guard<std::mutex> lock(baselineMutex_);
        auto it = baselines_.find(bundle.name);
        if (it == baselines_.end()) {
            future = promise.get_future().share();
            baselines_.emplace(bundle.name, future);
            compute = true;
        } else {
            future = it->second;
        }
    }
    if (compute) {
        try {
            SimConfig cfg = cfg_;
            cfg.fastCapacityPages = bundle.rssPages() + 1024;
            // Every slowdown divides by this all-DRAM run, which cannot
            // thrash: the cap that bounds tiered runs does not apply.
            cfg.maxWallCycles = std::numeric_limits<Cycles>::max();
            auto policy = makePolicy("NoTier");
            Engine engine(cfg, bundle.as, &bundle.traces, policy.get());
            engine.recordLlcOutcomes();
            Baseline b;
            b.cycles = engine.run().procCycles;
            b.llc = engine.llcOutcomes();
            promise.set_value(std::move(b));
        } catch (...) {
            // Every waiter on this bundle's future must see the error;
            // an unset promise would block them forever.
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

obs::ManifestResult
manifestResult(const RunResult &r)
{
    obs::ManifestResult m;
    m.workload = r.workload;
    m.policy = r.policy;
    m.slowdownPct = r.slowdownPct;
    m.procSlowdownPct = r.procSlowdownPct;
    m.tenants = r.tenants;
    m.runtimeCycles = r.runtime;
    m.stats = r.stats.registry;
    m.dists = r.stats.dists;
    m.txn.prepared = r.stats.txn.prepared;
    m.txn.committed = r.stats.txn.committed;
    m.txn.aborted = r.stats.txn.aborted;
    m.txn.retries = r.stats.txn.retries;
    m.txn.exhausted = r.stats.txn.exhausted;
    m.txn.admissionRejected = r.stats.txn.admissionRejected;
    m.txn.wastedCopyCycles =
        static_cast<std::uint64_t>(r.stats.txn.wastedCopyCycles);
    m.txn.backoffCycles =
        static_cast<std::uint64_t>(r.stats.txn.backoffCycles);
    if (!r.stats.completed) {
        // Every count of a run cut short is partial: record it as a
        // failure, not as a result.
        m.ok = false;
        m.errorKind = "TruncatedRun";
        m.errorMessage = detail::buildMessage(
            r.workload, "/", r.policy, ": cut short at the maxWallCycles "
            "cap of ", r.stats.maxWallCycles, " cycles after retiring ",
            r.stats.primaryRetired, " of ", r.stats.primaryOps, " ops");
    }
    return m;
}

namespace
{

/**
 * Narrow the calling thread's log tag to one run for its duration and
 * restore it even when the run throws.
 */
class LogTagScope
{
  public:
    explicit LogTagScope(const std::string &tag) : prev_(logTag())
    {
        setLogTag(tag);
    }
    ~LogTagScope() { setLogTag(prev_); }

    LogTagScope(const LogTagScope &) = delete;
    LogTagScope &operator=(const LogTagScope &) = delete;

  private:
    std::string prev_;
};

/** The per-run config: base + capacity + any per-spec overrides. */
SimConfig
overriddenConfig(SimConfig cfg, const RunOverrides *mods)
{
    if (!mods)
        return cfg;
    if (!mods->faults.empty())
        cfg.faults = mods->faults;
    if (mods->seed != 0)
        cfg.seed = mods->seed;
    return cfg;
}

/**
 * Drive a constructed engine to completion under the observer and
 * watchdog conventions shared by every Runner entry point: one step
 * per recorder window (or daemon period without a recorder), a
 * time-series row after each step, and the cooperative wall-clock
 * watchdog while the run has more work. Stepping retires exactly the
 * same simulated work as engine.run(), so results under the budget
 * stay identical.
 */
RunStats
driveEngine(Engine &engine, const SimConfig &cfg,
            const WorkloadBundle &bundle, const std::string &label,
            const RunObservers *obs)
{
    const std::uint64_t timeoutMs = envRunTimeoutMs();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    obs::TimeSeriesRecorder *rec = obs ? obs->timeseries : nullptr;
    const Cycles step = rec ? rec->window() : cfg.daemonPeriod;
    while (true) {
        const Cycles t0 = engine.now();
        const bool more = engine.runUntil(t0 + step);
        if (rec)
            rec->sample(engine.stats(), t0, engine.now());
        if (!more)
            break;
        if (timeoutMs > 0 && std::chrono::steady_clock::now() >= deadline) {
            throw TimeoutError(detail::buildMessage(
                bundle.name, "/", label, ": exceeded "
                "PACT_RUN_TIMEOUT_MS=", timeoutMs, " at simulated "
                "cycle ", engine.now()));
        }
    }
    return engine.snapshot();
}

/** Per-process slowdowns vs baseline, headline fields, tenant rows. */
RunResult
assembleResult(const WorkloadBundle &bundle, const std::string &label,
               const std::vector<Cycles> &base, RunStats stats)
{
    RunResult res;
    res.workload = bundle.name;
    res.policy = label;
    for (std::size_t p = 0; p < stats.procCycles.size(); p++) {
        if (bundle.traces[p].loop) {
            res.procSlowdownPct.push_back(0.0);
            continue;
        }
        const double b = static_cast<double>(base[p]);
        const double c = static_cast<double>(stats.procCycles[p]);
        res.procSlowdownPct.push_back(b > 0 ? 100.0 * (c / b - 1.0)
                                            : 0.0);
    }
    res.runtime = stats.procCycles.empty() ? 0 : stats.procCycles[0];
    res.slowdownPct =
        res.procSlowdownPct.empty() ? 0.0 : res.procSlowdownPct[0];
    for (const RunStats::Tenant &t : stats.tenants) {
        RunResult::Tenant row;
        row.name = t.name;
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t p : t.procs) {
            if (!bundle.traces[p].loop) {
                sum += res.procSlowdownPct[p];
                n++;
            }
        }
        // Mean slowdown over the tenant's non-looping processes.
        row.slowdownPct = n ? sum / static_cast<double>(n) : 0.0;
        row.retiredOps = t.retired;
        row.cycles = t.cycles;
        row.daemonTicks = t.daemonTicks;
        row.pebsEvents = t.pebsEvents;
        res.tenants.push_back(std::move(row));
    }
    res.stats = std::move(stats);
    return res;
}

} // namespace

RunResult
Runner::runSpecs(const WorkloadBundle &bundle, std::vector<TenantSpec> specs,
                 double fast_share, const std::string &label,
                 const RunObservers *obs, const RunOverrides *mods)
{
    const LogTagScope tag(bundle.name + "/" + label);
    const Baseline &base = baselineRun(bundle);

    SimConfig cfg = overriddenConfig(cfg_, mods);
    cfg.fastCapacityPages = capacityPages(bundle, fast_share);
    Engine engine(cfg, bundle.as, std::move(specs));
    engine.replayLlcOutcomes(base.llc);
    if (obs && obs->trace)
        engine.setTraceSink(obs->trace);
    if (obs && obs->events)
        engine.setEventJournal(obs->events);

    return assembleResult(bundle, label, base.cycles,
                          driveEngine(engine, cfg, bundle, label, obs));
}

RunResult
Runner::runWith(const WorkloadBundle &bundle, TieringPolicy &policy,
                double fast_share, const std::string &label,
                const RunObservers *obs, const RunOverrides *mods)
{
    TenantSpec spec;
    for (const Trace &t : bundle.traces)
        spec.traces.push_back(&t);
    spec.policy = &policy;
    return runSpecs(bundle, {spec}, fast_share, label, obs, mods);
}

RunResult
Runner::runTenantsWith(const WorkloadBundle &bundle,
                       const PolicyFactory &factory, double fast_share,
                       const std::string &label, const RunObservers *obs,
                       const RunOverrides *mods)
{
    // One tenant per trace, in trace order, so process index p and
    // tenant index p coincide and baselines line up.
    std::vector<std::unique_ptr<TieringPolicy>> policies;
    std::vector<TenantSpec> specs;
    for (const Trace &t : bundle.traces) {
        policies.push_back(factory(specs.size()));
        specs.push_back({"", {&t}, policies.back().get()});
    }
    return runSpecs(bundle, std::move(specs), fast_share, label, obs, mods);
}

RunResult
Runner::runTenants(const WorkloadBundle &bundle,
                   const std::string &policy_name, double fast_share,
                   const RunObservers *obs, const RunOverrides *mods)
{
    // Soar's offline profiling pass models a whole-machine plan; a
    // per-tenant instance would silently plan against the other
    // tenants' pages too.
    throw_config_if(policy_name == "Soar",
                    "runTenants: Soar is single-tenant only");
    return runTenantsWith(
        bundle, [&](std::size_t) { return makePolicy(policy_name); },
        fast_share, policy_name, obs, mods);
}

RunResult
Runner::run(const WorkloadBundle &bundle, const std::string &policy_name,
            double fast_share, const RunObservers *obs,
            const RunOverrides *mods)
{
    // Tag the Soar profiling pass too, not only the measured run.
    const LogTagScope tag(bundle.name + "/" + policy_name);
    auto policy = makePolicy(policy_name);

    if (auto *soar = dynamic_cast<SoarPolicy *>(policy.get());
        soar && !soar->hasPlan()) {
        // Offline profiling pass, then static placement sized to this
        // run's fast-tier capacity.
        const auto prof = soarProfile(cfg_, bundle.as, bundle.traces);
        soar->setPlan(
            soarPlan(prof, capacityPages(bundle, fast_share)));
    }

    return runWith(bundle, *policy, fast_share, policy_name, obs, mods);
}

std::uint64_t
envRunTimeoutMs()
{
    const char *s = std::getenv("PACT_RUN_TIMEOUT_MS");
    if (!s)
        return 0;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    throw_config_if(s[0] < '0' || s[0] > '9' || *end != '\0' ||
                        errno == ERANGE,
                    "PACT_RUN_TIMEOUT_MS='", s,
                    "' is not a whole number of milliseconds (0 "
                    "disables the budget)");
    return v;
}

double
envScale(double deflt)
{
    const char *s = std::getenv("PACT_SCALE");
    if (!s)
        return deflt;
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    throw_config_if(end == s || *end != '\0' || !(v > 0.0) ||
                        !std::isfinite(v),
                    "PACT_SCALE='", s, "' is not a positive number");
    return v;
}

} // namespace pact
