#include "sim/engine.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"

namespace pact
{

namespace
{

/** One tenant holding every trace under @p policy. */
std::vector<TenantSpec>
oneTenant(const std::vector<Trace> *traces, TieringPolicy *policy)
{
    throw_config_if(!traces || traces->empty(), "Engine: no traces");
    TenantSpec spec;
    for (const Trace &t : *traces)
        spec.traces.push_back(&t);
    spec.policy = policy;
    return {spec};
}

/**
 * Size the migration engine's per-process penalty table: proc ids are
 * trace-assigned, so the table must cover the largest one even when
 * tenants skip ids.
 */
unsigned
numProcs(const std::vector<TenantSpec> &tenants)
{
    throw_config_if(tenants.empty(), "Engine: no tenants");
    std::size_t count = 0;
    unsigned maxProc = 0;
    for (const TenantSpec &s : tenants) {
        throw_config_if(s.traces.empty(), "Engine: tenant '", s.name,
                        "' has no traces");
        for (const Trace *t : s.traces) {
            throw_config_if(!t, "Engine: null trace in tenant '", s.name,
                            "'");
            maxProc = std::max(maxProc, static_cast<unsigned>(t->proc));
            count++;
        }
    }
    return std::max(static_cast<unsigned>(count), maxProc + 1);
}

} // namespace

Engine::Engine(const SimConfig &cfg, const AddrSpace &as,
               const std::vector<Trace> *traces, TieringPolicy *policy)
    : Engine(cfg, as, oneTenant(traces, policy))
{
}

Engine::Engine(const SimConfig &cfg, const AddrSpace &as,
               std::vector<TenantSpec> tenants)
    // Validate before any member is built so a bad config surfaces as
    // ConfigError instead of corrupting component construction.
    : cfg_((cfg.validate(), cfg)), as_(as),
      rng_(cfg.seed ^ 0x5bd1e995u),
      fastTier_(TierId::Fast, cfg.fast),
      slowTier_(TierId::Slow, cfg.slow),
      cache_(cfg.cache),
      tm_(as.totalPages(), cfg.fastCapacityPages),
      lru_(as.totalPages()),
      mig_(tm_, lru_, *this, cfg.migration, numProcs(tenants)),
      faults_(FaultPlan::fromSpec(cfg.faults, cfg.seed))
{
    tenants_.reserve(tenants.size());
    for (TenantSpec &s : tenants) {
        if (s.name.empty())
            s.name = "tenant" + std::to_string(tenants_.size());
        tenants_.push_back(
            std::make_unique<TenantState>(std::move(s), cfg_.pebs));
    }
    init();
}

void
Engine::init()
{
    mig_.setFaultPlan(faults_.get());

    if (cfg_.chmu.enabled) {
        ChmuParams cp;
        cp.counterCap = cfg_.chmu.counterCap;
        cp.hotListLen = cfg_.chmu.hotListLen;
        chmu_ = std::make_unique<Chmu>(cp);
    }

    bool have_primary = false;
    for (const auto &t : tenants_)
        for (const Trace *tr : t->spec.traces)
            have_primary |= !tr->loop;
    throw_config_if(!have_primary,
                    "Engine: all traces loop; run never ends");

    // Per-page huge flag map from the allocation registry.
    hugeMap_.assign(as_.totalPages(), 0);
    for (const ObjectInfo &obj : as_.objects()) {
        if (!obj.thp)
            continue;
        const PageId first = obj.firstPage();
        for (PageId p = first; p < first + obj.pages() &&
                               p < hugeMap_.size();
             p++) {
            hugeMap_[p] = 1;
        }
    }

    const std::array<Tier *, NumTiers> tiers{&fastTier_, &slowTier_};
    for (std::size_t i = 0; i < tenants_.size(); i++) {
        TenantState &t = *tenants_[i];
        t.pebs.setFaultPlan(faults_.get());
        // Under counter-wraparound injection the policy reads the
        // masked PMU view; the cores keep writing ground truth.
        Pmu &policyView =
            faults_ && faults_->wrapBits() ? t.wrappedPmu : t.pmu;
        t.ctx = std::make_unique<SimContext>(SimContext{
            cfg_, 0, policyView, t.pebs, tm_, lru_, mig_, as_, tiers,
            rng_});
        t.ctx->chmu = chmu_.get();
        t.ctx->faults = faults_.get();
        t.ctx->tenant = static_cast<unsigned>(i);

        for (const Trace *tr : t.spec.traces) {
            t.cpus.push_back(cpus_.size());
            traceOf_.push_back(tr);
            tenantOf_.push_back(static_cast<std::uint32_t>(i));
            cpus_.push_back(std::make_unique<Cpu>(
                cfg_, *tr, cache_, tiers, tm_, lru_, t.pmu, t.pebs,
                hugeMap_, t.spec.policy, chmu_.get()));
        }
    }

    registerStats();
    if (tenants_.size() == 1) {
        // A lone tenant's subtree would only repeat the engine.* sums:
        // its policy's stats land unprefixed instead. The golden
        // corpus pins this layout bit-for-bit.
        if (tenants_[0]->spec.policy)
            tenants_[0]->spec.policy->registerStats(reg_);
    } else {
        for (std::size_t i = 0; i < tenants_.size(); i++)
            registerTenantStats(i);
    }

    nextTick_ = nextPeriod();
}

Cycles
Engine::nextPeriod()
{
    return faults_ ? faults_->jitterPeriod(cfg_.daemonPeriod)
                   : cfg_.daemonPeriod;
}

void
Engine::refreshWrappedPmu(TenantState &t)
{
    if (!faults_ || faults_->wrapBits() == 0)
        return;
    const std::uint64_t m = faults_->wrapMask();
    t.wrappedPmu = t.pmu;
    forEachPmuCounter([&](PmuCounter c) { c.of(t.wrappedPmu) &= m; });
}

Pmu
Engine::aggregatePmu() const
{
    Pmu sum;
    forEachPmuCounter([&](PmuCounter c) {
        for (const auto &t : tenants_)
            c.of(sum) += c.of(t->pmu);
    });
    return sum;
}

void
Engine::registerStats()
{
    using obs::StatKind;

    // Machine-wide counters. PMU and PEBS sums span all tenants; with
    // one tenant each sum is the tenant's own uint64 converted to
    // double, bit-identical to registering the counter itself.
    reg_.addCounter("engine.daemon.ticks", &daemonTicks_,
                    "policy daemon wakeups (all tenants)");
    reg_.addFn("engine.now", StatKind::Gauge,
               [this] { return static_cast<double>(now_); },
               "global slice clock");

    reg_.addFn("engine.cache.hits", StatKind::Counter,
               [this] { return static_cast<double>(cache_.hits()); },
               "LLC hits");
    reg_.addFn("engine.cache.misses", StatKind::Counter,
               [this] { return static_cast<double>(cache_.misses()); },
               "LLC misses");
    reg_.addFn("engine.cache.prefetch_hits", StatKind::Counter,
               [this] { return static_cast<double>(cache_.prefetchHits()); },
               "hits on prefetched lines");
    reg_.addFn("engine.cache.prefetch_issued", StatKind::Counter,
               [this] {
                   return static_cast<double>(cache_.prefetchIssued());
               },
               "prefetch lines issued");

    reg_.addFn("engine.pebs.events", StatKind::Counter,
               [this] {
                   double acc = 0.0;
                   for (const auto &t : tenants_)
                       acc += static_cast<double>(t->pebs.events());
                   return acc;
               },
               "sampleable PEBS events");
    reg_.addFn("engine.pebs.dropped", StatKind::Counter,
               [this] {
                   double acc = 0.0;
                   for (const auto &t : tenants_)
                       acc += static_cast<double>(t->pebs.dropped());
                   return acc;
               },
               "samples dropped on buffer overflow");

    forEachPmuCounter([&](PmuCounter c) {
        reg_.addFn("engine.pmu." + c.name(), StatKind::Counter,
                   [this, c] {
                       double acc = 0.0;
                       for (const auto &t : tenants_)
                           acc += static_cast<double>(c.of(t->pmu));
                       return acc;
                   },
                   c.field->desc);
    });

    const MigrationStats &ms = mig_.stats();
    reg_.addCounter("engine.migration.promoted_ops", &ms.promotedOps,
                    "promotion operations");
    reg_.addCounter("engine.migration.promoted_pages", &ms.promotedPages,
                    "4KB pages promoted");
    reg_.addCounter("engine.migration.demoted_ops", &ms.demotedOps,
                    "demotion operations");
    reg_.addCounter("engine.migration.demoted_pages", &ms.demotedPages,
                    "4KB pages demoted");
    reg_.addCounter("engine.migration.failed", &ms.failed,
                    "failed migration attempts");
    reg_.addCounter("engine.migration.copy_cycles", &ms.copyCycles,
                    "cycles spent copying pages");
    reg_.addCounter("engine.migration.app_penalty_cycles",
                    &ms.appPenaltyCycles,
                    "migration stall charged to applications");

    const MigrationTxnStats &ts = mig_.txnStats();
    reg_.addCounter("engine.migration.txn.prepared", &ts.prepared,
                    "migration transactions opened");
    reg_.addCounter("engine.migration.txn.committed", &ts.committed,
                    "migration transactions committed");
    reg_.addCounter("engine.migration.txn.aborted", &ts.aborted,
                    "aborted transaction attempts");
    reg_.addCounter("engine.migration.txn.retries", &ts.retries,
                    "aborted attempts that re-armed");
    reg_.addCounter("engine.migration.txn.exhausted", &ts.exhausted,
                    "transactions that ran out of retries");
    reg_.addCounter("engine.migration.txn.admission_rejected",
                    &ts.admissionRejected,
                    "migrations rejected by admission control");
    reg_.addCounter("engine.migration.txn.abort_contention",
                    &ts.abortContention, "whole-copy contention aborts");
    reg_.addCounter("engine.migration.txn.abort_mid_copy",
                    &ts.abortMidCopy, "mid-copy aborts");
    reg_.addCounter("engine.migration.txn.abort_dirty", &ts.abortDirty,
                    "dirtied-during-copy validation aborts");
    reg_.addCounter("engine.migration.txn.abort_write_fail",
                    &ts.abortWriteFail,
                    "transient destination write failures");
    reg_.addCounter("engine.migration.txn.wasted_copy_cycles",
                    &ts.wastedCopyCycles,
                    "cycles charged by aborted attempts");
    reg_.addCounter("engine.migration.txn.backoff_cycles",
                    &ts.backoffCycles, "daemon-side retry backoff");

    const char *tierName[NumTiers] = {"fast", "slow"};
    Tier *tiers[NumTiers] = {&fastTier_, &slowTier_};
    for (unsigned t = 0; t < NumTiers; t++) {
        const std::string p = std::string("engine.tier.") + tierName[t];
        Tier *tier = tiers[t];
        reg_.addFn(p + ".requests", StatKind::Counter,
                   [tier] { return static_cast<double>(tier->requests()); },
                   "demand requests served");
        reg_.addFn(p + ".lines_served", StatKind::Counter,
                   [tier] {
                       return static_cast<double>(tier->linesServed());
                   },
                   "64B lines transferred");
        const TierId id = static_cast<TierId>(t);
        reg_.addFn(p + ".used_pages", StatKind::Gauge,
                   [this, id] {
                       return static_cast<double>(tm_.used(id));
                   },
                   "pages resident in the tier");
    }
    reg_.addFn("engine.tier.touched_pages", StatKind::Gauge,
               [this] { return static_cast<double>(tm_.touchedPages()); },
               "pages materialized so far");

    // Distribution stats: fixed-layout log-linear histograms, kept in
    // the registry's separate distribution list so the scalar stat
    // layout (pinned by the golden corpus) is untouched.
    reg_.addDistribution("engine.dist.tier.fast.latency",
                         fastTier_.latencyDist(),
                         "loaded latency per fast-tier demand request");
    reg_.addDistribution("engine.dist.tier.slow.latency",
                         slowTier_.latencyDist(),
                         "loaded latency per slow-tier demand request");
    reg_.addDistribution("engine.dist.migration.latency",
                         mig_.latencyDist(),
                         "charged cycles per migration op (aborts incl.)");
    reg_.addDistribution("engine.dist.daemon.tick_cycles", tickCyclesDist_,
                         "copy cycles charged per daemon tick");
    reg_.addDistribution("engine.dist.daemon.tor_occupancy", torWindowDist_,
                         "slow-tier TOR occupancy delta per daemon window");

    if (faults_) {
        const FaultCounters &fc = faults_->counters();
        reg_.addCounter("faults.migration_aborts", &fc.migrationAborts,
                        "injected mid-copy migration aborts");
        reg_.addCounter("faults.pebs_dropped", &fc.pebsDropped,
                        "injected PEBS sample drops");
        reg_.addCounter("faults.pebs_duplicated", &fc.pebsDuplicated,
                        "injected PEBS sample duplicates");
        reg_.addCounter("faults.jittered_windows", &fc.jitteredWindows,
                        "daemon windows with injected jitter");
        reg_.addCounter("faults.mid_copy_aborts", &fc.midCopyAborts,
                        "injected mid-copy transaction aborts");
        reg_.addCounter("faults.dirty_conflicts", &fc.dirtyConflicts,
                        "injected dirty-during-copy conflicts");
        reg_.addCounter("faults.tier_write_failures", &fc.tierWriteFailures,
                        "injected transient tier write failures");
        reg_.addCounter("faults.daemon_stalls", &fc.daemonStalls,
                        "injected daemon crash-and-restart stalls");
        reg_.addCounter("faults.pebs_starved", &fc.pebsStarved,
                        "PEBS samples lost to starvation bursts");
        reg_.addCounter("faults.starve_bursts", &fc.starveBursts,
                        "injected PEBS starvation bursts");
    }
}

void
Engine::registerTenantStats(std::size_t i)
{
    using obs::StatKind;

    TenantState &t = *tenants_[i];
    const obs::StatPrefix scope(reg_, t.spec.name + ".");

    reg_.addCounter("daemon.ticks", &t.ticks,
                    "this tenant's policy daemon wakeups");
    reg_.addFn("retired_ops", StatKind::Counter,
               [this, &t] {
                   double acc = 0.0;
                   for (std::size_t c : t.cpus)
                       acc += static_cast<double>(cpus_[c]->retired());
                   return acc;
               },
               "ops retired by this tenant's cores");
    reg_.addFn("pebs.events", StatKind::Counter,
               [&t] { return static_cast<double>(t.pebs.events()); },
               "sampleable PEBS events");
    reg_.addFn("pebs.dropped", StatKind::Counter,
               [&t] { return static_cast<double>(t.pebs.dropped()); },
               "samples dropped on buffer overflow");

    forEachPmuCounter([&](PmuCounter c) {
        reg_.addCounter("pmu." + c.name(), &c.of(t.pmu), c.field->desc);
    });

    // The tenant's policy registers its own stats under the same
    // subtree, so N instances of one policy class coexist without
    // duplicate-name panics.
    if (t.spec.policy)
        t.spec.policy->registerStats(reg_);
}

void
Engine::setTraceSink(obs::TraceEventSink *sink)
{
    traceSink_ = sink;
    if (!traceSink_)
        return;
    // One daemon + one migration lane per tenant, so N tenants
    // render as N parallel row pairs instead of one shared row.
    for (std::uint32_t i = 0; i < tenants_.size(); i++) {
        const std::string &n = tenants_[i]->spec.name;
        traceSink_->threadName(2 * i, n + " daemon");
        traceSink_->threadName(migrationLane(i), n + " migration");
    }
}

void
Engine::setEventJournal(obs::EventJournal *journal)
{
    journal_ = journal;
    mig_.setJournal(journal_);
    for (std::size_t i = 0; i < tenants_.size(); i++) {
        tenants_[i]->pebs.setJournal(journal_,
                                     static_cast<std::uint32_t>(i));
        tenants_[i]->ctx->journal = journal_;
    }
}

bool
Engine::allPrimariesDone() const
{
    for (std::size_t i = 0; i < cpus_.size(); i++) {
        if (!traceOf_[i]->loop && !cpus_[i]->done())
            return false;
    }
    return true;
}

Cycles
Engine::chargeCopy(TierId src, TierId dst, std::uint64_t bytes)
{
    const std::uint64_t lines = (bytes + LineBytes - 1) / LineBytes;
    Tier *tiers[NumTiers] = {&fastTier_, &slowTier_};
    Tier *s = tiers[tierIndex(src)];
    Tier *d = tiers[tierIndex(dst)];
    // The copy occupies both buses (stealing bandwidth from demand
    // traffic), but the returned cost is the queue-free transfer time:
    // intra-batch queueing is absorbed by the migration daemon thread,
    // not the application.
    s->chargeLines(now_, lines);
    d->chargeLines(now_, lines);
    const double service =
        std::max(s->serviceCycles(), d->serviceCycles()) *
        static_cast<double>(lines);
    const Cycles cost = static_cast<Cycles>(service) + s->latency();
    if (traceSink_) {
        traceSink_->completeEvent(
            dst == TierId::Fast ? "promote.copy" : "demote.copy",
            "migration", obs::cyclesToUs(now_), obs::cyclesToUs(cost),
            migrationLane(currentTenant_),
            {{"bytes", static_cast<double>(bytes)}});
    }
    return cost;
}

bool
Engine::runUntil(Cycles until)
{
    if (!started_) {
        started_ = true;
        for (std::size_t ti = 0; ti < tenants_.size(); ti++) {
            auto &t = tenants_[ti];
            if (!t->spec.policy)
                continue;
            // A policy that migrates in start() (warm placement)
            // triggers chargeCopy before any slice has stamped the
            // current tenant; stamp it here so tenant >= 1 start-time
            // migrations aren't attributed to whoever ran last.
            currentTenant_ = static_cast<std::uint32_t>(ti);
            mig_.setJournalContext(0, currentTenant_, 0);
            t->ctx->now = 0;
            refreshWrappedPmu(*t);
            t->spec.policy->start(*t->ctx);
        }
    }
    if (finished_)
        return false;

    while (now_ < until) {
        const Cycles sliceEnd = now_ + cfg_.slice;
        for (std::size_t i = 0; i < cpus_.size(); i++) {
            currentTenant_ = tenantOf_[i];
            // Fault-path migrations (promote-on-fault policies) fire
            // inside cpu->run; stamp their provenance context at slice
            // resolution so the journal attributes them correctly and
            // the admission gate knows whose migration it is judging.
            mig_.setJournalContext(now_, currentTenant_,
                                   tenants_[currentTenant_]->ticks);
            cpus_[i]->run(sliceEnd);
        }
        now_ = sliceEnd;

        if (now_ >= nextTick_) {
            // Injected daemon stall: the daemon crashed and restarts
            // `stall` cycles later, so this window's ticks (and the
            // audit that rides on them) never run. Migration penalties
            // stay queued until the restarted daemon's next window.
            const Cycles stall =
                faults_ ? faults_->daemonStall(cfg_.daemonPeriod)
                        : Cycles(0);
            if (stall > 0) {
                nextTick_ += stall + nextPeriod();
                continue;
            }
            bool ticked = false;
            // Daemon-window boundary: every tenant's daemon runs, in
            // tenant order, against the shared tier state. Serial and
            // fixed-order, so N-tenant runs stay deterministic.
            for (std::size_t ti = 0; ti < tenants_.size(); ti++) {
                auto &t = tenants_[ti];
                if (!t->spec.policy)
                    continue;
                const MigrationStats before = mig_.stats();
                currentTenant_ = static_cast<std::uint32_t>(ti);
                mig_.setJournalContext(now_, currentTenant_,
                                       t->ticks + 1);
                t->ctx->now = now_;
                refreshWrappedPmu(*t);
                t->spec.policy->tick(*t->ctx);
                t->ticks++;
                daemonTicks_++;
                ticked = true;
                const MigrationStats &after = mig_.stats();
                const Cycles tickCopy =
                    after.copyCycles - before.copyCycles;
                tickCyclesDist_.record(static_cast<double>(tickCopy));
                if (journal_) {
                    obs::PageEvent ev;
                    ev.now = now_;
                    ev.kind = obs::EventKind::DaemonTick;
                    ev.tenant = currentTenant_;
                    ev.window = t->ticks;
                    ev.latency = tickCopy;
                    journal_->emit(ev);
                }
                if (traceSink_) {
                    const double ts = obs::cyclesToUs(now_);
                    // The tick's visible extent is the time its
                    // migrations kept the copy engine busy.
                    traceSink_->completeEvent(
                        "daemon.tick", "daemon", ts,
                        obs::cyclesToUs(tickCopy),
                        2 * currentTenant_,
                        {{"tick", static_cast<double>(daemonTicks_)},
                         {"promoted_ops",
                          static_cast<double>(after.promotedOps -
                                              before.promotedOps)},
                         {"demoted_ops",
                          static_cast<double>(after.demotedOps -
                                              before.demotedOps)}});
                    traceSink_->counterEvent(
                        "fast_used_pages", ts,
                        static_cast<double>(tm_.used(TierId::Fast)));
                    traceSink_->counterEvent(
                        "promotions_per_tick", ts,
                        static_cast<double>(after.promotedOps -
                                            before.promotedOps));
                }
            }
            // Window-shape distribution: how much slow-tier TOR
            // occupancy (the paper's T1 signal) this window added.
            {
                std::uint64_t occ = 0;
                for (const auto &t : tenants_)
                    occ += t->pmu.torOccupancy[tierIndex(TierId::Slow)];
                torWindowDist_.record(
                    static_cast<double>(occ - lastTorOcc_));
                lastTorOcc_ = occ;
            }
            if (ticked) {
                // Application threads absorb migration penalties.
                for (std::size_t i = 0; i < cpus_.size(); i++) {
                    cpus_[i]->addPenalty(mig_.drainPenalty(
                        static_cast<ProcId>(traceOf_[i]->proc)));
                }
            }
            // Debug-mode consistency audit: tier accounting after the
            // ticks' migrations, then each policy's own invariants.
            if (cfg_.audit) {
                tm_.auditConsistency();
                for (auto &t : tenants_) {
                    if (t->spec.policy)
                        t->spec.policy->audit(*t->ctx);
                }
            }
            nextTick_ += nextPeriod();
        }

        if (now_ >= cfg_.maxWallCycles) {
            finished_ = true;
            truncated_ = !allPrimariesDone();
            for (auto &cpu : cpus_)
                cpu->drainInflight();
            finishRun();
            if (truncated_) {
                // The run's one truncation report; a run whose last
                // primary trace retired in this slice completed.
                const RunStats rs = snapshot();
                warn("run cut short at the maxWallCycles cap of ",
                     rs.maxWallCycles, " cycles after retiring ",
                     rs.primaryRetired, " of ", rs.primaryOps, " ops");
            }
            return false;
        }

        if (allPrimariesDone()) {
            finished_ = true;
            finishRun();
            return false;
        }
    }
    return true;
}

LlcOutcomes::Source
Engine::llcSource() const
{
    if (cpus_.size() != 1 || traceOf_[0]->loop)
        return {};
    const Trace &t = *traceOf_[0];
    return {&t, t.ops.data(), t.ops.size(), &as_};
}

bool
Engine::recordLlcOutcomes()
{
    panic_if(started_, "recordLlcOutcomes: the run has started");
    const LlcOutcomes::Source src = llcSource();
    if (!src.ops || llcReplay_)
        return false;
    llcRecord_ = std::make_shared<LlcOutcomes>(cfg_.cache, src);
    // An upper bound: every Load/Store is one access.
    llcRecord_->reserve(src.opCount);
    cache_.record(llcRecord_.get());
    return true;
}

std::shared_ptr<const LlcOutcomes>
Engine::llcOutcomes() const
{
    return finished_ && !truncated_ ? llcRecord_ : nullptr;
}

bool
Engine::replayLlcOutcomes(std::shared_ptr<const LlcOutcomes> stream)
{
    panic_if(started_, "replayLlcOutcomes: the run has started");
    const LlcOutcomes::Source src = llcSource();
    if (!stream || !src.ops || llcRecord_ || stream->source() != src ||
        stream->params() != cfg_.cache)
        return false;
    llcReplay_ = std::move(stream);
    cache_.replay(llcReplay_.get(), cfg_.audit);
    return true;
}

void
Engine::finishRun()
{
    // A finished trace made exactly the accesses it recorded.
    throw_invariant_if(llcReplay_ && !truncated_ &&
                           cache_.replayed() != llcReplay_->size(),
                       "LLC replay: run used ", cache_.replayed(),
                       " of ", llcReplay_->size(), " recorded accesses");
    for (auto &t : tenants_) {
        if (!t->spec.policy)
            continue;
        t->ctx->now = now_;
        refreshWrappedPmu(*t);
        t->spec.policy->finish(*t->ctx);
    }
    if (cfg_.audit)
        tm_.auditConsistency();
}

RunStats
Engine::run()
{
    while (runUntil(now_ + (1ull << 40))) {
    }
    return snapshot();
}

RunStats
Engine::snapshot() const
{
    RunStats rs;
    rs.wallCycles = now_;
    rs.completed = !truncated_;
    rs.maxWallCycles = cfg_.maxWallCycles;
    for (std::size_t i = 0; i < cpus_.size(); i++) {
        rs.procCycles.push_back(cpus_[i]->done() ? cpus_[i]->finishCycle()
                                                 : cpus_[i]->cycle());
        rs.procRetired.push_back(cpus_[i]->retired());
        rs.spans.push_back(cpus_[i]->spans());
        if (!traceOf_[i]->loop) {
            rs.primaryOps += traceOf_[i]->size();
            rs.primaryRetired += cpus_[i]->retired();
        }
    }
    rs.pmu = aggregatePmu();
    rs.migration = mig_.stats();
    rs.txn = mig_.txnStats();

    // The scalar counters are a view over the registry: one dump
    // supplies both the named fields below and the full artifact
    // export, so nothing is hand-copied twice.
    const std::vector<std::string> names = reg_.names();
    const std::vector<double> values = reg_.sampleAll();
    rs.registry.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); i++)
        rs.registry.emplace_back(names[i], values[i]);
    auto u64 = [&](const char *name) {
        return static_cast<std::uint64_t>(rs.stat(name));
    };
    reg_.forEachDist([&](const std::string &n, const obs::Distribution &d) {
        rs.dists.emplace_back(n, obs::DistSnapshot::of(d));
    });
    rs.pebsEvents = u64("engine.pebs.events");
    rs.pebsDropped = u64("engine.pebs.dropped");
    rs.cacheMisses = u64("engine.cache.misses");
    rs.daemonTicks = u64("engine.daemon.ticks");

    rs.tenants.reserve(tenants_.size());
    for (const auto &t : tenants_) {
        RunStats::Tenant ts;
        ts.name = t->spec.name;
        ts.procs = t->cpus;
        for (std::size_t c : t->cpus) {
            ts.retired += cpus_[c]->retired();
            ts.cycles = std::max(ts.cycles, cpus_[c]->done()
                                                ? cpus_[c]->finishCycle()
                                                : cpus_[c]->cycle());
        }
        ts.pebsEvents = t->pebs.events();
        ts.daemonTicks = t->ticks;
        rs.tenants.push_back(std::move(ts));
    }
    return rs;
}

} // namespace pact
